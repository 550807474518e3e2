/// \file test_run_controller.cpp
/// Scenario-engine tests: phased execution, mid-run flow churn through
/// admission control, exact reservation rollback at teardown, and the
/// RunError lifecycle diagnostics. (The one-phase == legacy bit-identity
/// guard lives in test_determinism.cpp.)
#include "core/run_controller.hpp"

#include <gtest/gtest.h>

#include "core/network_simulator.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

/// mesh16 (configs/mesh16.cfg) with short windows so tests stay fast.
SimConfig mesh16() {
  SimConfig cfg;
  cfg.topology = TopologyKind::kMesh2D;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.mesh_concentration = 1;
  cfg.arch = SwitchArch::kAdvanced2Vc;
  cfg.load = 0.5;
  cfg.warmup = 500_us;
  cfg.measure = 3_ms;
  cfg.drain = 1_ms;
  cfg.seed = 1;
  return cfg;
}

/// The C1-style churn scenario: calm, churn burst, control-heavy recovery.
Scenario churn_scenario() {
  Scenario scn;
  scn.phases.resize(3);
  scn.phases[0].load = 0.4;
  scn.phases[1].start = 1_ms;
  scn.phases[1].load = 0.8;
  scn.phases[1].flow_arrivals_per_sec = 10000.0;  // ~10 arrivals in 1 ms
  scn.phases[1].flow_departures_per_sec = 800.0;
  scn.phases[2].start = 2_ms;
  scn.phases[2].load = 0.5;
  scn.phases[2].class_share = {0.4, 0.1, 0.25, 0.25};
  return scn;
}

TEST(RunControllerTest, ThreePhaseChurnRunsToCompletion) {
  NetworkSimulator net(mesh16());
  RunController controller(net, churn_scenario());
  const ScenarioReport rep = controller.run();

  // The run did real work and kept the paper's hard invariant.
  EXPECT_GT(rep.total.packets_delivered, 10'000u);
  EXPECT_EQ(rep.total.out_of_order, 0u);

  ASSERT_EQ(rep.phases.size(), 3u);
  std::uint64_t arrivals = 0, departures = 0;
  for (const PhaseReport& ph : rep.phases) {
    EXPECT_LT(ph.start, ph.end) << "phase " << ph.index;
    arrivals += ph.churn_arrivals;
    departures += ph.churn_departures;
    // Every phase delivered control traffic within its own window.
    EXPECT_GT(ph.of(TrafficClass::kControl).packets, 0u)
        << "phase " << ph.index;
  }
  // The burst phase admitted flows mid-run; churn is confined to phase 1's
  // window (departures of its flows may land in phase 2).
  EXPECT_GT(rep.phases[1].churn_arrivals, 0u);
  EXPECT_EQ(rep.phases[0].churn_arrivals, 0u);
  EXPECT_GT(arrivals, 0u);
  EXPECT_GE(arrivals, departures);

  // §3.2 exact rollback: after teardown the admission ledger is at exactly
  // zero — mid-run admits, departures and the drain all balanced out.
  EXPECT_GT(rep.flows_released, 0u);
  EXPECT_EQ(rep.reserved_bps_after_teardown, 0.0);
  EXPECT_EQ(net.admission().admitted_flows(), 0u);
}

TEST(RunControllerTest, PhaseWindowsPartitionMeasurement) {
  NetworkSimulator net(mesh16());
  RunController controller(net, churn_scenario());
  const ScenarioReport rep = controller.run();
  ASSERT_EQ(rep.phases.size(), 3u);
  for (std::size_t i = 1; i < rep.phases.size(); ++i) {
    EXPECT_EQ(rep.phases[i].start, rep.phases[i - 1].end);
  }
  EXPECT_EQ(rep.phases[1].end - rep.phases[1].start, 1_ms);
}

TEST(RunControllerTest, PhaseLoadsShapeOfferedTraffic) {
  NetworkSimulator net(mesh16());
  RunController controller(net, churn_scenario());
  const ScenarioReport rep = controller.run();
  // Phase 1 runs at 2x phase 0's load: the Poisson control sources track
  // the retarget closely (the heavy-tailed self-similar classes are too
  // bursty to compare over 1 ms windows).
  const double p0 =
      rep.phases[0].of(TrafficClass::kControl).offered_bytes_per_sec;
  const double p1 =
      rep.phases[1].of(TrafficClass::kControl).offered_bytes_per_sec;
  EXPECT_GT(p0, 0.0);
  EXPECT_GT(p1, p0 * 1.5);
  EXPECT_LT(p1, p0 * 2.5);
}

TEST(RunControllerTest, PhaseZeroOffersItsOwnLoadNotTheConfigLoad) {
  // The top-level config says load 1.0, the scenario's phase 0 says 0.3:
  // phase 0's sources must be sized for 0.3, not for the one-phase
  // workload the config alone implies.
  SimConfig cfg = mesh16();
  cfg.load = 1.0;
  Scenario scn;
  scn.phases.resize(2);
  scn.phases[0].load = 0.3;
  scn.phases[1].start = 1_ms;
  scn.phases[1].load = 0.3;
  NetworkSimulator net(cfg);
  RunController controller(net, scn);
  const ScenarioReport rep = controller.run();
  const double expected =
      0.3 * scn.phases[0].class_share[0] * cfg.link_bw.bytes_per_sec() *
      static_cast<double>(cfg.num_hosts());
  const double p0 =
      rep.phases[0].of(TrafficClass::kControl).offered_bytes_per_sec;
  EXPECT_GT(p0, expected * 0.75);
  EXPECT_LT(p0, expected * 1.25) << "phase 0 offered " << p0
                                 << " B/s, sized for load 0.3: " << expected;
}

TEST(RunControllerTest, ChurnFreeScenarioLeavesLegacyLedgerAlone) {
  // A pure single-phase scenario keeps the legacy post-run behaviour: the
  // static population's reservations stay inspectable after the run.
  NetworkSimulator net(mesh16());
  RunController controller(net, Scenario::single_phase(net.config()));
  const ScenarioReport rep = controller.run();
  EXPECT_EQ(rep.flows_released, 0u);
  EXPECT_GT(net.admission().admitted_flows(), 0u);
  EXPECT_GT(rep.reserved_bps_after_teardown, 0.0);
}

TEST(RunControllerTest, CtorThrowsOnBadScenario) {
  NetworkSimulator net(mesh16());
  Scenario empty;
  EXPECT_THROW(RunController(net, empty), RunError);

  Scenario unsorted = churn_scenario();
  unsorted.phases[2].start = 500_us;  // before phase 1
  EXPECT_THROW(RunController(net, unsorted), RunError);

  Scenario late = churn_scenario();
  late.phases[2].start = 10_ms;  // past the 3 ms measurement window
  EXPECT_THROW(RunController(net, late), RunError);

  SimConfig no_video = mesh16();
  no_video.enable_video = false;
  NetworkSimulator net2(no_video);
  Scenario churn = churn_scenario();
  EXPECT_THROW(RunController(net2, churn), RunError);
}

TEST(RunControllerTest, SecondRunOnSameSimulatorThrows) {
  NetworkSimulator net(mesh16());
  RunController a(net, Scenario::single_phase(net.config()));
  (void)a.run();
  RunController b(net, Scenario::single_phase(net.config()));
  EXPECT_THROW((void)b.run(), RunError);
}

TEST(RunControllerTest, ChurnIsDeterministicForSameSeed) {
  auto run_once = [] {
    NetworkSimulator net(mesh16());
    RunController controller(net, churn_scenario());
    return controller.run();
  };
  const ScenarioReport a = run_once();
  const ScenarioReport b = run_once();
  EXPECT_EQ(a.total.events_processed, b.total.events_processed);
  EXPECT_EQ(a.total.packets_delivered, b.total.packets_delivered);
  EXPECT_EQ(a.flows_released, b.flows_released);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.phases[i].churn_arrivals, b.phases[i].churn_arrivals);
    EXPECT_EQ(a.phases[i].churn_rejected, b.phases[i].churn_rejected);
    EXPECT_EQ(a.phases[i].churn_departures, b.phases[i].churn_departures);
  }
}

}  // namespace
}  // namespace dqos
