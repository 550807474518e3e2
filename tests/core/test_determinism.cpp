/// \file test_determinism.cpp
/// Golden-determinism guards for the event kernel.
///
/// The simulator's reproducibility contract is that events fire in
/// (time, entity, counter) order — every key drawn from its scheduling
/// entity's own lane — and that nothing else (heap layout, allocator,
/// hash-set iteration, thread fan-out of independent replicas) can perturb
/// a run. These tests pin the contract with golden hashes (goldens.hpp):
/// any kernel or sweep-runner change that alters the fire order, the
/// simulated results, or even the CSV formatting of a Figure-2 style sweep
/// must update those constants *consciously*.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/network_simulator.hpp"
#include "core/run_controller.hpp"
#include "goldens.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

using golden::hook_hash;
using golden::kGoldenFig2CsvHash;
using golden::kGoldenMesh16FireOrderHash;
using golden::StreamHash;

/// The mesh16 platform (configs/mesh16.cfg) with shortened phases so the
/// test stays fast; seed pinned.
SimConfig mesh16_config() {
  SimConfig cfg;
  cfg.topology = TopologyKind::kMesh2D;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.mesh_concentration = 1;
  cfg.arch = SwitchArch::kAdvanced2Vc;
  cfg.load = 0.5;
  cfg.warmup = 500_us;
  cfg.measure = 2_ms;
  cfg.drain = 1_ms;
  cfg.seed = 1;
  return cfg;
}

TEST(GoldenDeterminism, Mesh16EventFireOrderHash) {
  NetworkSimulator net(mesh16_config());
  StreamHash h;
  hook_hash(net, h);
  const SimReport rep = net.run();
  EXPECT_GT(rep.events_processed, 100'000u);  // the run actually did work
  EXPECT_EQ(h.value(), kGoldenMesh16FireOrderHash)
      << "event fire order changed: key/time stream hash = " << std::hex
      << h.value();
}

TEST(GoldenDeterminism, OnePhaseScenarioMatchesLegacyRun) {
  // The scenario engine's compatibility contract: a one-phase scenario
  // schedules zero extra events, so RunController(single_phase) replays
  // the legacy run() bit-for-bit — same fire-order stream, same goldens,
  // same per-class CSV bytes.
  auto fire_hash = [](NetworkSimulator& net) {
    auto h = std::make_unique<StreamHash>();
    hook_hash(net, *h);
    return h;
  };
  auto csv_bytes = [](const SimReport& rep) {
    std::string out;
    for (const TrafficClass c : all_traffic_classes()) {
      const ClassReport& r = rep.of(c);
      char row[256];
      std::snprintf(row, sizeof row, "%s,%llu,%llu,%.3f,%.3f,%.1f,%.1f\n",
                    std::string(to_string(c)).c_str(),
                    static_cast<unsigned long long>(r.packets),
                    static_cast<unsigned long long>(r.messages),
                    r.avg_packet_latency_us, r.p99_packet_latency_us,
                    r.throughput_bytes_per_sec, r.offered_bytes_per_sec);
      out += row;
    }
    return out;
  };

  NetworkSimulator legacy(mesh16_config());
  const auto legacy_hash = fire_hash(legacy);
  const SimReport legacy_rep = legacy.run();

  NetworkSimulator scenario(mesh16_config());
  const auto scenario_hash = fire_hash(scenario);
  RunController controller(scenario,
                           Scenario::single_phase(scenario.config()));
  const ScenarioReport srep = controller.run();

  EXPECT_EQ(scenario_hash->value(), legacy_hash->value());
  EXPECT_EQ(legacy_hash->value(), kGoldenMesh16FireOrderHash);
  EXPECT_EQ(csv_bytes(srep.total), csv_bytes(legacy_rep));
  ASSERT_EQ(srep.phases.size(), 1u);
  EXPECT_EQ(srep.phases.front().of(TrafficClass::kControl).packets,
            legacy_rep.of(TrafficClass::kControl).packets);
}

TEST(GoldenDeterminism, Mesh16RerunsAreBitIdentical) {
  // Same seed, two replicas: byte-for-byte identical fire-order streams.
  auto run_hash = [] {
    NetworkSimulator net(mesh16_config());
    StreamHash h;
    hook_hash(net, h);
    (void)net.run();
    return h.value();
  };
  EXPECT_EQ(run_hash(), run_hash());
}

TEST(GoldenDeterminism, Fig2StyleSweepCsvBytes) {
  // A reduced Figure-2 sweep through the real harness (run_sweep +
  // print_series + CsvWriter): hashes the CSV bytes, so this guards the
  // sweep fan-out, the metric math, and the formatting in one bite.
  SimConfig base = SimConfig::small(SwitchArch::kIdeal, 1.0);
  base.warmup = 500_us;
  base.measure = 2_ms;
  base.drain = 1_ms;
  const SwitchArch archs[] = {SwitchArch::kIdeal, SwitchArch::kAdvanced2Vc};
  const double loads[] = {0.4, 1.0};
  const auto points = run_sweep(base, archs, loads);
  ASSERT_EQ(points.size(), 4u);

  const std::string csv_path = "golden_fig2_sweep.csv";
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  print_series(sink, points, "golden", "us", control_latency_us, 1, csv_path);
  std::fclose(sink);

  std::FILE* f = std::fopen(csv_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  StreamHash h;
  std::uint64_t bytes = 0;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    h.mix(static_cast<std::uint64_t>(c));
    ++bytes;
  }
  std::fclose(f);
  EXPECT_GT(bytes, 40u);
  EXPECT_EQ(h.value(), kGoldenFig2CsvHash)
      << "Fig2-style CSV bytes changed: hash = " << std::hex << h.value();
}

}  // namespace
}  // namespace dqos
