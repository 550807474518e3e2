/// \file test_parallel_equality.cpp
/// Bit-equality guards for the sharded conservative-parallel engine
/// (DESIGN.md §12).
///
/// The engine's contract is stronger than "statistically equivalent": a
/// sharded run must replay the serial run byte-for-byte — same event fire
/// order (key/time stream), same metrics, same CSV output — at every shard
/// count, with or without faults, overload machinery, or the invariant
/// auditor. These tests pin that contract against the same golden hashes
/// the serial kernel is pinned to, so a divergence anywhere in the window
/// merge, mailbox ordering, or deferred-effect replay fails loudly.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/network_simulator.hpp"
#include "core/run_controller.hpp"
#include "fault/fault_injector.hpp"
#include "goldens.hpp"
#include "topo/partition.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

using golden::hook_hash;
using golden::kGoldenFig2CsvHash;
using golden::kGoldenMesh16FireOrderHash;
using golden::StreamHash;

/// Same platform as test_determinism.cpp's mesh16_config(), with the shard
/// count as a parameter.
SimConfig mesh16_config(std::uint32_t shards) {
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
  cfg.shards = shards;
  return cfg;
}

/// A small fat tree (4-ary 2-tree, 16 hosts) — the cross-shard cut runs
/// through the spine stage instead of a mesh row boundary.
SimConfig fat_tree_config(std::uint32_t shards) {
  SimConfig cfg;
  cfg.topology = TopologyKind::kKaryNTree;
  cfg.kary_k = 4;
  cfg.kary_n = 2;
  cfg.arch = SwitchArch::kAdvanced2Vc;
  cfg.load = 0.7;
  cfg.warmup = 500_us;
  cfg.measure = 2_ms;
  cfg.drain = 1_ms;
  cfg.seed = 7;
  cfg.shards = shards;
  return cfg;
}

/// Per-class result rows formatted exactly like the golden determinism
/// test, so "CSV bytes equal" means the figures would be byte-identical.
std::string csv_bytes(const SimReport& rep) {
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
}

struct RunResult {
  std::uint64_t hash = 0;
  std::string csv;
  SimReport rep;
  /// Engine work counts (zero for a serial run).
  std::uint64_t windows = 0;
  std::uint64_t instants = 0;
  std::uint64_t cross_msgs = 0;
};

RunResult run_config(const SimConfig& cfg,
                     void (*script)(NetworkSimulator&) = nullptr) {
  NetworkSimulator net(cfg);
  StreamHash h;
  hook_hash(net, h);
  if (script != nullptr) script(net);
  RunResult r;
  r.rep = net.run();
  r.hash = h.value();
  r.csv = csv_bytes(r.rep);
  if (const ShardExecutor* engine = net.shard_engine()) {
    r.windows = engine->windows_run();
    r.instants = engine->instants_run();
    r.cross_msgs = engine->cross_messages();
  }
  return r;
}

TEST(ParallelEquality, Mesh16GoldenHashAtEveryShardCount) {
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    const RunResult r = run_config(mesh16_config(shards));
    EXPECT_GT(r.rep.events_processed, 100'000u);
    EXPECT_EQ(r.hash, kGoldenMesh16FireOrderHash)
        << "shards=" << shards << ": fire order diverged, hash=" << std::hex
        << r.hash;
  }
}

TEST(ParallelEquality, Mesh16CsvMatchesSerial) {
  const RunResult serial = run_config(mesh16_config(1));
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    const RunResult par = run_config(mesh16_config(shards));
    EXPECT_EQ(par.csv, serial.csv) << "shards=" << shards;
    EXPECT_EQ(par.rep.events_processed, serial.rep.events_processed);
  }
}

TEST(ParallelEquality, FatTreeMatchesSerial) {
  const RunResult serial = run_config(fat_tree_config(1));
  for (const std::uint32_t shards : {2u, 3u}) {
    const RunResult par = run_config(fat_tree_config(shards));
    EXPECT_EQ(par.hash, serial.hash) << "shards=" << shards;
    EXPECT_EQ(par.csv, serial.csv) << "shards=" << shards;
  }
}

/// Scripts a transient link failure on a *cut* link (endpoints in
/// different shards of the 3-way mesh16 partition), plus a credit loss on
/// the same link, so fault handling and credit resync both cross the shard
/// boundary.
void script_cut_link_fault(NetworkSimulator& net) {
  const Topology& topo = net.topology();
  const Partition part = partition_topology(topo, 3);
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    const NodeId n = topo.switch_id(s);
    for (PortId p = 0; p < topo.num_ports(n); ++p) {
      const Endpoint peer = topo.peer(n, p);
      if (!peer.valid() || !topo.is_switch(peer.node)) continue;
      if (part.shard_of(n) == part.shard_of(peer.node)) continue;
      const Endpoint link{n, p};
      net.fault_injector().fail_link_at(TimePoint::from_ps(800_us .ps()),
                                        link, 300_us, /*permanent=*/false);
      net.fault_injector().lose_credits_at(TimePoint::from_ps(1500_us .ps()),
                                           link, /*vc=*/0, /*bytes=*/512);
      return;
    }
  }
  FAIL() << "no cut switch-switch link found in the 3-shard partition";
}

TEST(ParallelEquality, CutLinkFaultMatchesSerial) {
  auto fault_cfg = [](std::uint32_t shards) {
    SimConfig cfg = mesh16_config(shards);
    cfg.fault.enabled = true;            // arms recovery machinery
    cfg.fault.control_retry = false;     // required when sharded
    cfg.fault.credit_resync_window = 200_us;
    return cfg;
  };
  const RunResult serial = run_config(fault_cfg(1), &script_cut_link_fault);
  for (const std::uint32_t shards : {2u, 3u}) {
    const RunResult par =
        run_config(fault_cfg(shards), &script_cut_link_fault);
    EXPECT_EQ(par.hash, serial.hash) << "shards=" << shards;
    EXPECT_EQ(par.csv, serial.csv) << "shards=" << shards;
    EXPECT_EQ(par.rep.fault.credit_resyncs, serial.rep.fault.credit_resyncs);
    EXPECT_EQ(par.rep.fault.packets_dropped_link_down,
              serial.rep.fault.packets_dropped_link_down);
  }
}

/// The mesh16_faults.cfg storm: random link failures + credit losses with
/// the deadlock watchdog armed. Regression for a sharded-only false fire:
/// the watchdog's end-of-run check read events_pending() off the control
/// calendar, which is legitimately empty under sharding while data events
/// still sit on shard calendars — a packet queued at the horizon then
/// "deadlocked". The probe now spans every calendar.
TEST(ParallelEquality, FaultStormWatchdogMatchesSerial) {
  auto storm_cfg = [](std::uint32_t shards) {
    SimConfig cfg = mesh16_config(shards);
    cfg.warmup = 1_ms;
    cfg.measure = 10_ms;
    cfg.drain = 3_ms;
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.link_down_per_sec = 1000.0;
    cfg.fault.link_outage_mean = 300_us;
    cfg.fault.credit_loss_per_sec = 500.0;
    cfg.fault.credit_loss_bytes = 256;
    cfg.fault.credit_resync_window = 100_us;
    cfg.fault.control_retry = false;  // required when sharded
    cfg.fault.watchdog_interval = 1_ms;
    cfg.fault.watchdog_rounds = 5;
    return cfg;
  };
  const RunResult serial = run_config(storm_cfg(1));
  EXPECT_FALSE(serial.rep.fault.watchdog_fired);
  const RunResult par = run_config(storm_cfg(4));
  EXPECT_FALSE(par.rep.fault.watchdog_fired) << par.rep.fault.watchdog_report;
  EXPECT_EQ(par.hash, serial.hash);
  EXPECT_EQ(par.csv, serial.csv);
  EXPECT_EQ(par.rep.fault.credit_resyncs, serial.rep.fault.credit_resyncs);
}

TEST(ParallelEquality, OverloadBackpressureMatchesSerial) {
  auto overload_cfg = [](std::uint32_t shards) {
    SimConfig cfg = mesh16_config(shards);
    cfg.load = 1.4;                 // oversubscribed: expiry machinery fires
    cfg.expiry_drop = true;
    cfg.expiry_abort_ratio = 0.5;
    cfg.shed_highwater = 0.9;
    return cfg;
  };
  const RunResult serial = run_config(overload_cfg(1));
  const RunResult par = run_config(overload_cfg(2));
  EXPECT_EQ(par.hash, serial.hash);
  EXPECT_EQ(par.csv, serial.csv);
  EXPECT_EQ(par.rep.degradation.expired_packets,
            serial.rep.degradation.expired_packets);
  EXPECT_EQ(par.rep.degradation.flows_aborted,
            serial.rep.degradation.flows_aborted);
  EXPECT_GT(serial.rep.degradation.expired_packets, 0u)
      << "overload scenario too mild to exercise the expiry path";
}

TEST(ParallelEquality, AuditorPassesUnderSharding) {
  // Auditing schedules its own calendar events, so the audited stream has
  // its own fire order — it must still match serial-vs-sharded exactly.
  auto audit_cfg = [](std::uint32_t shards) {
    SimConfig cfg = mesh16_config(shards);
    cfg.fault.audit_epoch = 300_us;  // credit/custody audits during the run
    return cfg;
  };
  const RunResult serial = run_config(audit_cfg(1));
  const RunResult par = run_config(audit_cfg(3));
  EXPECT_GT(par.rep.degradation.audits_passed, 0u);
  EXPECT_EQ(par.rep.degradation.audits_passed,
            serial.rep.degradation.audits_passed);
  EXPECT_EQ(par.hash, serial.hash)
      << "auditor scheduling perturbed the sharded fire order";
  EXPECT_EQ(par.csv, serial.csv);
}

TEST(ParallelEquality, Fig2SweepCsvBytesUnderSharding) {
  // The reduced Figure-2 sweep from the golden determinism test, with every
  // point simulated on 2 shards: the CSV must hash to the same golden.
  SimConfig base = SimConfig::small(SwitchArch::kIdeal, 1.0);
  base.warmup = 500_us;
  base.measure = 2_ms;
  base.drain = 1_ms;
  base.shards = 2;
  const SwitchArch archs[] = {SwitchArch::kIdeal, SwitchArch::kAdvanced2Vc};
  const double loads[] = {0.4, 1.0};
  const auto points = run_sweep(base, archs, loads);
  ASSERT_EQ(points.size(), 4u);

  const std::string csv_path = "parallel_fig2_sweep.csv";
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  print_series(sink, points, "golden", "us", control_latency_us, 1, csv_path);
  std::fclose(sink);

  std::FILE* f = std::fopen(csv_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  StreamHash h;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    h.mix(static_cast<std::uint64_t>(c));
  }
  std::fclose(f);
  EXPECT_EQ(h.value(), kGoldenFig2CsvHash)
      << "sharded Fig2 CSV bytes diverged: hash = " << std::hex << h.value();
}

TEST(ParallelEquality, HierAdmissionFatTreeMatchesSerial) {
  // Hierarchical admission on: the broker split moves ledger state, never
  // a route decision, so serial-vs-sharded bit-equality must hold exactly
  // as in flat mode (DESIGN.md §13 acceptance).
  auto hier_cfg = [](std::uint32_t shards) {
    SimConfig cfg = fat_tree_config(shards);
    cfg.hier_admission = true;
    return cfg;
  };
  const RunResult serial = run_config(hier_cfg(1));
  EXPECT_GT(serial.rep.events_processed, 50'000u);
  for (const std::uint32_t shards : {2u, 4u}) {
    const RunResult par = run_config(hier_cfg(shards));
    EXPECT_EQ(par.hash, serial.hash) << "shards=" << shards;
    EXPECT_EQ(par.csv, serial.csv) << "shards=" << shards;
  }
}

TEST(ParallelEquality, HierAdmissionChurnScenarioMatchesSerial) {
  // Churn admits/releases whole video flows through the pod brokers while
  // the fabric runs sharded — the broker recursion happens on the control
  // calendar at window barriers, and the fire-order stream must still
  // replay the serial run bit-for-bit.
  Scenario scn;
  scn.phases.resize(2);
  scn.phases[0].load = 0.4;
  scn.phases[1].start = 1_ms;
  scn.phases[1].load = 0.7;
  scn.phases[1].flow_arrivals_per_sec = 8000.0;
  scn.phases[1].flow_departures_per_sec = 600.0;
  auto run_scn = [&](std::uint32_t shards) {
    SimConfig cfg = fat_tree_config(shards);
    cfg.hier_admission = true;
    NetworkSimulator net(cfg);
    StreamHash h;
    hook_hash(net, h);
    RunController controller(net, scn);
    const ScenarioReport rep = controller.run();
    RunResult r;
    r.rep = rep.total;
    r.hash = h.value();
    r.csv = csv_bytes(r.rep);
    return r;
  };
  const RunResult serial = run_scn(1);
  const RunResult par = run_scn(3);
  EXPECT_EQ(par.hash, serial.hash);
  EXPECT_EQ(par.csv, serial.csv);
  EXPECT_EQ(par.rep.events_processed, serial.rep.events_processed);
}

TEST(ParallelEquality, ThreadedWindowsMatchInline) {
  // Force worker threads even on a single-core box: the threaded drain must
  // produce the same stream as the inline drain (and as serial), and run
  // the same windows, instants and cross-shard messages — mail delivered
  // on the destination's worker changes no horizon.
  SimConfig cfg = mesh16_config(3);
  cfg.shard_threads = 1;
  const RunResult threaded = run_config(cfg);
  cfg.shard_threads = 0;
  const RunResult inline_run = run_config(cfg);
  EXPECT_EQ(threaded.hash, kGoldenMesh16FireOrderHash);
  EXPECT_EQ(inline_run.hash, kGoldenMesh16FireOrderHash);
  EXPECT_GT(threaded.windows, 0u);
  EXPECT_GT(threaded.cross_msgs, 0u);
  EXPECT_EQ(threaded.windows, inline_run.windows);
  EXPECT_EQ(threaded.instants, inline_run.instants);
  EXPECT_EQ(threaded.cross_msgs, inline_run.cross_msgs);
}

TEST(ParallelEquality, ShardLocalKeysNeverRepeat) {
  // Every key is (entity << 40 | counter) from the scheduling entity's own
  // lane, so across all shards — inline and threaded — no two fired events
  // share a key, and the (time, key) stream equals the serial one.
  using Fired = std::vector<std::pair<std::int64_t, std::uint64_t>>;
  auto collect = [](std::uint32_t shards, std::int32_t threads) {
    SimConfig cfg = mesh16_config(shards);
    cfg.shard_threads = threads;
    NetworkSimulator net(cfg);
    Fired fired;
    golden::set_fire_hook(net, {[](void* ctx, std::uint64_t key, TimePoint t) {
                                  static_cast<Fired*>(ctx)->emplace_back(
                                      t.ps(), key);
                                },
                                &fired});
    (void)net.run();
    return fired;
  };
  const Fired serial = collect(1, 0);
  for (const std::int32_t threads : {0, 1}) {
    const Fired par = collect(3, threads);
    EXPECT_EQ(par, serial) << "shard_threads=" << threads;
    std::vector<std::uint64_t> keys;
    keys.reserve(par.size());
    for (const auto& f : par) keys.push_back(f.second);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "shard_threads=" << threads << ": a key fired twice";
    EXPECT_GT(keys.size(), 100'000u);
  }
}

}  // namespace
}  // namespace dqos
