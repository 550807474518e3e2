/// End-to-end tracing: attach a tracer to a full NetworkSimulator and check
/// the per-packet event sequences are complete and causally ordered.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/config_io.hpp"
#include "core/network_simulator.hpp"
#include "trace/tracer.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

TEST(TraceIntegration, FullRunProducesCompleteHistories) {
  SimConfig cfg;
  cfg.arch = SwitchArch::kAdvanced2Vc;
  cfg.load = 0.4;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 4;
  cfg.num_spines = 2;
  cfg.warmup = 200_us;
  cfg.measure = 2_ms;
  cfg.drain = 1_ms;
  NetworkSimulator net(cfg);
  PacketTracer tracer(1u << 22);
  net.attach_tracer(tracer);
  const SimReport rep = net.run();
  ASSERT_GT(rep.packets_delivered, 100u);
  ASSERT_EQ(tracer.overflow(), 0u);

  // Walk every packet's record stream: created -> injected -> per-hop
  // (arrival, xbar, depart) -> delivered, strictly time-ordered.
  std::map<std::uint64_t, std::vector<const TraceRecord*>> by_packet;
  for (const auto& r : tracer.records()) {
    if (r.packet_id != 0) by_packet[r.packet_id].push_back(&r);
  }
  std::size_t delivered_with_history = 0;
  for (const auto& [id, recs] : by_packet) {
    // Packets still queued when the run ends may have only kCreated.
    EXPECT_EQ(recs.front()->event, TraceEvent::kCreated);
    for (std::size_t i = 1; i < recs.size(); ++i) {
      EXPECT_GE(recs[i]->when, recs[i - 1]->when) << "packet " << id;
    }
    if (recs.back()->event == TraceEvent::kDelivered) {
      ++delivered_with_history;
      // Hop structure: after injection, hops come in (arrival, xbar,
      // depart) triplets at switches.
      std::size_t arrivals = 0, departs = 0;
      for (const auto* r : recs) {
        arrivals += (r->event == TraceEvent::kHopArrival);
        departs += (r->event == TraceEvent::kLinkDepart);
      }
      EXPECT_EQ(arrivals, departs);
      EXPECT_GE(arrivals, 1u);  // at least the leaf switch
      EXPECT_LE(arrivals, 3u);  // at most leaf-spine-leaf
    }
  }
  EXPECT_GT(delivered_with_history, 100u);

  // Stage latency extraction is consistent with the metrics' packet count.
  const auto e2e = tracer.stage_latencies_us(TraceEvent::kCreated,
                                             TraceEvent::kDelivered);
  EXPECT_EQ(e2e.size(), delivered_with_history);
}

TEST(TraceIntegration, TtdSlackShrinksTowardDelivery) {
  // The recorded TTD at each hop departure must shrink monotonically for a
  // given packet (time passes; deadline stays) — direct evidence of §3.3's
  // re-encoding chain.
  SimConfig cfg;
  cfg.arch = SwitchArch::kIdeal;
  cfg.load = 0.3;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.num_spines = 2;
  cfg.warmup = 100_us;
  cfg.measure = 1_ms;
  cfg.drain = 1_ms;
  cfg.enable_best_effort = false;
  cfg.enable_background = false;
  NetworkSimulator net(cfg);
  PacketTracer tracer(1u << 20);
  net.attach_tracer(tracer);
  (void)net.run();
  std::map<std::uint64_t, Duration> last_ttd;
  int checked = 0;
  for (const auto& r : tracer.records()) {
    if (r.event != TraceEvent::kInjected && r.event != TraceEvent::kLinkDepart) {
      continue;
    }
    const auto it = last_ttd.find(r.packet_id);
    if (it != last_ttd.end()) {
      EXPECT_LE(r.ttd, it->second) << "packet " << r.packet_id;
      ++checked;
    }
    last_ttd[r.packet_id] = r.ttd;
  }
  EXPECT_GT(checked, 50);
}

TEST(TraceIntegration, AttachToShardedRunThrowsNamingSerialFlag) {
  // One unsynchronized buffer fed in event order cannot follow concurrent
  // shard drains: a sharded net refuses the tracer and says how to rerun.
  SimConfig cfg;
  cfg.topology = TopologyKind::kMesh2D;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.shards = 2;
  NetworkSimulator net(cfg);
  ASSERT_NE(net.shard_engine(), nullptr);
  PacketTracer tracer(16);
  try {
    net.attach_tracer(tracer);
    FAIL() << "attach_tracer accepted a sharded run";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--shards=1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dqos
