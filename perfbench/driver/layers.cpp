#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/network_simulator.hpp"
#include "host/deadline.hpp"
#include "qos/admission.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "switchfab/queue_discipline.hpp"
#include "switchfab/switch.hpp"
#include "topo/partition.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

using namespace dqos;

namespace {

/// Calls per driver for the per-call drivers (queue, argmin, stamp,
/// record): enough for a stable mean, small enough to stay well under a
/// second each.
constexpr std::uint64_t kCalls = 1u << 21;

/// Every driver folds its results in here, and the total is printed, so
/// the optimizer cannot drop the timed calls.
std::uint64_t g_sink = 0;

/// Hold model of the event calendar: a fixed population of pending
/// events; each firing schedules its successor a uniform random delay
/// ahead, with the mean chosen so events fire `gap_ps` apart on average —
/// the workload's own event density. Drained with drain_due() in steps.
struct HoldModel {
  Simulator sim;
  Rng rng;
  std::int64_t max_delay_ps;
  std::uint64_t fired = 0;

  void fire() {
    ++fired;
    const auto d = static_cast<std::int64_t>(
        rng.uniform_int(0, static_cast<std::uint64_t>(max_delay_ps)));
    sim.schedule_after(Duration::picoseconds(d), [this] { fire(); });
  }
};

double calendar_ns_per_event(std::uint64_t events, std::int64_t gap_ps,
                             std::uint32_t population, Rng rng,
                             SpanLog& log) {
  HoldModel h{Simulator{}, rng, 2 * gap_ps * population};
  for (std::uint32_t i = 0; i < population; ++i) {
    const auto t = static_cast<std::int64_t>(
        h.rng.uniform_int(0, static_cast<std::uint64_t>(h.max_delay_ps)));
    h.sim.schedule_at(TimePoint::from_ps(t), [&h] { h.fire(); });
  }
  const Duration step = Duration::picoseconds(gap_ps * population);
  ScopedSpan span(log, "sim.calendar");
  TimePoint limit = TimePoint::zero();
  while (h.fired < events) {
    limit += step;
    while (h.sim.drain_due(limit)) {
    }
  }
  const double s = span.end();
  g_sink += h.sim.events_pending();
  return s * 1e9 / static_cast<double>(h.fired);
}

/// One enqueue + candidate + dequeue round on a queue held at `depth`
/// packets, deadlines drawn as a host would stamp them: a local clock
/// advancing by each packet's wire time plus a random slack, so take-over
/// queues see out-of-order deadlines.
double queue_ns_per_op(QueueKind kind, std::uint32_t mtu, Bandwidth bw,
                       Rng rng, SpanLog& log) {
  constexpr std::size_t kDepth = 16;
  PacketPool pool;
  PacketQueue q(kind);
  q.reserve(kDepth + 1);
  TimePoint now = TimePoint::zero();
  const auto push = [&] {
    PacketPtr p = pool.make();
    p->hdr.wire_bytes = static_cast<std::uint32_t>(rng.uniform_int(64, mtu));
    now += bw.transfer_time(p->hdr.wire_bytes);
    p->local_deadline =
        now + Duration::picoseconds(static_cast<std::int64_t>(
                  rng.uniform_int(0, 20'000'000)));
    q.enqueue(std::move(p));
  };
  for (std::size_t i = 0; i < kDepth; ++i) push();
  ScopedSpan span(log, "switchfab.queue");
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    push();
    g_sink += q.candidate()->hdr.wire_bytes;
    g_sink += static_cast<std::uint64_t>(q.dequeue()->local_deadline.ps());
  }
  const double s = span.end();
  g_sink += q.takeovers() + q.order_errors();
  return s * 1e9 / static_cast<double>(kCalls);
}

/// simd::argmin_i64 over rows as wide as the widest switch's port count
/// (one VOQ candidate-cache row per output).
double argmin_ns(std::size_t width, Rng rng, SpanLog& log) {
  constexpr std::size_t kRows = 1024;
  std::vector<std::int64_t> rows(kRows * width);
  for (auto& v : rows) {
    v = static_cast<std::int64_t>(rng.uniform_int(0, 1'000'000'000));
  }
  ScopedSpan span(log, "switchfab.argmin");
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    g_sink += simd::argmin_i64(&rows[(i % kRows) * width], width);
  }
  return span.end() * 1e9 / static_cast<double>(kCalls);
}

/// DeadlineStamper::stamp for a virtual-clock flow with a quarter of the
/// link as its deadline bandwidth (the Table 1 share of one class).
double stamp_ns(std::uint32_t mtu, Bandwidth link, Rng rng, SpanLog& log) {
  FlowSpec spec;
  spec.policy = DeadlinePolicy::kVirtualClock;
  spec.deadline_bw = link.scaled(0.25);
  DeadlineStamper stamper(spec);
  std::vector<std::uint32_t> sizes(1024);
  for (auto& s : sizes) {
    s = static_cast<std::uint32_t>(rng.uniform_int(64, mtu));
  }
  TimePoint now = TimePoint::zero();
  ScopedSpan span(log, "host.stamp");
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const std::uint32_t bytes = sizes[i % sizes.size()];
    now += link.transfer_time(bytes);
    g_sink += static_cast<std::uint64_t>(stamper.stamp(now, bytes).ps());
  }
  return span.end() * 1e9 / static_cast<double>(kCalls);
}

/// MetricsCollector::on_packet_delivered over a window that holds every
/// sample, classes in rotation, latencies and slack drawn at random.
double record_ns(Rng rng, SpanLog& log) {
  MetricsCollector m;
  m.set_window(TimePoint::zero(), TimePoint::max());
  m.reserve_samples(kCalls / kNumTrafficClasses + 64, 0);
  std::vector<Packet> pkts(1024);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkts[i].hdr.tclass = static_cast<TrafficClass>(i % kNumTrafficClasses);
    pkts[i].hdr.wire_bytes =
        static_cast<std::uint32_t>(rng.uniform_int(64, 2048));
  }
  std::vector<std::int64_t> lat(1024);
  for (auto& l : lat) {
    l = static_cast<std::int64_t>(rng.uniform_int(1'000'000, 100'000'000));
  }
  TimePoint now = TimePoint::zero();
  ScopedSpan span(log, "stats.record");
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    Packet& p = pkts[i % pkts.size()];
    now += Duration::nanoseconds(10);
    p.t_created = now;
    const Duration l = Duration::picoseconds(lat[i % lat.size()]);
    m.on_packet_delivered(p, now + l, Duration::picoseconds(50'000'000) - l);
  }
  const double s = span.end();
  g_sink += m.report(TrafficClass::kControl).packets;
  return s * 1e9 / static_cast<double>(kCalls);
}

/// AdmissionController::admit then release on the workload's topology,
/// flat or hierarchical as the workload configures it: four video-class
/// flows per host, each reserving 1% of a link, to random peers. Rounds
/// (a fresh controller each) repeat for at least 0.1 s; the span covers
/// them all, and admit and release are timed apart within each round.
void admission_us(const Topology& topo, const SimConfig& cfg, Rng rng,
                  SpanLog& log, double& admit_us, double& release_us) {
  const std::uint32_t hosts = topo.num_hosts();
  std::vector<FlowRequest> reqs;
  for (NodeId h = 0; h < hosts; ++h) {
    for (int k = 0; k < 4; ++k) {
      FlowRequest r;
      r.src = h;
      r.dst = static_cast<NodeId>(
          (h + 1 + rng.uniform_int(0, hosts - 2)) % hosts);
      r.tclass = TrafficClass::kMultimedia;
      r.policy = DeadlinePolicy::kFrameBudget;
      r.reserve_bw = cfg.link_bw.scaled(0.01);
      reqs.push_back(r);
    }
  }
  std::vector<FlowId> ids;
  ids.reserve(reqs.size());
  double admit_s = 0.0;
  double release_s = 0.0;
  std::uint64_t admits = 0;
  std::uint64_t releases = 0;
  ScopedSpan span(log, "qos.admission");
  const Clock::time_point t0 = Clock::now();
  while (admits == 0 || seconds_since(t0) < 0.1) {
    AdmissionController ac(topo, cfg.link_bw, cfg.reservable_fraction,
                           cfg.hier_admission);
    ids.clear();
    const Clock::time_point a0 = Clock::now();
    for (const FlowRequest& r : reqs) {
      if (const auto spec = ac.admit(r)) ids.push_back(spec->id);
    }
    admit_s += seconds_since(a0);
    const Clock::time_point r0 = Clock::now();
    for (const FlowId id : ids) ac.release(id);
    release_s += seconds_since(r0);
    admits += reqs.size();
    releases += ids.size();
  }
  span.end();
  admit_us = admit_s * 1e6 / static_cast<double>(admits);
  release_us = release_s * 1e6 /
               static_cast<double>(std::max<std::uint64_t>(releases, 1));
  g_sink += releases;
}

/// partition_topology at 4 shards, repeated for at least 0.1 s.
double partition_ms(const Topology& topo, SpanLog& log) {
  ScopedSpan span(log, "topo.partition");
  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  while (reps < 3 || seconds_since(t0) < 0.1) {
    g_sink += partition_topology(topo, 4).node_shard.size();
    ++reps;
  }
  return span.end() * 1e3 / reps;
}

}  // namespace

void run_layer_drivers(const Workload& w, std::uint64_t events, SpanLog& log,
                       JsonObject& out) {
  // The platform is built only for its topology; a serial build keeps
  // shard workers from spinning while the drivers run.
  SimConfig serial = w.cfg;
  serial.shards = 1;
  NetworkSimulator net(serial);
  const Topology& topo = net.topology();
  const Rng seed_rng(w.cfg.seed);
  std::size_t width = 1;
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    width = std::max(width, topo.num_ports(topo.switch_id(s)));
  }
  const std::int64_t horizon_ps =
      (w.cfg.warmup + w.cfg.measure + w.cfg.drain).ps();
  const auto event_count =
      static_cast<std::int64_t>(std::max<std::uint64_t>(events, 1));
  const std::int64_t gap_ps =
      std::max<std::int64_t>(1, horizon_ps / event_count);
  const auto population = static_cast<std::uint32_t>(net.num_channels());

  ScopedSpan root(log, "layers");
  out.put("sim.cal_ns_per_event",
          calendar_ns_per_event(events, gap_ps, population,
                                seed_rng.split(1), log));
  out.put("switchfab.queue_ns_per_op",
          queue_ns_per_op(queue_kind_for(w.cfg.arch), w.cfg.mtu_bytes,
                          w.cfg.link_bw, seed_rng.split(2), log));
  out.put("switchfab.argmin_ns", argmin_ns(width, seed_rng.split(3), log));
  out.put("host.stamp_ns",
          stamp_ns(w.cfg.mtu_bytes, w.cfg.link_bw, seed_rng.split(4), log));
  out.put("stats.record_ns", record_ns(seed_rng.split(5), log));
  double admit_us = 0.0;
  double release_us = 0.0;
  admission_us(topo, w.cfg, seed_rng.split(6), log, admit_us, release_us);
  out.put("qos.admit_us", admit_us);
  out.put("qos.release_us", release_us);
  out.put("topo.partition_ms", partition_ms(topo, log));
  root.end();
  out.put("layers.checksum", g_sink);
}

}  // namespace perfbench
