/// \file metrics.hpp
/// Network-wide performance metrics, collected with the global observer
/// clock (never visible to any scheduling decision).
///
/// The paper's §5 indices per traffic class:
///   - throughput        — delivered bytes / measurement window,
///   - latency           — end-to-end per packet (creation -> delivery),
///                         and per *message* for multimedia (whole video
///                         frames) and best-effort transfers,
///   - jitter            — standard deviation of latency,
///   - CDF of latency    — P[latency <= x] curves,
/// plus maximum latency ("the closing vertical line in the CDF figure").
///
/// Only traffic *created inside* the measurement window is counted, so
/// warm-up transients and drain-phase tails don't bias the numbers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "proto/packet.hpp"
#include "proto/types.hpp"
#include "sim/shard_link.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace dqos {

/// Aggregated per-class results, in convenient printable units.
struct ClassReport {
  TrafficClass tclass = TrafficClass::kControl;
  std::uint64_t packets = 0;
  std::uint64_t messages = 0;
  double throughput_bytes_per_sec = 0.0;
  double offered_bytes_per_sec = 0.0;  ///< injected into NIC queues
  double avg_packet_latency_us = 0.0;
  double max_packet_latency_us = 0.0;
  double jitter_us = 0.0;  ///< stddev of packet latency
  double p99_packet_latency_us = 0.0;
  double p999_packet_latency_us = 0.0;
  double avg_message_latency_us = 0.0;
  double max_message_latency_us = 0.0;
  double p99_message_latency_us = 0.0;
  /// EDF view: fraction of packets delivered past their deadline tag, and
  /// the mean remaining budget (us; negative = late on average).
  double deadline_miss_fraction = 0.0;
  double avg_slack_us = 0.0;
  /// Packets shed inside the fabric (failed-link drops; whole run, since
  /// faults strike outside the measurement window too). Zero without fault
  /// injection: credit flow control never drops.
  std::uint64_t dropped_packets = 0;
  // --- overload SLO view (EXPERIMENTS.md O1) ------------------------------
  /// Packets dropped already-late at the source NIC (Host expiry_drop).
  std::uint64_t expired_packets = 0;
  std::uint64_t expired_bytes = 0;
  /// Delivered bytes that arrived *before* their deadline (slack >= 0) over
  /// the window: throughput that was actually worth delivering.
  double goodput_bytes_per_sec = 0.0;
  /// The SLO miss rate: packets that failed their deadline either way —
  /// delivered late or expired unsent — over all deadline decisions.
  double deadline_miss_rate = 0.0;
};

class MetricsCollector {
 public:
  MetricsCollector();

  /// Only samples with creation time in [start, end) are recorded.
  void set_window(TimePoint start, TimePoint end);

  /// Pre-sizes the per-class latency sample stores from config-derived
  /// traffic estimates so the measurement phase never reallocates a
  /// multi-megabyte vector mid-run (the growth copy used to show up as a
  /// periodic latency spike in event-rate profiles). Over-estimates cost
  /// only address space: SampleSet clamps at its reservoir cap.
  void reserve_samples(std::size_t packets_per_class,
                       std::size_t messages_per_class);
  [[nodiscard]] TimePoint window_start() const { return start_; }
  [[nodiscard]] TimePoint window_end() const { return end_; }

  /// Arms per-phase sub-windows (scenario engine): `starts` are absolute
  /// phase boundaries, sorted ascending; the first must equal the window
  /// start and the last must precede the window end (phase i spans
  /// [starts[i], starts[i+1]), the final phase runs to the window end).
  /// Call after set_window and before traffic flows. Single-phase runs
  /// never call this, so the per-sample hooks stay branch-cheap.
  void set_phase_starts(std::vector<TimePoint> starts);
  [[nodiscard]] std::size_t num_phases() const { return phases_.size(); }
  /// Per-phase analogue of report(): same indices over the phase's
  /// sub-window. dropped_packets stays 0 per phase — the switch drop hook
  /// carries no creation timestamp to attribute a drop to a phase; use
  /// the whole-run report for drops.
  [[nodiscard]] ClassReport phase_report(std::size_t phase, TrafficClass c) const;

  /// Hooks — wire these to the Hosts' callbacks. `slack` is the remaining
  /// time-to-deadline at delivery (negative = missed).
  void on_packet_delivered(const Packet& p, TimePoint now,
                           Duration slack = Duration::zero());
  void on_message_delivered(TrafficClass tclass, TimePoint created,
                            std::uint64_t bytes, TimePoint completed);
  /// Offered load accounting (called at submission).
  void on_message_offered(TrafficClass tclass, std::uint64_t bytes, TimePoint now);
  /// A switch shed a packet (failed link). Counted over the whole run.
  void on_packet_dropped(TrafficClass tclass);
  /// A source NIC dropped a packet already past its deadline (expiry_drop).
  /// Unlike fabric drops the packet is at hand, so expiry is attributed to
  /// the phase that created it.
  void on_packet_expired(const Packet& p);

  // --- sharded execution relay (DESIGN.md §12) ---------------------------
  /// Turns this instance into a per-shard relay for `primary`: while
  /// `*window_active` the hooks defer DeferredEffect records into `log`
  /// instead of touching any accumulator (the engine applies them on the
  /// primary, in merged global fire order, at the window barrier); outside
  /// windows they forward to the primary directly. The relay itself holds
  /// no samples. Window filtering happens at replay/forward time on the
  /// primary — every record carries its own timestamps, so the outcome is
  /// bit-identical to the serial call sequence.
  void set_relay(MetricsCollector* primary, ShardWindowLog* log,
                 const bool* window_active);
  /// Replays one deferred record on this (primary) collector.
  void apply(const DeferredEffect& e);

  [[nodiscard]] ClassReport report(TrafficClass c) const;

  /// Raw sample access for CDF curves.
  [[nodiscard]] const SampleSet& packet_latency(TrafficClass c) const {
    return pkt_latency_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const SampleSet& message_latency(TrafficClass c) const {
    return msg_latency_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t delivered_bytes(TrafficClass c) const {
    return bytes_delivered_[static_cast<std::size_t>(c)];
  }

 private:
  /// One phase's sub-window accumulators (mirrors the aggregate stores;
  /// phases add *in addition to* the aggregates, never instead).
  struct PhaseStore {
    TimePoint start;
    TimePoint end;
    std::array<SampleSet, kNumTrafficClasses> pkt_latency;
    std::array<SampleSet, kNumTrafficClasses> msg_latency;
    std::array<std::uint64_t, kNumTrafficClasses> bytes_delivered{};
    std::array<std::uint64_t, kNumTrafficClasses> bytes_offered{};
    std::array<std::uint64_t, kNumTrafficClasses> messages{};
    std::array<StreamingStats, kNumTrafficClasses> slack_us{};
    std::array<std::uint64_t, kNumTrafficClasses> deadline_misses{};
    std::array<std::uint64_t, kNumTrafficClasses> expired_packets{};
    std::array<std::uint64_t, kNumTrafficClasses> expired_bytes{};
    std::array<std::uint64_t, kNumTrafficClasses> goodput_bytes{};
  };

  [[nodiscard]] bool in_window(TimePoint created) const {
    return created >= start_ && created < end_;
  }
  /// Phase containing `t` (caller guarantees t is inside the window);
  /// null when no phases are armed.
  [[nodiscard]] PhaseStore* phase_of(TimePoint t) {
    if (phases_.empty()) return nullptr;
    std::size_t i = phases_.size() - 1;
    while (i > 0 && t < phases_[i].start) --i;
    return &phases_[i];
  }

  /// Shared accumulator bodies (primary-side): the public hooks and the
  /// replay path both land here.
  void record_packet_delivered(TrafficClass tclass, std::uint32_t size,
                               TimePoint created, TimePoint now,
                               Duration slack);
  void record_packet_expired(TrafficClass tclass, std::uint32_t size,
                             TimePoint created);

  TimePoint start_ = TimePoint::zero();
  TimePoint end_ = TimePoint::max();
  // relay wiring (null for a normal collector)
  MetricsCollector* relay_primary_ = nullptr;
  ShardWindowLog* relay_log_ = nullptr;
  const bool* relay_window_ = nullptr;
  std::vector<PhaseStore> phases_;  ///< empty unless set_phase_starts ran
  std::array<SampleSet, kNumTrafficClasses> pkt_latency_;   // microseconds
  std::array<SampleSet, kNumTrafficClasses> msg_latency_;   // microseconds
  std::array<std::uint64_t, kNumTrafficClasses> bytes_delivered_{};
  std::array<std::uint64_t, kNumTrafficClasses> bytes_offered_{};
  std::array<std::uint64_t, kNumTrafficClasses> messages_{};
  std::array<StreamingStats, kNumTrafficClasses> slack_us_{};
  std::array<std::uint64_t, kNumTrafficClasses> deadline_misses_{};
  std::array<std::uint64_t, kNumTrafficClasses> dropped_{};
  std::array<std::uint64_t, kNumTrafficClasses> expired_packets_{};
  std::array<std::uint64_t, kNumTrafficClasses> expired_bytes_{};
  std::array<std::uint64_t, kNumTrafficClasses> goodput_bytes_{};
};

}  // namespace dqos
