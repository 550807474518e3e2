/// \file host.hpp
/// End-host network interface (§3.2, "the organization of end-hosts").
///
/// Send path (EDF mode — all EDF-based architectures):
///   application frame -> MTU fragmentation -> per-flow deadline stamping ->
///   regulated VC: an eligible-time-ordered queue feeding a
///   deadline-ordered ready queue ("as soon as the first packet in the
///   queue is eligible, it goes to another queue where packets are sorted
///   according to ascending deadlines"); best-effort VC: deadline-ordered,
///   injected only when the link is free, credits exist, and the regulated
///   VC has nothing ready.
/// In FIFO mode (Traditional architecture) the NIC keeps plain FIFO queues
/// per VC and ignores deadlines/eligible times, like a PCI AS endpoint.
///
/// Receive path: packets are consumed immediately (credits return at wire
/// latency), per-flow sequence is checked (out-of-order delivery must never
/// happen — paper appendix), and message completion is reported for
/// frame-level latency metrics.
///
/// Unregulated overload: best-effort flows have "no guarantee of delivery";
/// when the NIC's unregulated backlog exceeds a cap the submission is
/// dropped and counted (open-loop sources would otherwise grow memory
/// without bound).
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "host/deadline.hpp"
#include "util/dense_flow_table.hpp"
#include "proto/packet_heap.hpp"
#include "proto/packet_pool.hpp"
#include "qos/flow.hpp"
#include "qos/token_bucket.hpp"
#include "util/stats.hpp"
#include "switchfab/arbiter.hpp"
#include "switchfab/channel.hpp"
#include "trace/tracer.hpp"

namespace dqos {

struct HostParams {
  std::uint8_t num_vcs = 2;
  std::uint32_t mtu_bytes = 2048;  ///< max payload per packet (§3.1 example)
  bool edf_queues = true;          ///< false = Traditional FIFO endpoint
  /// Weighted VC arbitration at the injection link (Traditional multi-VC
  /// ablation); empty = strict priority.
  std::vector<std::uint32_t> vc_weights;
  /// Drop threshold for unregulated (VC != 0) backlog, in packets,
  /// applied **per traffic class** (each aggregated best-effort class gets
  /// its own quota, so a backlogged class cannot crowd out its siblings'
  /// acceptance — the EDF deadline weights then govern service).
  std::size_t best_effort_queue_cap = 4096;
  /// Deadline expiry at the injection point (overload degradation, opt-in):
  /// a regulated packet whose deadline has already passed when it reaches
  /// the head of the ready queue is dropped instead of transmitted — it
  /// cannot arrive in time, so sending it only steals bandwidth from
  /// packets that still can ("skip it, already late"). EDF mode only.
  bool expiry_drop = false;
  /// With expiry_drop: a flow whose expired fraction (expired packets over
  /// packets reaching the injection decision) exceeds this ratio is aborted
  /// outright — its queue purged and future submissions refused — freeing
  /// its bandwidth for flows still meeting deadlines. 0 = never abort.
  double expiry_abort_ratio = 0.0;
};

/// Per-delivered-packet observer. `now` is global time; `slack` is the
/// remaining time-to-deadline at delivery (negative = the packet missed
/// its deadline), computed in the receiving host's clock domain.
using PacketDeliveredFn =
    std::function<void(const Packet& pkt, TimePoint now, Duration slack)>;
/// Message (application frame / transfer) fully delivered.
struct MessageDelivered {
  FlowId flow;
  TrafficClass tclass;
  TimePoint created;
  TimePoint completed;
  std::uint64_t bytes;
  std::uint32_t message_id;  ///< source-assigned (acks for control retry)
};
using MessageDeliveredFn = std::function<void(const MessageDelivered&)>;
/// A regulated packet expired unsent at the injection point (expiry_drop).
using PacketExpiredFn = std::function<void(const Packet& pkt, TimePoint now)>;
/// A flow was aborted because its expiry ratio crossed expiry_abort_ratio.
using FlowAbortedFn = std::function<void(FlowId flow)>;

class Host final : public PacketReceiver {
 public:
  Host(Simulator& sim, NodeId id, const HostParams& params, LocalClock clock,
       PacketPool& pool);

  void attach_uplink(Channel* to_switch);      ///< host -> leaf switch
  void attach_downlink(Channel* from_switch);  ///< leaf switch -> host

  void set_packet_callback(PacketDeliveredFn fn) { on_packet_ = std::move(fn); }
  /// Optional packet-event tracing (null = off, zero cost).
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }
  void set_message_callback(MessageDeliveredFn fn) { on_message_ = std::move(fn); }
  void set_expired_callback(PacketExpiredFn fn) { on_expired_ = std::move(fn); }
  void set_flow_aborted_callback(FlowAbortedFn fn) {
    on_flow_aborted_ = std::move(fn);
  }

  /// Registers an admitted flow originating at this host.
  void open_flow(const FlowSpec& spec);

  /// --- fault handling ------------------------------------------------------
  /// Replaces the fixed route of an open flow (admission rerouted it around
  /// a failed link). Packets already queued in the NIC are re-stamped with
  /// the new route; packets already in the fabric are beyond help.
  void update_flow_route(FlowId flow, const SourceRoute& route, std::size_t choice);
  /// Shuts an open flow whose reservation was shed (no surviving path):
  /// queued packets are purged and future submissions are refused (counted
  /// in shed_submissions()).
  void close_flow(FlowId flow);
  /// Fault injection: per-host clock drift (replaces the LocalClock skew).
  void set_clock_offset(Duration offset) { clock_ = LocalClock(offset); }

  /// Removes a departed flow (mid-run churn): the flow-table entry is
  /// erased — packets already queued or in flight drain and deliver
  /// normally (the pump and receive paths never consult the table) — and
  /// the flow's deadline stamper is dropped with its last user. The caller
  /// must stop the flow's source first: submitting to a retired flow is a
  /// contract violation. Works on live and shed (close_flow) flows alike.
  /// Returns the flow's destination so the caller can reclaim the receive
  /// side too (purge_rx_flow on that host).
  NodeId retire_flow(FlowId flow);

  /// Receive-side reclamation for a retired flow (call on the flow's
  /// *destination* host, after retire_flow at the source): drops any
  /// partial-message progress and tombstones the sequence record so
  /// straggler packets still draining from the fabric cannot resurrect
  /// per-flow tracking. One 16-byte tombstone per retired flow remains —
  /// bounded by the flows this host ever received, not by the global flow
  /// counter. Without this hook a churn workload ratchets rx memory for
  /// the rest of the run.
  void purge_rx_flow(FlowId flow);

  /// End-to-end retry for control-class messages: when enabled, a control
  /// submission that is not acknowledged (on_message_acked) within
  /// `timeout << attempt` is resubmitted as a fresh message, up to
  /// `max_retries` times, then abandoned. Lossless fabrics never ack late,
  /// so this is inert without fault injection.
  struct RetryParams {
    Duration timeout = Duration::zero();
    std::uint32_t max_retries = 0;
  };
  void enable_control_retry(const RetryParams& params);
  /// Destination completed (flow, message_id) — cancels the pending retry.
  void on_message_acked(FlowId flow, std::uint32_t message_id);

  /// Receiver-side per-flow observation (opt-in; global metrics stay
  /// aggregate). Call on the *destination* host of the flow.
  struct FlowWatch {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    StreamingStats latency_us;
  };
  void watch_flow(FlowId flow) { watched_.get_or_insert(flow); }
  /// nullptr if the flow is not watched here. Invalidated by watch_flow.
  [[nodiscard]] const FlowWatch* flow_watch(FlowId flow) const {
    return watched_.find(flow);
  }

  /// Application hands over a message (control message, video frame,
  /// best-effort transfer) of `bytes` payload. Returns false if dropped
  /// (unregulated backlog cap).
  bool submit(FlowId flow, std::uint64_t bytes);

  void receive_packet(PacketPtr p, PortId in_port) override;

  [[nodiscard]] NodeId id() const { return id_; }
  /// This node's event lane (DESIGN.md §12): the host, its traffic
  /// sources and its channels' ends all schedule under it.
  [[nodiscard]] EventLane& lane() { return lane_; }
  [[nodiscard]] const LocalClock& clock() const { return clock_; }

  // --- introspection / statistics ---
  [[nodiscard]] std::uint64_t packets_injected() const { return injected_; }
  [[nodiscard]] std::uint64_t bytes_injected() const { return bytes_injected_; }
  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t out_of_order_deliveries() const { return ooo_; }
  [[nodiscard]] std::uint64_t best_effort_drops() const { return be_drops_; }
  /// Regulated messages shed by ingress policing (token bucket, A9).
  [[nodiscard]] std::uint64_t policed_drops() const { return policed_drops_; }
  [[nodiscard]] std::size_t queued_packets() const;
  [[nodiscard]] std::size_t eligible_waiting() const { return eligible_q_.size(); }
  /// Control messages resubmitted after an ack timeout.
  [[nodiscard]] std::uint64_t control_retries() const { return retries_; }
  /// Control messages given up on after max_retries unacked attempts.
  [[nodiscard]] std::uint64_t control_retries_abandoned() const {
    return retries_abandoned_;
  }
  /// Submissions refused because the flow was shed (close_flow), plus
  /// packets purged from the NIC queues at shedding time.
  [[nodiscard]] std::uint64_t shed_submissions() const { return shed_submissions_; }
  /// Regulated packets dropped already-late at the injection point.
  [[nodiscard]] std::uint64_t expired_packets() const { return expired_packets_; }
  [[nodiscard]] std::uint64_t expired_bytes() const { return expired_bytes_; }
  /// Flows aborted by the expiry-ratio threshold (expiry_abort_ratio).
  [[nodiscard]] std::uint64_t flows_aborted() const { return flows_aborted_; }
  /// Expired-packet count of one open flow (0 if unknown/retired) — the
  /// video source consults this to drop late B-frames at the application.
  [[nodiscard]] std::uint64_t flow_expired_packets(FlowId flow) const {
    const FlowState* fs = flows_.find(flow);
    return fs == nullptr ? 0 : fs->expired_packets;
  }

 private:
  struct FlowState {
    FlowSpec spec;
    FlowId stamper_key;  ///< == spec.aggregate for aggregated flows
    std::uint32_t next_seq = 0;
    std::uint32_t next_message = 1;
    std::unique_ptr<TokenBucket> policer;  ///< non-null iff spec.police
    bool closed = false;                   ///< shed by fault re-routing/abort
    // expiry accounting (expiry_drop mode; zero-cost otherwise)
    std::uint64_t sent_packets = 0;     ///< reached injection and transmitted
    std::uint64_t expired_packets = 0;  ///< reached injection already late
    std::uint64_t expired_bytes = 0;
  };
  /// Queues `p` on `h` under `key` (eligible time or deadline), with the
  /// host-wide arrival counter breaking key ties.
  void push_entry(PacketHeap& h, TimePoint key, PacketPtr p) {
    h.push(key, next_qseq_++, std::move(p));
  }

  /// Moves newly eligible packets, then tries to start one injection.
  void pump();
  /// Drops one already-late regulated packet (expiry_drop): accounts it,
  /// notifies observers, retires it to the pool, and aborts the flow when
  /// its expiry ratio crosses the configured threshold.
  void expire_packet(PacketPtr p, TimePoint now);
  /// One arbitration decision: if `vc` has a transmittable head packet and
  /// credits, injects it and schedules the next pump. Returns whether the
  /// link was taken (the caller's VC scan stops there).
  bool inject_from_vc(VcId vc, TimePoint now);
  void schedule_eligible_wakeup();
  /// Shared by submit() (attempt 0) and retry timeouts (attempt > 0).
  bool do_submit(FlowId flow, std::uint64_t bytes, std::uint32_t attempt);
  void arm_retry(FlowId flow, std::uint32_t message_id, std::uint64_t bytes,
                 std::uint32_t attempt);
  void retry_timeout(std::uint64_t key);

  Simulator& sim_;
  NodeId id_;
  EventLane lane_;  ///< entity 1 + id_: shared with sources and channels
  HostParams params_;
  LocalClock clock_;
  PacketPool& pool_;
  Channel* uplink_ = nullptr;
  Channel* downlink_ = nullptr;

  /// Per-flow send state, dense (DESIGN.md §13): churn-heavy runs open and
  /// retire thousands of flows, and node-per-entry hash maps both ratchet
  /// memory and scatter the hot do_submit lookup across the heap.
  DenseFlowTable<FlowState> flows_;
  DenseFlowTable<DeadlineStamper> stampers_;  ///< keyed by stamper_key
  PacketHeap eligible_q_;              ///< regulated, waiting for eligibility
  std::vector<PacketHeap> ready_q_;    ///< per VC, deadline-ordered (EDF mode)
  std::vector<std::deque<PacketPtr>> fifo_q_;  ///< per VC (FIFO mode)
  /// Non-null only under weighted arbitration. Null means strict VC
  /// priority (the paper architectures), which pump() runs as a plain
  /// VC0-first loop — no virtual order/granted calls per injection.
  std::unique_ptr<WeightedVcPolicy> weighted_vc_;
  std::vector<VcId> vc_order_scratch_;  ///< pump() hot-path scratch
  TimePoint link_busy_until_;
  EventId eligible_wakeup_ = 0;
  TimePoint eligible_wakeup_at_ = TimePoint::max();
  std::uint64_t next_qseq_ = 0;
  std::uint64_t next_packet_id_;

  // receive-side state
  /// rx_seq_ tombstone: the flow was retired and purged; stragglers still
  /// deliver (and count) but never restart sequence/message tracking.
  static constexpr std::int64_t kRetiredSeq =
      std::numeric_limits<std::int64_t>::min();
  /// Highest flow_seq delivered per flow this host has received (absent =
  /// nothing delivered yet; kRetiredSeq tombstone = flow retired, tracking
  /// purged). A dense table sized by *this host's* receive set — the flat
  /// vector it replaces was indexed by the global flow counter, so every
  /// host paid 8 bytes per flow anyone ever opened.
  DenseFlowTable<std::int64_t> rx_seq_;
  struct MessageProgress {
    std::uint16_t parts_left;
    std::uint64_t bytes = 0;
    TimePoint created;
  };
  /// In-progress multi-part messages, keyed (flow << 32) | message_id.
  /// Completed messages erase themselves; purge_rx_flow reaps partials of
  /// retired flows and shrinks the bucket array below its high-water mark.
  std::unordered_map<std::uint64_t, MessageProgress> rx_messages_;
  DenseFlowTable<FlowWatch> watched_;

  PacketTracer* tracer_ = nullptr;
  PacketDeliveredFn on_packet_;
  MessageDeliveredFn on_message_;
  PacketExpiredFn on_expired_;
  FlowAbortedFn on_flow_aborted_;
  std::uint64_t injected_ = 0;
  std::uint64_t bytes_injected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t ooo_ = 0;
  std::uint64_t be_drops_ = 0;
  std::uint64_t policed_drops_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retries_abandoned_ = 0;
  std::uint64_t shed_submissions_ = 0;
  std::uint64_t expired_packets_ = 0;
  std::uint64_t expired_bytes_ = 0;
  std::uint64_t flows_aborted_ = 0;
  /// Unacked control messages, keyed (flow << 32) | message_id.
  struct PendingRetry {
    std::uint64_t bytes;
    std::uint32_t attempt;
    EventId timer;
  };
  std::optional<RetryParams> retry_;
  std::unordered_map<std::uint64_t, PendingRetry> pending_retry_;
  /// Unregulated NIC backlog per traffic class (quota accounting).
  std::array<std::size_t, kNumTrafficClasses> unreg_backlog_{};
};

}  // namespace dqos
