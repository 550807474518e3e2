/// \file channel.hpp
/// A directed network channel with credit-based flow control.
///
/// High-speed interconnects never drop packets: the sender only transmits
/// when it holds byte credits for the receiver's input buffer (§2.2, §5:
/// "no packets are dropped due to the use of credit-based flow control").
/// A Channel models one direction of a physical link:
///   - sender-side credit counters, one per VC, initialized to the
///     downstream per-VC buffer capacity;
///   - serialization at the link bandwidth plus a fixed propagation +
///     downstream-processing latency;
///   - the credit-return path (the reverse wire), modelled as the same
///     fixed latency applied to credit symbols.
///
/// Fault model (the lossless assumption, relaxed): a channel can be taken
/// down (transiently or permanently), lose credit symbols on the reverse
/// wire, or corrupt a TTD tag in transit. Recovery is a credit-resync
/// watchdog: the sender tracks bytes in flight in both directions, and
/// after a configurable silence window re-derives its credit counter from
/// the conservation invariant
///
///   credits + in_flight_packets + downstream_occupancy + credits_in_flight
///     == capacity
///
/// restoring exactly what was lost. All fault machinery is opt-in: a
/// default-constructed channel schedules no extra events and behaves
/// bit-identically to the lossless model.
#pragma once

#include <vector>

#include "proto/packet_pool.hpp"
#include "proto/types.hpp"
#include "sim/shard_link.hpp"
#include "sim/simulator.hpp"
#include "util/callback.hpp"
#include "util/time.hpp"

namespace dqos {

class ShardExecutor;

/// Anything that can accept packets from a channel (switches and hosts).
class PacketReceiver {
 public:
  virtual ~PacketReceiver() = default;
  virtual void receive_packet(PacketPtr p, PortId in_port) = 0;
};

class Channel {
 public:
  /// `credits_per_vc` must equal the downstream input buffer's per-VC
  /// capacity for flow control to be lossless and deadlock-free.
  Channel(Simulator& sim, Bandwidth bw, Duration latency, std::uint8_t num_vcs,
          std::uint32_t credits_per_vc);

  void connect_to(PacketReceiver* dst, PortId dst_port);

  /// Event lanes (DESIGN.md §12): arrivals and the resync timer are keyed
  /// by the sending node's lane, credit returns by the receiving node's.
  /// Wired by the endpoints' attach calls; an unattached side schedules
  /// under its calendar's entity-0 lane.
  void set_sender_lane(EventLane* lane) { send_lane_ = lane; }
  void set_receiver_lane(EventLane* lane) { recv_lane_ = lane; }

  /// Called by the sender when fresh credits arrive (to retry arbitration).
  /// Also invoked on repair() so stalled senders resume draining. The
  /// context pointer must outlive this channel's event activity.
  void set_on_credit(Callback<void()> cb) { on_credit_ = cb; }

  // --- sender-side credit view ---
  [[nodiscard]] bool has_credits(VcId vc, std::uint32_t bytes) const {
    return credits_[vc] >= static_cast<std::int64_t>(bytes);
  }
  [[nodiscard]] std::int64_t credits(VcId vc) const { return credits_[vc]; }
  void consume_credits(VcId vc, std::uint32_t bytes);

  /// Called by the *receiver* when it frees `bytes` of VC buffer space.
  /// The credits become visible to the sender after the wire latency.
  ///
  /// Returns landing at the same delivery instant on the same VC are
  /// **coalesced** (DESIGN.md §11): the bytes fold into the newest pending
  /// batch and no second calendar event is scheduled — one flush per
  /// (channel, vc, instant) instead of one per packet. Cumulative byte
  /// counts, the credits_in_flight audit view, and the sender-visible
  /// delivery times are identical to the per-packet model; in fault-free
  /// runs same-instant returns never occur, so the event stream (and the
  /// golden fire-order hash) is unchanged.
  void return_credits(VcId vc, std::uint32_t bytes);

  /// Time the link needs to serialize `bytes`.
  [[nodiscard]] Duration serialization_time(std::uint32_t bytes) const {
    return bw_.transfer_time(bytes);
  }
  [[nodiscard]] Bandwidth bandwidth() const { return bw_; }
  [[nodiscard]] Duration latency() const { return latency_; }
  [[nodiscard]] std::uint8_t num_vcs() const {
    return static_cast<std::uint8_t>(credits_.size());
  }
  [[nodiscard]] std::uint32_t credits_per_vc() const { return capacity_; }

  /// Ships a packet departing *now*: the receiver gets it at
  /// now + serialization + latency. The caller is responsible for keeping
  /// its output busy for the serialization time (crossbar/link occupancy).
  /// If the link is down the packet is dropped and counted (the consumed
  /// credits stay consumed until resync restores them).
  void send(PacketPtr p);

  // --- link fault state -----------------------------------------------
  [[nodiscard]] bool is_up() const { return up_; }
  [[nodiscard]] bool failed_permanently() const { return !up_ && permanent_; }
  /// Takes the link down. Packets already serialized onto the wire still
  /// arrive; subsequent send() calls drop.
  void fail(bool permanent);
  /// Brings a transiently-failed link back; kicks the sender via the
  /// on_credit callback so stalled arbitration resumes.
  void repair();

  /// Fault injection: `bytes` of credit symbols vanish from the reverse
  /// wire (sender-side counter decremented, receiver never knows). Returns
  /// the bytes actually lost (clamped at the current counter).
  std::uint32_t lose_credits(VcId vc, std::uint32_t bytes);

  /// Fault injection: the next packet sent carries a TTD skewed by `delta`.
  void corrupt_next_ttd(Duration delta);

  // --- credit-resync protocol -------------------------------------------
  /// The receiver-side occupancy oracle (bytes queued downstream for a VC);
  /// wired by Switch::attach_input. Unset = downstream consumes instantly
  /// (hosts), occupancy 0.
  void set_occupancy_probe(Callback<std::uint64_t(VcId)> probe) {
    occupancy_probe_ = probe;
  }
  /// Arms the periodic resync check: every `silence_window`, any VC with no
  /// credit activity for at least that long has its counter re-derived from
  /// the conservation invariant. Self-rescheduling until `horizon`.
  void enable_credit_resync(Duration silence_window, TimePoint horizon);

  // --- occupancy statistics ---
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t credits_lost() const { return credits_lost_; }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  [[nodiscard]] std::uint64_t resynced_bytes() const { return resynced_bytes_; }
  [[nodiscard]] std::uint64_t ttd_corruptions() const { return ttd_corruptions_; }

  // --- auditor view (fault/auditor.hpp) -----------------------------------
  /// Bytes serialized onto the wire and not yet delivered, per VC.
  [[nodiscard]] std::int64_t in_flight_bytes(VcId vc) const {
    return in_flight_bytes_[vc];
  }
  /// Credit bytes on the reverse wire, not yet visible to the sender.
  [[nodiscard]] std::int64_t credits_in_flight(VcId vc) const {
    return credits_in_flight_[vc];
  }
  /// Bytes queued in the downstream input buffer (0 when no probe is wired:
  /// host downlinks consume instantly).
  [[nodiscard]] std::uint64_t downstream_occupancy(VcId vc) const {
    return occupancy_probe_ ? occupancy_probe_(vc) : 0;
  }
  /// Packets currently on the wire (sent, not yet arrived).
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return packets_in_flight_;
  }
  /// Test hook: silently adjusts the sender-side credit counter *without*
  /// any accounting — a planted bug (not a modelled fault), used by auditor
  /// positive tests to prove credit-conservation violations are caught.
  void debug_corrupt_credits(VcId vc, std::int64_t delta) {
    credits_[vc] += delta;
  }

  /// The wire-arrival closure send() schedules, as a named capture struct:
  /// a lambda holding a PacketPtr cannot opt into the trivially-relocatable
  /// InlineTask path (lambdas cannot be named for the trait), and this is
  /// the single hottest closure in the datapath — one per packet hop.
  struct ArrivalTask {
    Channel* ch;
    PacketPtr p;
    VcId vc;
    void operator()();
  };

  // --- sharded execution (DESIGN.md §12) --------------------------------
  /// Marks this channel as crossing a shard boundary: the send side lives
  /// on shard `src_shard` (which owns `sim_`), the receive side on
  /// `dst_shard` (which owns `dst_sim`). During parallel windows, packet
  /// arrivals and credit returns travel through the engine's mailboxes and
  /// sender-owned wire accounting rides back to the sender's shard as
  /// mailbox notes; outside windows (serial instants, setup, teardown) the
  /// channel behaves exactly serially except that arrivals land on the
  /// receiver's calendar. A channel never marked stays byte-for-byte on
  /// the serial code path.
  void set_cross_shard(ShardExecutor* engine, std::uint32_t src_shard,
                       std::uint32_t dst_shard, Simulator* dst_sim);
  [[nodiscard]] bool cross_shard() const { return engine_ != nullptr; }

  /// Cross-shard counterpart of ArrivalTask: fires on the *receiver's*
  /// calendar; sender-owned accounting is mailed to the sender's shard
  /// when a window is active, applied directly otherwise.
  struct CrossArrivalTask {
    Channel* ch;
    PacketPtr p;
    VcId vc;
    void operator()();
  };
  /// Cross-shard credit flush: fires on the *sender's* calendar carrying
  /// the (possibly coalesced) byte count, since the receiver-side batch
  /// FIFO is not readable from the sender's shard.
  struct CrossFlushTask {
    Channel* ch;
    VcId vc;
    std::uint32_t bytes;
    void operator()();
  };

 private:
  /// Mailbox delivery thunks (run on the destination shard): schedule the
  /// message body under the key its poster drew, or apply an arrival note.
  static void deliver_arrival_msg(CrossMsg&& m);
  static void deliver_credit_msg(CrossMsg&& m);
  static void deliver_arrival_note(CrossMsg&& m);
  /// Sender-side accounting of one cross-shard arrival (in-flight
  /// bytes/packets): applied directly outside windows, mailed to the
  /// sender's shard as a note inside one.
  void apply_cross_arrival(VcId vc, std::uint32_t bytes);
  /// Window-mode credit return: replicates the serial coalescing decision
  /// on the receiver side (fold into the newest same-instant batch posted
  /// this window, else post a new mailbox message + one flush event).
  void cross_return_credits(VcId vc, std::uint32_t bytes);
  /// The calendar that carries this channel's resync timer: the control
  /// calendar for cross-shard channels (the check reads state owned by
  /// both shards, so it must run at a serial instant), the channel's own
  /// otherwise.
  [[nodiscard]] Simulator& timer_sim();
  /// One pending coalesced credit delivery: every return folded into it
  /// shares the same delivery instant. Batches per VC form a FIFO (delivery
  /// instants are non-decreasing: now + fixed latency), consumed from
  /// `credit_head_` by flush_credits — one scheduled flush per batch.
  struct CreditBatch {
    std::int64_t deliver_ps;
    std::uint32_t bytes;
  };
  /// Applies the front batch of `vc` (the flush event's body).
  void flush_credits(VcId vc);

  void resync_check();

  Simulator& sim_;
  Bandwidth bw_;
  Duration latency_;
  std::uint32_t capacity_;
  std::vector<std::int64_t> credits_;
  PacketReceiver* dst_ = nullptr;
  PortId dst_port_ = kInvalidPort;
  EventLane* send_lane_;
  EventLane* recv_lane_;
  Callback<void()> on_credit_;
  /// Per-VC pending credit batches + FIFO consume index. The vector is
  /// cleared (capacity retained) whenever the last batch flushes, so the
  /// steady state allocates nothing.
  std::vector<std::vector<CreditBatch>> pending_credits_;
  std::vector<std::size_t> credit_head_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  Duration busy_time_ = Duration::zero();

  // fault state (inert unless a fault is injected / resync enabled)
  bool up_ = true;
  bool permanent_ = false;
  bool ttd_corrupt_armed_ = false;
  Duration ttd_corrupt_delta_ = Duration::zero();
  Callback<std::uint64_t(VcId)> occupancy_probe_;
  Duration resync_window_ = Duration::zero();  ///< zero = resync disabled
  TimePoint resync_horizon_ = TimePoint::zero();
  std::vector<std::int64_t> in_flight_bytes_;      ///< packets on the wire
  std::vector<std::int64_t> credits_in_flight_;    ///< credits on reverse wire
  std::vector<TimePoint> last_credit_activity_;    ///< per VC
  std::uint64_t packets_in_flight_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t credits_lost_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t resynced_bytes_ = 0;
  std::uint64_t ttd_corruptions_ = 0;

  // sharded-execution wiring (null/empty when the channel is shard-local)
  ShardExecutor* engine_ = nullptr;
  Simulator* dst_sim_ = nullptr;
  const bool* win_ = nullptr;  ///< engine's window-active flag
  std::uint32_t src_shard_ = 0;
  std::uint32_t dst_shard_ = 0;
  /// Receiver-side coalescing tracker, per VC: the window id and outbox
  /// index of the newest credit message posted this window. Stale entries
  /// invalidate via the window id — no per-barrier clearing needed.
  std::vector<std::uint64_t> cross_fold_window_;
  std::vector<std::uint32_t> cross_fold_idx_;
};

/// PacketPtr relocates by memcpy (the moved-from unique_ptr is null and is
/// dropped, not destroyed — see the trait contract in inline_task.hpp).
template <>
struct is_trivially_relocatable<Channel::ArrivalTask> : std::true_type {};
template <>
struct is_trivially_relocatable<Channel::CrossArrivalTask> : std::true_type {};

}  // namespace dqos
