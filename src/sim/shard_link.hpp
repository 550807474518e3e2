/// \file shard_link.hpp
/// Shared data types linking one shard's Simulator to the sharded
/// conservative engine (shard_executor.hpp): the per-window log a shard
/// fills while draining, the cross-shard mailbox message, and the deferred
/// side-effect record.
///
/// Every event's key is (time, entity, counter), drawn from the scheduling
/// entity's own EventLane (simulator.hpp), so a key never depends on how
/// the run is sharded: a shard drains its calendar with the ordinary
/// drain_due, and a mailbox message carries the final key its sender drew
/// when posting it. What a window still has to hand to the barrier are the
/// writes against shared state whose *order* matters — deferred metric and
/// flow-abort effects, and fire-hook records while a hook is installed.
/// Each is tagged with its firing event's (time, merge key) (see
/// Simulator::merge_key), and the barrier merges the shards' logs by that
/// tag, which is exactly the serial kernel's global pop order (DESIGN.md
/// §12). The work is O(records), never O(events).
#pragma once

#include <cstdint>
#include <vector>

#include "proto/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace dqos {

/// A cross-shard event in transit: posted by a sender-shard component
/// (Channel) during a window, then delivered (scheduled onto the
/// destination shard's calendar under `key`) by `deliver` at the barrier.
/// The conservative lookahead contract: `at_ps` is at least one full
/// lookahead after the instant the message was posted, so it can never
/// land inside the window that produced it.
struct CrossMsg {
  std::int64_t at_ps = 0;
  std::uint64_t key = 0;       ///< final key, drawn from the poster's lane
  std::uint32_t bytes = 0;     ///< payload size / credit bytes (foldable)
  std::uint8_t vc = 0;
  std::uint8_t kind = 0;       ///< producer-private discriminator
  void* ctx = nullptr;         ///< producer object (e.g. the Channel)
  PacketPtr p;                 ///< packet payload (null for credit returns)
  /// Schedules the message body on the destination shard; set by the
  /// producer at post time, invoked by the coordinator at the barrier.
  void (*deliver)(CrossMsg&& m) = nullptr;
};

/// A side effect recorded during a window instead of being applied:
/// order-sensitive writes against shared state (the MetricsCollector's
/// reservoirs and streaming accumulators, admission-ledger releases). The
/// coordinator applies effects in (at_ps, order) order, so shared state
/// sees exactly the serial call sequence.
struct DeferredEffect {
  enum class Kind : std::uint8_t {
    kPacketDelivered,
    kPacketExpired,
    kPacketDropped,
    kMessageDelivered,
    kMessageOffered,
    kFlowAborted,
  };
  Kind kind = Kind::kPacketDropped;
  std::uint8_t tclass = 0;
  std::uint32_t size = 0;
  std::int64_t t_created_ps = 0;
  std::int64_t t_now_ps = 0;
  std::int64_t slack_ps = 0;
  std::uint64_t id = 0;  ///< flow id / message bytes, kind-dependent
  /// Merge tag, stamped by ShardWindowLog::defer: the firing event's time
  /// and merge key.
  std::int64_t at_ps = 0;
  std::uint64_t order = 0;
};

/// One fired event, recorded for the fire hook during a window (only while
/// a hook is installed) and replayed to it in merged order at the barrier.
struct HookRecord {
  std::int64_t at_ps;
  std::uint64_t order;  ///< merge key (the merge tag, with at_ps)
  std::uint64_t key;    ///< the event's own key (what the hook receives)
};

/// Everything one shard records during one window. Owned by the engine,
/// reset at every barrier.
struct ShardWindowLog {
  /// The shard's calendar: source of the merge tag of every record.
  const Simulator* sim = nullptr;
  std::vector<DeferredEffect> effects;
  std::vector<HookRecord> hooked;
  /// Outboxes, one per destination shard (index = destination).
  std::vector<std::vector<CrossMsg>> outboxes;

  /// Records `e` tagged with the firing event's (time, merge key). Log
  /// capacity is retained across windows (reset() clears, never shrinks),
  /// so steady-state appends are allocation-free.
  void defer(DeferredEffect e) {
    e.at_ps = sim->now().ps();
    e.order = sim->merge_key();
    effects.push_back(e);
  }

  void reset() {
    effects.clear();
    hooked.clear();
    for (auto& box : outboxes) box.clear();
  }
};

/// Receiver-shard note of a cross-shard packet arrival whose sender-owned
/// wire accounting (Channel::in_flight_bytes_/packets_in_flight_) must be
/// reconciled at the next barrier instead of being written from the
/// receiving thread.
struct CrossArrivalNote {
  void* ch = nullptr;  ///< the Channel
  std::uint8_t vc = 0;
  std::uint32_t bytes = 0;
};

}  // namespace dqos
