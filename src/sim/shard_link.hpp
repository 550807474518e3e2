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
/// when posting it. Mail needs no merge: a shard posts it into a
/// per-destination outbox, the barrier swaps each outbox into the `sent`
/// generation, and the destination shard delivers it onto its own calendar
/// at the start of its next drain (ShardExecutor::deliver_inbox). What a
/// window still has to hand to the barrier are the writes against shared
/// state whose *order* matters — deferred metric and flow-abort effects,
/// and fire-hook records while a hook is installed. Each is tagged with its
/// firing event's (time, merge key) (see Simulator::merge_key), and the
/// barrier merges the shards' logs by that tag, which is exactly the serial
/// kernel's global pop order (DESIGN.md §12). The work is O(records),
/// never O(events).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "proto/packet_pool.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace dqos {

/// A cross-shard event in transit: posted by a sender-shard component
/// (Channel) during a window through ShardWindowLog::post, then delivered
/// by `deliver` on the destination shard's thread before that shard's next
/// drain (or by the coordinator's flush before a serial instant). The
/// conservative lookahead contract: `at_ps` is at least one full lookahead
/// after the instant the message was posted, so it can never land inside
/// the window that produced it.
struct CrossMsg {
  /// `at_ps` of a note: a message that schedules nothing on arrival (it
  /// only reconciles destination-owned state), so it never bounds a
  /// window horizon and is not counted as cross-shard traffic.
  static constexpr std::int64_t kNoLanding =
      std::numeric_limits<std::int64_t>::max();

  std::int64_t at_ps = 0;
  std::uint64_t key = 0;       ///< final key, drawn from the poster's lane
  std::uint32_t bytes = 0;     ///< payload size / credit bytes (foldable)
  std::uint8_t vc = 0;
  std::uint8_t kind = 0;       ///< producer-private discriminator
  void* ctx = nullptr;         ///< producer object (e.g. the Channel)
  PacketPtr p;                 ///< packet payload (null for credit returns)
  /// Applies the message on the destination shard (schedules its body
  /// under `key`, or reconciles state for a note); set by the producer at
  /// post time.
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
/// closed at every barrier. Cache-line aligned: each shard's thread writes
/// its own log on every post and deferral, next to its neighbours' logs.
struct alignas(64) ShardWindowLog {
  /// The shard's calendar: source of the merge tag of every record.
  const Simulator* sim = nullptr;
  std::vector<DeferredEffect> effects;
  std::vector<HookRecord> hooked;
  /// Mail posted this window, one outbox per destination shard (index =
  /// destination). Written only by this shard's thread.
  std::vector<std::vector<CrossMsg>> outboxes;
  /// Last window's mail, swapped in from `outboxes` at the barrier;
  /// `sent[d]` is read and emptied only by destination shard d's thread.
  std::vector<std::vector<CrossMsg>> sent;
  /// Earliest landing time in `outboxes` / in `sent` (kNoLanding if none).
  std::int64_t out_min_ps = CrossMsg::kNoLanding;
  std::int64_t sent_min_ps = CrossMsg::kNoLanding;

  /// Records `e` tagged with the firing event's (time, merge key). Log
  /// capacity is retained across windows (close_window() clears, never
  /// shrinks), so steady-state appends are allocation-free.
  void defer(DeferredEffect e) {
    e.at_ps = sim->now().ps();
    e.order = sim->merge_key();
    effects.push_back(e);
  }

  /// Posts `m` to shard `dst`'s outbox and returns its index there (a
  /// producer may fold later same-instant payload into it this window).
  std::uint32_t post(std::uint32_t dst, CrossMsg&& m) {
    out_min_ps = std::min(out_min_ps, m.at_ps);
    std::vector<CrossMsg>& box = outboxes[dst];
    // dqos-lint: allow(hot-path-transitive) — outbox growth is amortized
    box.push_back(std::move(m));
    return static_cast<std::uint32_t>(box.size() - 1);
  }

  /// Barrier step, after the merge and once every `sent` box is delivered:
  /// clears the merged logs and makes this window's mail the generation
  /// the destination shards deliver next (capacity retained throughout).
  void close_window() {
    effects.clear();
    hooked.clear();
    outboxes.swap(sent);
    sent_min_ps = out_min_ps;
    out_min_ps = CrossMsg::kNoLanding;
  }
};

}  // namespace dqos
