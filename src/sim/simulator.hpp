/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// A single-threaded event calendar: components schedule closures at
/// absolute instants; the kernel fires them in (time, entity, counter)
/// order (DESIGN.md §12). Every event carries a 64-bit key drawn from an
/// EventLane — the scheduling entity's id in the top 24 bits over that
/// entity's own 40-bit schedule counter. Entity 0 is the control plane and
/// stand-alone use (plain schedule_at); every host and switch schedules
/// under its own lane (entity 1 + NodeId). Keys are unique, so runs are
/// bit-for-bit deterministic independent of heap internals, and two events
/// of one lane at the same instant fire in the order they were scheduled.
/// A key depends only on its entity's own history, which is what lets the
/// sharded engine (shard_executor.hpp) reproduce the serial order without
/// any cross-shard bookkeeping.
///
/// The kernel is deliberately minimal (Core Guidelines P.11: encapsulate
/// the messy construct once): no process abstraction, no channels — the
/// network components in src/switchfab and src/host are plain objects that
/// schedule their own wake-ups.
///
/// Hot-path design (see DESIGN.md §7): closures are stored as InlineTask
/// (48-byte small-buffer, move-only — steady-state scheduling performs no
/// heap allocation), and the calendar is a calendar queue (Brown, CACM
/// '88) with a ladder-queue-style bottom rung: a power-of-two ring of
/// unsorted buckets, each covering a power-of-two time width, over a slot
/// table indexed by the event handle. Insertion is O(1) — shift, mask,
/// append — with no comparisons at all; the pop side harvests one
/// bucket-year at a time into a sorted "bottom" vector consumed by index,
/// so the per-event fast path is a plain array read (one amortized sort
/// replaces the per-pop bucket rescans of a textbook calendar queue, and
/// same-instant bursts cost one sort instead of a quadratic rescan).
/// Against the previous d-ary heap this removes the ~20 data-dependent
/// (≈unpredictable) sift branches per event that dominated the kernel
/// profile. The ring rebuilds itself — count-driven resize plus a periodic
/// width re-estimate from the observed *fire* rate (mean sim-time advance
/// per pop): the pending set mixes a dense near-now working set with
/// sparse ms-scale timers, so widths derived from pending-gap statistics
/// come out orders of magnitude too wide and cram the whole working set
/// into one bucket. Cancellation is O(1): the slot is tombstoned (closure
/// destroyed immediately) while the bucket entry dies lazily when the
/// harvest reaches it. Handles are generation-tagged slot indices; stale
/// handles from fired or cancelled events miss the generation check and
/// are no-ops.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_task.hpp"
#include "util/callback.hpp"
#include "util/contracts.hpp"
#include "util/time.hpp"

namespace dqos {

/// Opaque handle to a scheduled event, usable for cancellation. Zero is
/// never a valid handle (components use 0 as "no event armed").
using EventId = std::uint64_t;

/// One entity's source of event keys: (entity << 40) | counter, the
/// counter starting at 1. A lane is touched only by its entity's own code —
/// on its shard, or at a serial instant — so its keys never depend on how
/// the run is sharded.
class EventLane {
 public:
  static constexpr unsigned kCounterBits = 40;
  static constexpr std::uint64_t kCounterMask = (1ULL << kCounterBits) - 1;
  /// Largest entity the 24-bit field holds (SimConfig::check refuses
  /// topologies whose 1 + NodeId would exceed it).
  static constexpr std::uint32_t kMaxEntity = (1u << (64 - kCounterBits)) - 1;

  explicit EventLane(std::uint32_t entity = 0)
      : next_((static_cast<std::uint64_t>(entity) << kCounterBits) | 1) {
    DQOS_EXPECTS(entity <= kMaxEntity);
  }

  /// The next key of this lane. Asserts instead of carrying into the entity
  /// field when the 40-bit counter is exhausted.
  std::uint64_t take() {
    const std::uint64_t key = next_++;
    DQOS_ASSERT((next_ & kCounterMask) != 0);
    return key;
  }

 private:
  std::uint64_t next_;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated instant (global clock).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` under `lane`'s next key. `t` must
  /// not be in the past. Rvalue-reference (not by-value) on purpose: the
  /// closure is built once at the call site and relocated exactly once,
  /// into the slot table.
  EventId schedule_at(TimePoint t, EventLane& lane, InlineTask&& fn) {
    return schedule_at(t, lane.take(), std::move(fn));
  }
  /// Entity 0: control-plane and stand-alone scheduling.
  EventId schedule_at(TimePoint t, InlineTask&& fn) {
    return schedule_at(t, lane0_, std::move(fn));
  }
  /// Schedules under a key already drawn from a lane (a cross-shard
  /// mailbox message carries the key its sender drew when posting it).
  EventId schedule_at(TimePoint t, std::uint64_t key, InlineTask&& fn);

  /// Schedules `fn` after a non-negative delay from now.
  EventId schedule_after(Duration d, EventLane& lane, InlineTask&& fn) {
    DQOS_EXPECTS(d >= Duration::zero());
    return schedule_at(now_ + d, lane, std::move(fn));
  }
  EventId schedule_after(Duration d, InlineTask&& fn) {
    return schedule_after(d, lane0_, std::move(fn));
  }

  /// This calendar's entity-0 lane (components not wired to a node lane,
  /// e.g. a channel in a unit test, schedule under it).
  [[nodiscard]] EventLane& default_lane() { return lane0_; }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (the generation tag in the handle goes stale when the slot is
  /// reused). The closure is destroyed immediately. An entry still in a
  /// bucket is reclaimed lazily — in bulk, when the harvest sweep or a ring
  /// rebuild reaches it; an entry already harvested into the sorted bottom
  /// rung is located by (time, key) binary search and blanked in place (no
  /// linear scan), recycling its slot immediately. Either way, repeated
  /// cancellation in a long run cannot grow memory without bound.
  void cancel(EventId id);

  /// Fires the next event. Returns false when the calendar is empty.
  bool step();

  /// Runs events with time <= `t`, then advances the clock to exactly `t`
  /// (even if the calendar empties earlier). Implemented as repeated
  /// drain_due() batches.
  void run_until(TimePoint t);

  /// Batch drain (DESIGN.md §11): fires every event due at or before
  /// `limit` out of the current bottom-rung window in one pass, skipping
  /// in-place tombstones in bulk and deferring the ring-maintenance checks
  /// to the batch boundary. Exactly the pop order of repeated step() calls
  /// — the rung is sorted, closures scheduled from inside the batch splice
  /// into it at their sorted position, and rebuild timing never affects
  /// fire order. Returns false when nothing at or before `limit` remains;
  /// run()/run_until() and the sharded engine's window drains are loops
  /// over this.
  bool drain_due(TimePoint limit);

  /// Convenience: run_until(now + d).
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the calendar completely.
  void run();

  /// Test/diagnostic instrumentation: called after the clock advances and
  /// before each event's closure runs, with the event's key and fire time.
  /// The golden-determinism test hashes this stream; keep the (key, time)
  /// contract stable across kernel implementations. The hook is a raw
  /// Callback (fn-pointer + context) so instrumented builds stay
  /// type-erasure-free on the hot path; the context must outlive the run.
  void set_fire_hook(Callback<void(std::uint64_t, TimePoint)> hook) {
    fire_hook_ = hook;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return fired_; }
  /// Live (scheduled, not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t events_pending() const { return live_; }
  /// Cancelled entries still awaiting lazy bucket removal (bounded by the
  /// pending-entry count; exposed for the reclamation regression test).
  [[nodiscard]] std::size_t cancelled_pending() const { return tombstones_; }

  // --- Sharded-execution support (DESIGN.md §12) -------------------------

  /// The merge key of the event now firing: the largest key this calendar
  /// has fired at the current instant. Keys fire in ascending order except
  /// when a zero-delay child lands under a lower entity than its parent;
  /// the running maximum stays ascending regardless, and ordering records
  /// by (time, merge key) reproduces the global pop order across shards.
  [[nodiscard]] std::uint64_t merge_key() const { return merge_key_; }

  /// Peeks the earliest pending event's (time, key) without extracting it.
  /// Returns false when the calendar is empty. May harvest buckets into the
  /// bottom rung (amortized; identical to what the next pop would do).
  bool peek_next(std::int64_t& time_ps, std::uint64_t& key);

  /// Fires the next event only if it is due at or before `limit`. The
  /// engine uses this to interleave several calendars at one instant in
  /// global (time, key) order.
  bool step_due(TimePoint limit);

  /// Advances the clock without firing anything (the engine aligns every
  /// shard's clock to the run horizon once all calendars are past it).
  void advance_to(TimePoint t) {
    DQOS_EXPECTS(t >= now_);
    now_ = t;
  }

 private:
  /// One calendar entry's storage. The closure lives here; the bucket ring
  /// refers to slots by index. A slot is freed (generation bumped, index
  /// pushed on the free list) exactly once — when its entry is extracted.
  struct Slot {
    InlineTask fn;
    /// Copy of the entry's ordering key, written at schedule time: cancel()
    /// uses `time_ps < bottom_end_ps_` to decide whether the entry already
    /// sits in the (sorted) bottom rung and, if so, binary-searches it by
    /// (time, key) instead of scanning.
    std::int64_t time_ps = 0;
    std::uint64_t key = 0;
    std::uint32_t gen = 1;
    bool live = false;       ///< scheduled, not fired, not cancelled
    bool cancelled = false;  ///< tombstoned, awaiting lazy bucket removal
  };

  /// A bucket entry: 24 bytes, trivially movable, holds the full
  /// (time, key) ordering pair so bucket scans never touch the slot table.
  struct CalEntry {
    TimePoint time;
    std::uint64_t key;
    std::uint32_t slot;
  };

  /// Bottom-rung tombstone sentinel: cancel() of an already-harvested
  /// entry blanks the entry's slot index in place (the (time, key) key is
  /// kept so the rung stays sorted); the drain skips such entries without
  /// loading the slot table, and the slot itself recycles immediately.
  static constexpr std::uint32_t kTombstoneSlot = 0xffffffffu;

  static constexpr std::size_t kMinBuckets = 256;      // power of two
  static constexpr std::size_t kMaxBuckets = 1u << 20;
  static constexpr unsigned kDefaultWidthShift = 10;   // 1024 ps buckets
  /// Pops between unconditional rebuilds: re-estimates the bucket width so
  /// the ring tracks workload phase changes (warmup → measure → drain)
  /// even when the pending count, which drives resize, stays flat.
  static constexpr std::uint32_t kRebuildPeriod = 1u << 16;

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Strict total order of the calendar: earliest time first, then key
  /// (entity, then the entity's schedule order). Implementation-independent
  /// — any structure that pops in this order reproduces the golden fire
  /// sequence bit-for-bit.
  static bool earlier(const CalEntry& a, const CalEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  /// Function-object form for the sort/lower_bound call sites: a stateless
  /// functor inlines per comparison where a function pointer compiles to an
  /// indirect call — measurable on the refill path, which sorts ~a handful
  /// of entries a million times per second.
  struct Earlier {
    bool operator()(const CalEntry& a, const CalEntry& b) const {
      return earlier(a, b);
    }
  };

  void push_entry(CalEntry e);
  /// Refills the sorted bottom rung with the next non-empty bucket-year's
  /// due entries: sweeps forward from the bucket containing bottom_end_,
  /// falling back to a direct scan when a full revolution finds nothing
  /// due. Lazily-cancelled bucket entries are reclaimed here, in bulk,
  /// before the sort — tombstones are never sorted or drained. Returns
  /// false only when the calendar is empty.
  bool refill_bottom();
  /// Gathers every entry, re-estimates the bucket width from the observed
  /// fire rate (mean sim-time advance per pop since the last rebuild),
  /// resizes the ring to ~2 buckets per entry, and redistributes.
  /// O(entries + buckets); triggered by count thresholds and every
  /// kRebuildPeriod pops.
  void rebuild();
  [[nodiscard]] unsigned estimate_width_shift();
  void free_slot(std::uint32_t slot);
  /// Pops due entries, skipping tombstones; returns false when the calendar
  /// is empty or the earliest live entry is after `limit` (nothing is
  /// extracted in that case). On success the slot is already recycled and
  /// the closure moved to `fn`.
  bool pop_next(TimePoint limit, TimePoint& t, std::uint64_t& key,
                InlineTask& fn);
  /// Per-fire bookkeeping shared by every pop path: clock, counter, merge
  /// key, then the fire hook.
  void begin_fire(TimePoint t, std::uint64_t key) {
    DQOS_ASSERT(t >= now_);
    now_ = t;
    ++fired_;
    if (t.ps() != merge_ps_ || key > merge_key_) {
      merge_ps_ = t.ps();
      merge_key_ = key;
    }
    if (fire_hook_) fire_hook_(key, t);
  }

  TimePoint now_ = TimePoint::zero();
  EventLane lane0_;
  std::int64_t merge_ps_ = -1;
  std::uint64_t merge_key_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<std::vector<CalEntry>> buckets_{kMinBuckets};
  std::size_t bucket_mask_ = kMinBuckets - 1;
  unsigned width_shift_ = kDefaultWidthShift;
  std::size_t entries_ = 0;  ///< live + tombstoned entries (buckets + bottom)
  /// Bottom rung (ladder-queue style): the already-harvested due window,
  /// sorted ascending by (time, key) and consumed by index. Every pending
  /// entry with time < bottom_end_ps_ lives here — the pop fast path is an
  /// array read, and short-delay inserts binary-search into the tail.
  std::vector<CalEntry> bottom_;
  std::size_t bottom_idx_ = 0;
  std::int64_t bottom_end_ps_ = 0;  ///< exclusive upper edge of the window
  std::uint32_t pops_since_rebuild_ = 0;
  std::int64_t last_rebuild_now_ps_ = 0;  ///< fire-rate window anchor
  std::vector<CalEntry> scratch_;     ///< rebuild staging (retains capacity)
  std::vector<std::int64_t> times_;   ///< width-estimation staging
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Callback<void(std::uint64_t, TimePoint)> fire_hook_;
};

}  // namespace dqos
