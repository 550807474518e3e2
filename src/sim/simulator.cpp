// The calendar is the event store: slot, FIFO, and tier growth in this
// file is amortized doubling over arrays the steady state never shrinks,
// reviewed as a whole. Hot callers (drain_due, try_fill) still keep their
// own bodies allocation-free.
// dqos-lint: allow-file(hot-path-transitive)
#include "sim/simulator.hpp"

#include <algorithm>

namespace dqos {

EventId Simulator::schedule_at(TimePoint t, std::uint64_t key,
                               InlineTask&& fn) {
  DQOS_EXPECTS(t >= now_);
  DQOS_EXPECTS(static_cast<bool>(fn));
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  s.time_ps = t.ps();
  s.key = key;
  push_entry(CalEntry{t, key, slot});
  ++live_;
  return make_id(s.gen, slot);
}

void Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Fired/cancelled/reused slots fail the live || generation check: no
  // residue, so schedule/fire/cancel cycles cannot grow memory unboundedly.
  if (!s.live || s.gen != gen) return;
  s.live = false;
  s.fn.reset();  // release captures now
  --live_;
  if (s.time_ps < bottom_end_ps_) {
    // Already harvested into the bottom rung: every pending entry with
    // time < bottom_end_ps_ lives in bottom_[bottom_idx_..), sorted by
    // (time, key). Binary-search the exact entry and blank its slot index
    // in place — no linear scan, and the slot recycles immediately. The
    // blank entry keeps its key so the rung stays sorted; the drain skips
    // it without a slot-table load.
    const CalEntry key{TimePoint::from_ps(s.time_ps), s.key, slot};
    const auto it = std::lower_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_idx_),
        bottom_.end(), key, Earlier{});
    DQOS_ASSERT(it != bottom_.end() && it->key == key.key && it->slot == slot);
    it->slot = kTombstoneSlot;
    free_slot(slot);
    return;
  }
  s.cancelled = true;  // the bucket entry dies lazily at harvest/rebuild
  ++tombstones_;
}

void Simulator::push_entry(const CalEntry e) {
  if (e.time.ps() < bottom_end_ps_) {
    // Due inside the already-harvested window: keep the bottom rung
    // exhaustive and sorted. The insert position is at or after the
    // consumption index (e.time >= now_ >= last popped entry).
    const auto it = std::lower_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_idx_),
        bottom_.end(), e, Earlier{});
    bottom_.insert(it, e);
  } else {
    buckets_[static_cast<std::size_t>(e.time.ps() >> width_shift_) &
             bucket_mask_]
        .push_back(e);
  }
  ++entries_;
  if (entries_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    rebuild();
  }
}

bool Simulator::refill_bottom() {
  bottom_.clear();
  bottom_idx_ = 0;
  // Harvests one bucket's current-year entries into bottom_, reclaiming
  // lazily-cancelled ones on the way: tombstones die here in bulk, before
  // the sort, so the drain never sees them.
  const auto harvest = [this](std::int64_t abs) {
    std::vector<CalEntry>& vec =
        buckets_[static_cast<std::size_t>(abs) & bucket_mask_];
    const std::int64_t limit = (abs + 1) << width_shift_;
    if (tombstones_ == 0) {
      // Tombstone-free calendar (the steady-state datapath): skip the
      // per-entry slot-table load — a random-access cache miss per event —
      // and just split the bucket into due and future-year entries.
      for (std::size_t i = 0; i < vec.size();) {
        if (vec[i].time.ps() >= limit) {
          ++i;
          continue;
        }
        bottom_.push_back(vec[i]);
        vec[i] = vec.back();
        vec.pop_back();
      }
      return limit;
    }
    for (std::size_t i = 0; i < vec.size();) {
      if (vec[i].time.ps() >= limit) {
        ++i;
        continue;
      }
      const CalEntry e = vec[i];
      vec[i] = vec.back();
      vec.pop_back();
      if (slots_[e.slot].cancelled) {
        free_slot(e.slot);
        --tombstones_;
        --entries_;
      } else {
        bottom_.push_back(e);
      }
    }
    return limit;
  };
  while (entries_ != 0) {
    const std::size_t nbuckets = bucket_mask_ + 1;
    std::int64_t abs = bottom_end_ps_ >> width_shift_;
    for (std::size_t step = 0; step < nbuckets; ++step, ++abs) {
      if (buckets_[static_cast<std::size_t>(abs) & bucket_mask_].empty()) {
        continue;
      }
      // Harvest this bucket's current-year entries. A skipped (future-year)
      // entry is at least a full ring revolution away, so it cannot beat
      // anything harvested further ahead in this sweep.
      const std::int64_t limit = harvest(abs);
      if (!bottom_.empty()) {
        std::sort(bottom_.begin(), bottom_.end(), Earlier{});
        bottom_end_ps_ = limit;
        return true;
      }
      // The year held only tombstones (all just reclaimed): advance the
      // window past it and keep sweeping.
      bottom_end_ps_ = limit;
      if (entries_ == 0) return false;
    }
    // A full revolution found nothing due: the pending set is sparse and
    // far ahead (a drained network waiting on ms-scale timers). Direct scan
    // for the earliest entry, then harvest its bucket-year.
    std::int64_t min_ps = 0;
    bool have = false;
    for (const std::vector<CalEntry>& vec : buckets_) {
      for (const CalEntry& e : vec) {
        if (!have || e.time.ps() < min_ps) {
          min_ps = e.time.ps();
          have = true;
        }
      }
    }
    DQOS_ASSERT(have);
    bottom_end_ps_ = harvest(min_ps >> width_shift_);
    if (!bottom_.empty()) {
      std::sort(bottom_.begin(), bottom_.end(), Earlier{});
      return true;
    }
    // That year, too, was all tombstones; loop (entries_ re-checked above).
  }
  return false;
}

unsigned Simulator::estimate_width_shift() {
  // The cursor bucket accumulates every event due inside its window, and
  // each harvest rescans it — so occupancy there is governed by the *fire*
  // rate, not by gaps in a pending-set snapshot (a snapshot mixes the
  // dense near-now working set with sparse far-out timers and lands on a
  // width orders of magnitude too wide). Width ≈ 4 mean inter-fire gaps
  // keeps the rescan a handful of entries; wider years were measured
  // slower — they push short serialization delays onto the sorted-rung
  // insert path (DESIGN.md §11).
  if (pops_since_rebuild_ >= 64) {
    const std::int64_t advance = now_.ps() - last_rebuild_now_ps_;
    const std::int64_t target = advance * 4 / pops_since_rebuild_;
    unsigned shift = 0;
    while ((std::int64_t{1} << shift) < target && shift < 40) ++shift;
    return shift;
  }
  // No fire history yet (count-triggered rebuild during a scheduling
  // burst): fall back to the median positive gap between pending entries.
  if (scratch_.size() < 8) return width_shift_;
  times_.clear();
  const std::size_t stride = scratch_.size() / 4096 + 1;
  for (std::size_t i = 0; i < scratch_.size(); i += stride) {
    times_.push_back(scratch_[i].time.ps());
  }
  std::sort(times_.begin(), times_.end());
  std::size_t ngaps = 0;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const std::int64_t gap = times_[i] - times_[i - 1];
    if (gap > 0) times_[ngaps++] = gap;
  }
  if (ngaps == 0) return width_shift_;
  std::nth_element(times_.begin(),
                   times_.begin() + static_cast<std::ptrdiff_t>(ngaps / 2),
                   times_.begin() + static_cast<std::ptrdiff_t>(ngaps));
  const std::int64_t target = times_[ngaps / 2] * 4;
  unsigned shift = 0;
  while ((std::int64_t{1} << shift) < target && shift < 40) ++shift;
  return shift;
}

void Simulator::rebuild() {
  scratch_.clear();
  for (std::size_t i = bottom_idx_; i < bottom_.size(); ++i) {
    if (bottom_[i].slot == kTombstoneSlot) {
      --entries_;  // cancelled in place; drop the blank entry
    } else {
      scratch_.push_back(bottom_[i]);
    }
  }
  bottom_.clear();
  bottom_idx_ = 0;
  for (std::vector<CalEntry>& vec : buckets_) {
    for (const CalEntry& e : vec) {
      if (slots_[e.slot].cancelled) {
        // Reclaim lazily-tombstoned bucket entries while we hold them all
        // anyway — rebuild is the other bulk-reclamation point besides the
        // harvest sweep.
        free_slot(e.slot);
        --tombstones_;
        --entries_;
      } else {
        scratch_.push_back(e);
      }
    }
    vec.clear();
  }
  std::size_t m = kMinBuckets;
  while (m < entries_ * 2 && m < kMaxBuckets) m <<= 1;
  if (m != buckets_.size()) {
    buckets_.assign(m, {});
  }
  bucket_mask_ = m - 1;
  width_shift_ = estimate_width_shift();
  last_rebuild_now_ps_ = now_.ps();
  pops_since_rebuild_ = 0;
  // All entries are >= now_, so an empty bottom window ending at now_ is
  // exhaustive; the next pop harvests afresh at the new width.
  bottom_end_ps_ = now_.ps();
  for (const CalEntry& e : scratch_) {
    buckets_[static_cast<std::size_t>(e.time.ps() >> width_shift_) &
             bucket_mask_]
        .push_back(e);
  }
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.cancelled = false;
  if (++s.gen == 0) s.gen = 1;  // ids are never zero
  free_slots_.push_back(slot);
}

bool Simulator::pop_next(TimePoint limit, TimePoint& t, std::uint64_t& key,
                         InlineTask& fn) {
  while (true) {
    if (bottom_idx_ >= bottom_.size() && !refill_bottom()) return false;
    const CalEntry head = bottom_[bottom_idx_];
    if (head.slot == kTombstoneSlot) {  // cancelled in place — skip
      ++bottom_idx_;
      --entries_;
      continue;
    }
    if (head.time > limit) return false;  // leave it queued
    ++bottom_idx_;
    --entries_;
    if (++pops_since_rebuild_ >= kRebuildPeriod ||
        (buckets_.size() > kMinBuckets && entries_ < buckets_.size() / 8)) {
      rebuild();
    }
    Slot& s = slots_[head.slot];
    DQOS_ASSERT(s.live);
    t = head.time;
    key = head.key;
    fn = std::move(s.fn);
    free_slot(head.slot);
    --live_;
    return true;
  }
}

bool Simulator::step() {
  TimePoint t;
  std::uint64_t key = 0;
  InlineTask fn;
  if (!pop_next(TimePoint::max(), t, key, fn)) return false;
  begin_fire(t, key);
  fn();
  return true;
}

bool Simulator::peek_next(std::int64_t& time_ps, std::uint64_t& key) {
  while (true) {
    if (bottom_idx_ >= bottom_.size() && !refill_bottom()) return false;
    const CalEntry head = bottom_[bottom_idx_];
    if (head.slot == kTombstoneSlot) {  // cancelled in place — skip
      ++bottom_idx_;
      --entries_;
      continue;
    }
    time_ps = head.time.ps();
    key = head.key;
    return true;
  }
}

bool Simulator::step_due(TimePoint limit) {
  TimePoint t;
  std::uint64_t key = 0;
  InlineTask fn;
  if (!pop_next(limit, t, key, fn)) return false;
  begin_fire(t, key);
  fn();
  return true;
}

// dqos-lint: hot
bool Simulator::drain_due(TimePoint limit) {
  if (bottom_idx_ >= bottom_.size() && !refill_bottom()) return false;
  // When the whole harvested window is due, the per-event limit compare
  // drops out of the loop: anything a closure splices into the rung
  // mid-batch has time < bottom_end_ps_ <= limit and is due as well.
  const bool whole_window_due = bottom_end_ps_ <= limit.ps();
  // The loop re-reads bottom_ every iteration on purpose: a fired closure
  // may schedule into the rung (relocating it) or trigger a count-driven
  // rebuild (clearing it). The head is copied out and the closure moved to
  // a local before invocation for the same reason.
  while (bottom_idx_ < bottom_.size()) {
    const CalEntry head = bottom_[bottom_idx_];
    if (head.slot == kTombstoneSlot) {  // cancelled in place — bulk skip
      ++bottom_idx_;
      --entries_;
      continue;
    }
    if (!whole_window_due && head.time > limit) return false;
    ++bottom_idx_;
    --entries_;
    ++pops_since_rebuild_;
    Slot& s = slots_[head.slot];
    DQOS_ASSERT(s.live);
    InlineTask fn = std::move(s.fn);
    free_slot(head.slot);
    --live_;
    begin_fire(head.time, head.key);
    fn();
  }
  // Batch-boundary maintenance: the single-step path runs these checks per
  // pop; batching amortizes them. Rebuild timing only affects bucket
  // geometry, never the (time, key) fire order.
  if (pops_since_rebuild_ >= kRebuildPeriod ||
      (buckets_.size() > kMinBuckets && entries_ < buckets_.size() / 8)) {
    rebuild();
  }
  return entries_ != 0;
}

void Simulator::run_until(TimePoint t) {
  DQOS_EXPECTS(t >= now_);
  while (drain_due(t)) {
  }
  now_ = t;
}

void Simulator::run() {
  while (drain_due(TimePoint::max())) {
  }
}

}  // namespace dqos
