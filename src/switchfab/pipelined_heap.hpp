/// \file pipelined_heap.hpp
/// A cycle-accurate model of the pipelined hardware heap of Ioannou &
/// Katevenis (ICC 2001) — the design the paper cites as the way to build
/// the *Ideal* architecture, and rejects as too expensive at high radix
/// (§3.2).
///
/// The hardware organizes a binary heap by *levels*; each level owns its
/// own SRAM bank and comparator stage, so successive operations pipeline:
/// a new operation may issue every `cycle` as long as it is one level
/// behind the previous one, and an operation completes after
/// `levels x cycle`. This model tracks exactly that timing:
///
///   - issue(op, now) returns the completion time of the operation and
///     the earliest time the *next* operation may issue;
///   - the logical heap contents are tracked with std::push_heap /
///     std::pop_heap (the hardware's functional behaviour), so results are
///     identical to the Ideal heap buffer — only the timing differs.
///
/// The Ideal switch architecture with `SwitchParams::heap_op_latency` is a
/// first-order stand-in (a flat per-op latency); this model supplies the
/// *derived* numbers: per-op issue interval = 1 cycle, latency =
/// ceil(log2(capacity)) cycles, from which A10's sweep points can be
/// grounded in a concrete design instead of a free parameter.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace dqos {

class PipelinedHeapModel {
 public:
  /// `capacity` — max entries (sets the level count = ceil(log2(cap))+1).
  /// `cycle` — SRAM access + comparator time per level (e.g. 4 ns at
  /// 250 MHz, the ICC'01 design point).
  PipelinedHeapModel(std::size_t capacity, Duration cycle);

  struct Timing {
    TimePoint completes;   ///< when the operation's result is available
    TimePoint next_issue;  ///< earliest issue time of the next operation
  };

  /// Issues an insert of `key` at `now` (>= the previous next_issue).
  Timing insert(std::int64_t key, TimePoint now);
  /// Issues an extract-min at `now`. Heap must be non-empty.
  Timing extract_min(std::int64_t key_out_check, TimePoint now);
  /// Extract-min that also returns the popped key.
  Timing extract_min(TimePoint now, std::int64_t* key_out);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::int64_t min() const;
  [[nodiscard]] std::size_t levels() const { return levels_; }
  [[nodiscard]] Duration op_latency() const {
    return cycle_ * static_cast<std::int64_t>(levels_);
  }
  [[nodiscard]] Duration issue_interval() const { return cycle_; }

  /// Total operations issued (diagnostics).
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  Timing issue(TimePoint now);

  std::size_t capacity_;
  std::size_t levels_;
  Duration cycle_;
  TimePoint next_issue_;
  std::uint64_t ops_ = 0;
  std::vector<std::int64_t> keys_;  // functional min-heap (std::*_heap)
};

}  // namespace dqos
