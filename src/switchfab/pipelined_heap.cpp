#include "switchfab/pipelined_heap.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace dqos {
namespace {
/// std::*_heap comparator that keeps the smallest key at the front.
constexpr auto kMinHeap = [](std::int64_t a, std::int64_t b) { return a > b; };
}  // namespace

PipelinedHeapModel::PipelinedHeapModel(std::size_t capacity, Duration cycle)
    : capacity_(capacity), cycle_(cycle) {
  DQOS_EXPECTS(capacity >= 2);
  DQOS_EXPECTS(cycle > Duration::zero());
  levels_ = 1;
  while ((std::size_t{1} << levels_) - 1 < capacity) ++levels_;
  keys_.reserve(capacity);
}

PipelinedHeapModel::Timing PipelinedHeapModel::issue(TimePoint now) {
  // Pipelining: ops may issue every cycle, but never before the previous
  // op has cleared the first level.
  const TimePoint start = max(now, next_issue_);
  next_issue_ = start + cycle_;
  ++ops_;
  return Timing{start + op_latency(), next_issue_};
}

PipelinedHeapModel::Timing PipelinedHeapModel::insert(std::int64_t key,
                                                      TimePoint now) {
  DQOS_EXPECTS(keys_.size() < capacity_);
  // dqos-lint: allow(hot-path-transitive) — capacity reserved up front
  keys_.push_back(key);
  std::push_heap(keys_.begin(), keys_.end(), kMinHeap);
  return issue(now);
}

PipelinedHeapModel::Timing PipelinedHeapModel::extract_min(TimePoint now,
                                                           std::int64_t* key_out) {
  DQOS_EXPECTS(!keys_.empty());
  if (key_out) *key_out = keys_.front();
  std::pop_heap(keys_.begin(), keys_.end(), kMinHeap);
  keys_.pop_back();
  return issue(now);
}

PipelinedHeapModel::Timing PipelinedHeapModel::extract_min(
    std::int64_t key_out_check, TimePoint now) {
  std::int64_t k = 0;
  const Timing t = extract_min(now, &k);
  DQOS_ASSERT(k == key_out_check);
  return t;
}

std::int64_t PipelinedHeapModel::min() const {
  DQOS_EXPECTS(!keys_.empty());
  return keys_.front();
}

}  // namespace dqos
