/// \file packet_heap.hpp
/// The one packet min-heap: a 4-ary heap of (key, seq, PacketPtr) entries
/// in a flat vector (root at 0, children of i at 4i+1..4i+4).
///
/// Used wherever packets wait in time order: the end-host NIC queues
/// (eligible time, then deadline; host.hpp) and the Ideal switch's heap
/// buffers (deadline; queue_discipline.hpp). Half the levels of a binary
/// heap, so a pop's sift-down touches fewer cache lines at deep backlogs.
/// The caller supplies `seq` (an arrival counter), which makes (key, seq)
/// a strict total order: the pop sequence cannot depend on the layout, and
/// equal keys leave in arrival order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "proto/packet_pool.hpp"
#include "util/contracts.hpp"
#include "util/time.hpp"

namespace dqos {

class PacketHeap {
 public:
  struct Entry {
    TimePoint key;
    std::uint64_t seq;
    PacketPtr pkt;
    bool operator>(const Entry& o) const {
      if (key != o.key) return key > o.key;
      return seq > o.seq;
    }
  };

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// The minimum entry. Heap must be non-empty.
  [[nodiscard]] const Entry& top() const {
    DQOS_EXPECTS(!v_.empty());
    return v_.front();
  }
  void reserve(std::size_t n) { v_.reserve(n); }

  /// Entries in heap (not sorted) order. Packets stay mutable through the
  /// PacketPtr, but nothing may change a key or seq.
  [[nodiscard]] auto begin() const { return v_.begin(); }
  [[nodiscard]] auto end() const { return v_.end(); }

  void push(TimePoint key, std::uint64_t seq, PacketPtr p) {
    Entry e{key, seq, std::move(p)};
    std::size_t i = v_.size();
    v_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(v_[parent] > e)) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(e);
  }

  /// Removes and returns the minimum entry's packet. Heap must be non-empty.
  PacketPtr pop() {
    DQOS_EXPECTS(!v_.empty());
    PacketPtr p = std::move(v_.front().pkt);
    if (v_.size() > 1) {
      v_.front() = std::move(v_.back());
      v_.pop_back();
      sift_down(0);
    } else {
      v_.pop_back();
    }
    return p;
  }

  /// Calls `doom(PacketPtr&)` on every entry. `doom` returns true when it
  /// took the packet (leaving the PacketPtr null); those entries are
  /// dropped and the heap is rebuilt.
  template <class Doom>
  void remove_if(Doom doom) {
    bool any = false;
    for (Entry& e : v_) any = doom(e.pkt) || any;
    if (!any) return;
    v_.erase(std::remove_if(v_.begin(), v_.end(),
                            [](const Entry& e) { return e.pkt == nullptr; }),
             v_.end());
    if (v_.size() < 2) return;
    for (std::size_t i = (v_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }

 private:
  /// Sifts v_[i] down to its 4-ary position.
  void sift_down(std::size_t i) {
    const std::size_t n = v_.size();
    Entry e = std::move(v_[i]);
    for (;;) {
      const std::size_t first = i * 4 + 1;
      if (first >= n) break;
      std::size_t m = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (v_[m] > v_[c]) m = c;
      }
      if (!(e > v_[m])) break;
      v_[i] = std::move(v_[m]);
      i = m;
    }
    v_[i] = std::move(e);
  }

  std::vector<Entry> v_;
};

}  // namespace dqos
