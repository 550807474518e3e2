/// \file queue_discipline.hpp
/// The three buffer organizations the paper evaluates (§3.2, §3.4, §4.1),
/// as one devirtualized, cache-resident queue type.
///
/// - fifo     — a plain FIFO. The *Simple 2 VCs* architecture: the arbiter
///              may only look at the head, so a high-deadline packet at the
///              front penalizes low-deadline packets behind it (an *order
///              error*).
/// - heap     — a deadline-ordered priority queue. The *Ideal*
///              architecture: always exposes the minimum-deadline packet,
///              but a hardware heap per buffer is unfeasible at high radix
///              (the paper cites Ioannou & Katevenis).
/// - takeover — the paper's contribution (§3.4 + appendix): two FIFOs, an
///              *ordered queue* L and a *take-over queue* U.
///              Enqueue (Definition 1): to L iff deadline >= L's tail,
///              else to U. Dequeue (Definition 2): the smaller-deadline of
///              the two heads. Provably never reorders packets of a single
///              flow (Theorems 1-3) while sharply reducing order errors.
///
/// PacketQueue is a tagged union over the three schemes: the kind is fixed
/// at construction (one per switch configuration), `enqueue` / `dequeue` /
/// `candidate` dispatch on a two-bit tag through a perfectly-predicted
/// branch instead of a vtable, and all storage is ring buffers / the
/// flat-vector PacketHeap (proto/packet_heap.hpp, shared with the NIC) —
/// no per-packet node allocation anywhere. A switch holds
/// PacketQueues by value in contiguous arrays (see switch.hpp), which is
/// what lets the arbitration hot path stay in cache.
///
/// All schemes expose a single `candidate()`: per the appendix's flow
/// control note, **only the minimum-deadline head is checked for credits**,
/// otherwise a smaller packet could sneak out and corrupt the discipline.
///
/// Order errors are counted at dequeue time: an order error occurs when the
/// packet handed out has a strictly larger deadline than some packet still
/// waiting in the same buffer (the scheduler did not choose the earliest
/// deadline; §3.4 distinguishes this from out-of-order *delivery*). The
/// FIFO scheme tracks the true queue minimum with a monotonic ring (the
/// classic sliding-window-minimum structure) instead of the old
/// `std::multiset`, so the diagnostic costs O(1) amortized and zero
/// allocations rather than two red-black-tree operations per packet.
#pragma once

#include <cstdint>
#include <string_view>

#include "proto/packet_heap.hpp"
#include "proto/packet_pool.hpp"
#include "switchfab/packet_ring.hpp"
#include "util/time.hpp"

namespace dqos {

enum class QueueKind : std::uint8_t {
  kFifo = 0,      ///< Simple 2 VCs / Traditional
  kHeap = 1,      ///< Ideal
  kTakeover = 2,  ///< Advanced 2 VCs
};

std::string_view to_string(QueueKind k);

class PacketQueue {
 public:
  explicit PacketQueue(QueueKind kind) : kind_(kind) {}

  PacketQueue(PacketQueue&&) noexcept = default;
  PacketQueue& operator=(PacketQueue&&) noexcept = default;

  [[nodiscard]] QueueKind kind() const { return kind_; }

  /// Stores `p`. `p->local_deadline` must already be reconstructed into this
  /// node's clock domain.
  void enqueue(PacketPtr p);

  /// The unique packet eligible for transmission, or nullptr if empty.
  [[nodiscard]] const Packet* candidate() const {
    switch (kind_) {
      case QueueKind::kFifo:
        return lq_.empty() ? nullptr : lq_.front().get();
      case QueueKind::kHeap:
        return heap_.empty() ? nullptr : heap_.top().pkt.get();
      case QueueKind::kTakeover:
        if (lq_.empty()) return nullptr;
        return pick_upper() ? uq_.front().get() : lq_.front().get();
    }
    return nullptr;
  }

  /// Removes and returns the candidate. Queue must be non-empty.
  PacketPtr dequeue();

  [[nodiscard]] std::size_t packets() const {
    return kind_ == QueueKind::kHeap ? heap_.size() : lq_.size() + uq_.size();
  }
  [[nodiscard]] bool empty() const { return packets() == 0; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// Smallest deadline currently queued (TimePoint::max() if empty).
  /// Diagnostic only — architectures must not schedule from it.
  [[nodiscard]] TimePoint min_deadline() const;

  /// Dequeues whose packet was not the true queue minimum.
  [[nodiscard]] std::uint64_t order_errors() const { return order_errors_; }

  /// Pre-sizes the rings/heap so a run at the expected occupancy never
  /// allocates past warm-up.
  void reserve(std::size_t packets);

  // --- take-over-scheme diagnostics (zero / empty for other kinds) ---
  /// Packets routed to the take-over queue so far (ablation A1 metric).
  [[nodiscard]] std::uint64_t takeovers() const { return takeovers_; }
  [[nodiscard]] std::size_t ordered_packets() const { return lq_.size(); }
  [[nodiscard]] std::size_t takeover_packets() const { return uq_.size(); }

 private:
  /// One candidate for "minimum of the FIFO window": deadline plus the
  /// arrival sequence it belongs to (so the tracker can tell when its
  /// minimum left the queue).
  struct MonoEntry {
    std::int64_t deadline_ps;
    std::uint64_t seq;
  };

  /// True if the dequeue candidate is U's head (strictly smaller deadline
  /// than L's head; ties stay with L, matching Definition 2's "smallest").
  [[nodiscard]] bool pick_upper() const {
    DQOS_ASSERT(!lq_.empty());  // Lemma 1
    return !uq_.empty() &&
           uq_.front()->local_deadline < lq_.front()->local_deadline;
  }

  void note_enqueue(const Packet& p) { bytes_ += p.size(); }
  /// `min_before_removal` is min_deadline() computed while `p` was still
  /// queued; a strictly larger deadline means another packet deserved to go.
  void note_dequeue(const Packet& p, TimePoint min_before_removal) {
    bytes_ -= p.size();
    if (p.local_deadline > min_before_removal) ++order_errors_;
  }

  QueueKind kind_;
  PacketRing lq_;  ///< fifo: the queue; takeover: L, the ordered queue
  PacketRing uq_;  ///< takeover only: U, the take-over queue
  PacketHeap heap_;              ///< heap only: keyed by deadline
  RingBuffer<MonoEntry> mono_;   ///< fifo only: sliding-window minimum
  std::uint64_t next_seq_ = 0;   ///< arrival counter (heap ties, fifo mono)
  std::uint64_t head_seq_ = 0;   ///< fifo: arrival seq of lq_'s front
  std::uint64_t bytes_ = 0;
  std::uint64_t order_errors_ = 0;
  std::uint64_t takeovers_ = 0;
};

}  // namespace dqos
