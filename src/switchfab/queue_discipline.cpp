#include "switchfab/queue_discipline.hpp"

#include "util/contracts.hpp"

namespace dqos {

std::string_view to_string(QueueKind k) {
  switch (k) {
    case QueueKind::kFifo: return "fifo";
    case QueueKind::kHeap: return "heap";
    case QueueKind::kTakeover: return "takeover";
  }
  return "?";
}

void PacketQueue::enqueue(PacketPtr p) {
  DQOS_EXPECTS(p != nullptr);
  note_enqueue(*p);
  switch (kind_) {
    case QueueKind::kFifo: {
      // Maintain the sliding-window minimum: drop tail candidates the new
      // arrival dominates, then append. The ring stays sorted by deadline
      // (non-decreasing), so its front is always the true queue minimum.
      const std::int64_t d = p->local_deadline.ps();
      while (!mono_.empty() && mono_.back().deadline_ps > d) {
        (void)mono_.pop_back();
      }
      mono_.push_back(MonoEntry{d, next_seq_});
      ++next_seq_;
      lq_.push_back(std::move(p));
      return;
    }
    case QueueKind::kHeap: {
      const TimePoint deadline = p->local_deadline;  // before p moves away
      heap_.push(deadline, next_seq_++, std::move(p));
      return;
    }
    case QueueKind::kTakeover:
      if (lq_.empty()) {
        // Definition 1: both queues empty -> L. (L empty while U holds
        // packets is unreachable, Lemma 1 — assert the invariant instead of
        // handling it.)
        DQOS_ASSERT(uq_.empty());
        lq_.push_back(std::move(p));
        return;
      }
      if (p->local_deadline >= lq_.back()->local_deadline) {
        lq_.push_back(std::move(p));
      } else {
        ++takeovers_;
        uq_.push_back(std::move(p));
      }
      return;
  }
  DQOS_ASSERT(false);
}

PacketPtr PacketQueue::dequeue() {
  switch (kind_) {
    case QueueKind::kFifo: {
      DQOS_EXPECTS(!lq_.empty());
      const TimePoint min_before = min_deadline();
      PacketPtr p = lq_.pop_front();
      note_dequeue(*p, min_before);
      // The departing head owned the tracker's front entry iff it was the
      // window minimum; otherwise its candidacy was already dominated.
      DQOS_ASSERT(!mono_.empty());
      if (mono_.front().seq == head_seq_) (void)mono_.pop_front();
      ++head_seq_;
      return p;
    }
    case QueueKind::kHeap: {
      DQOS_EXPECTS(!heap_.empty());
      // Head is the min: never an order error.
      note_dequeue(*heap_.top().pkt, min_deadline());
      return heap_.pop();
    }
    case QueueKind::kTakeover: {
      DQOS_EXPECTS(!empty());
      const TimePoint min_before = min_deadline();
      PacketRing& q = pick_upper() ? uq_ : lq_;
      PacketPtr p = q.pop_front();
      note_dequeue(*p, min_before);
      return p;
    }
  }
  DQOS_ASSERT(false);
  return nullptr;
}

TimePoint PacketQueue::min_deadline() const {
  switch (kind_) {
    case QueueKind::kFifo:
      return mono_.empty() ? TimePoint::max()
                           : TimePoint::from_ps(mono_.front().deadline_ps);
    case QueueKind::kHeap:
      return heap_.empty() ? TimePoint::max() : heap_.top().key;
    case QueueKind::kTakeover: {
      // L is deadline-sorted (Theorem 1) so its min is the head; U is not,
      // so scan it. U is small in practice (only take-over packets), and
      // this is diagnostics-only — hardware would not do it.
      TimePoint m = lq_.empty() ? TimePoint::max() : lq_.front()->local_deadline;
      for (std::size_t i = 0; i < uq_.size(); ++i) {
        m = min(m, uq_.at(i)->local_deadline);
      }
      return m;
    }
  }
  return TimePoint::max();
}

void PacketQueue::reserve(std::size_t packets) {
  switch (kind_) {
    case QueueKind::kFifo:
      lq_.reserve(packets);
      mono_.reserve(packets);
      return;
    case QueueKind::kHeap:
      heap_.reserve(packets);
      return;
    case QueueKind::kTakeover:
      lq_.reserve(packets);
      uq_.reserve(packets);
      return;
  }
}

}  // namespace dqos
