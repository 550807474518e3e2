#include "switchfab/queue_discipline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "proto/packet_pool.hpp"
#include "util/rng.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

class QueueFixture : public testing::Test {
 protected:
  PacketPtr pkt(std::int64_t deadline_us, FlowId flow = 0, std::uint32_t bytes = 256,
                std::uint32_t seq = 0) {
    PacketPtr p = pool_.make();
    p->local_deadline = TimePoint::from_ps(deadline_us * 1'000'000);
    p->hdr.flow = flow;
    p->hdr.wire_bytes = bytes;
    p->hdr.flow_seq = seq;
    return p;
  }
  PacketPool pool_;
};

// ------------------------------------------------------------------- fifo

class FifoDiscipline : public QueueFixture {};

TEST_F(FifoDiscipline, FifoOrderRegardlessOfDeadline) {
  PacketQueue q(QueueKind::kFifo);
  q.enqueue(pkt(30));
  q.enqueue(pkt(10));
  q.enqueue(pkt(20));
  EXPECT_EQ(q.dequeue()->local_deadline, TimePoint::from_ps(30'000'000));
  EXPECT_EQ(q.dequeue()->local_deadline, TimePoint::from_ps(10'000'000));
  EXPECT_EQ(q.dequeue()->local_deadline, TimePoint::from_ps(20'000'000));
}

TEST_F(FifoDiscipline, OrderErrorsCountHeadNotMin) {
  PacketQueue q(QueueKind::kFifo);
  q.enqueue(pkt(30));  // head with late deadline
  q.enqueue(pkt(10));
  q.enqueue(pkt(20));
  (void)q.dequeue();  // 30 leaves while 10,20 wait -> order error
  (void)q.dequeue();  // 10 is min -> fine
  (void)q.dequeue();  // 20 is min -> fine
  EXPECT_EQ(q.order_errors(), 1u);
}

TEST_F(FifoDiscipline, NoOrderErrorsWhenArrivalsSorted) {
  PacketQueue q(QueueKind::kFifo);
  for (int d = 1; d <= 20; ++d) q.enqueue(pkt(d));
  for (int d = 1; d <= 20; ++d) (void)q.dequeue();
  EXPECT_EQ(q.order_errors(), 0u);
}

TEST_F(FifoDiscipline, MinDeadlineTracksContents) {
  PacketQueue q(QueueKind::kFifo);
  EXPECT_EQ(q.min_deadline(), TimePoint::max());
  q.enqueue(pkt(30));
  q.enqueue(pkt(10));
  EXPECT_EQ(q.min_deadline(), TimePoint::from_ps(10'000'000));
  (void)q.dequeue();  // removes the 30
  EXPECT_EQ(q.min_deadline(), TimePoint::from_ps(10'000'000));
  (void)q.dequeue();
  EXPECT_EQ(q.min_deadline(), TimePoint::max());
}

// ------------------------------------------------------------------- heap

class HeapDiscipline : public QueueFixture {};

TEST_F(HeapDiscipline, AlwaysDequeuesMinimum) {
  PacketQueue q(QueueKind::kHeap);
  Rng rng(5);
  std::vector<std::int64_t> deadlines;
  for (int i = 0; i < 500; ++i) {
    const auto d = static_cast<std::int64_t>(rng.uniform_int(1, 100000));
    deadlines.push_back(d);
    q.enqueue(pkt(d));
  }
  std::sort(deadlines.begin(), deadlines.end());
  for (const auto expect : deadlines) {
    EXPECT_EQ(q.dequeue()->local_deadline.ps(), expect * 1'000'000);
  }
  EXPECT_EQ(q.order_errors(), 0u);
}

TEST_F(HeapDiscipline, StableOnEqualDeadlines) {
  // Equal deadlines leave in arrival order, preserving single-flow order.
  PacketQueue q(QueueKind::kHeap);
  for (std::uint32_t s = 0; s < 50; ++s) q.enqueue(pkt(7, /*flow=*/1, 256, s));
  for (std::uint32_t s = 0; s < 50; ++s) EXPECT_EQ(q.dequeue()->hdr.flow_seq, s);
}

TEST_F(HeapDiscipline, InterleavedEnqueueDequeue) {
  PacketQueue q(QueueKind::kHeap);
  q.enqueue(pkt(50));
  q.enqueue(pkt(10));
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 10 * 1'000'000);
  q.enqueue(pkt(5));
  q.enqueue(pkt(70));
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 5 * 1'000'000);
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 50 * 1'000'000);
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 70 * 1'000'000);
}

// --------------------------------------------------------------- takeover

class TakeoverDiscipline : public QueueFixture {};

TEST_F(TakeoverDiscipline, InOrderArrivalsStayInOrderedQueue) {
  PacketQueue q(QueueKind::kTakeover);
  for (int d = 1; d <= 10; ++d) q.enqueue(pkt(d));
  EXPECT_EQ(q.ordered_packets(), 10u);
  EXPECT_EQ(q.takeover_packets(), 0u);
  EXPECT_EQ(q.takeovers(), 0u);
}

TEST_F(TakeoverDiscipline, SmallerDeadlineTakesOver) {
  PacketQueue q(QueueKind::kTakeover);
  q.enqueue(pkt(100));
  q.enqueue(pkt(50));  // smaller than L tail -> U
  EXPECT_EQ(q.ordered_packets(), 1u);
  EXPECT_EQ(q.takeover_packets(), 1u);
  EXPECT_EQ(q.takeovers(), 1u);
  // Dequeue picks the smaller head: the take-over packet advances.
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 50 * 1'000'000);
  EXPECT_EQ(q.dequeue()->local_deadline.ps(), 100 * 1'000'000);
}

TEST_F(TakeoverDiscipline, EqualToTailGoesToOrderedQueue) {
  // Definition 1: D(p) >= D(L_tail) -> L.
  PacketQueue q(QueueKind::kTakeover);
  q.enqueue(pkt(100));
  q.enqueue(pkt(100));
  EXPECT_EQ(q.ordered_packets(), 2u);
  EXPECT_EQ(q.takeovers(), 0u);
}

TEST_F(TakeoverDiscipline, TieBetweenHeadsPrefersOrderedQueue) {
  PacketQueue q(QueueKind::kTakeover);
  q.enqueue(pkt(100, /*flow=*/1));
  q.enqueue(pkt(50, /*flow=*/2));   // -> U
  q.enqueue(pkt(100, /*flow=*/3));  // -> L (equal to tail)
  // Drain the 50 first; then heads tie at 100: L (flow 1) must win.
  EXPECT_EQ(q.dequeue()->hdr.flow, 2u);
  EXPECT_EQ(q.dequeue()->hdr.flow, 1u);
  EXPECT_EQ(q.dequeue()->hdr.flow, 3u);
}

TEST_F(TakeoverDiscipline, OrderErrorsReducedVsFifo) {
  // Same arrival trace through FIFO and take-over: the take-over queue must
  // commit strictly fewer order errors (the paper's 25% -> 5% effect).
  Rng rng(77);
  std::vector<std::int64_t> trace;
  std::int64_t base = 0;
  for (int i = 0; i < 2000; ++i) {
    base += 10;
    // Mostly ascending with occasional out-of-order lows.
    trace.push_back(rng.chance(0.15) ? base - static_cast<std::int64_t>(rng.uniform_int(1, 500))
                                     : base);
  }
  PacketQueue fifo(QueueKind::kFifo);
  PacketQueue takeover(QueueKind::kTakeover);
  std::uint64_t fifo_errors = 0, takeover_errors = 0;
  // Keep occupancy shallow (a few packets), like a real 8 KB / 2 KB-MTU
  // switch buffer under load.
  for (const std::int64_t d : trace) {
    fifo.enqueue(pkt(d));
    takeover.enqueue(pkt(d));
    while (fifo.packets() > 4) {
      (void)fifo.dequeue();
      (void)takeover.dequeue();
    }
  }
  while (!fifo.empty()) (void)fifo.dequeue();
  while (!takeover.empty()) (void)takeover.dequeue();
  fifo_errors = fifo.order_errors();
  takeover_errors = takeover.order_errors();
  EXPECT_GT(fifo_errors, 0u);
  EXPECT_LT(takeover_errors, fifo_errors / 2);  // "greatly diminished"
}

// --------- appendix property tests (Theorems 1-3) over random traces -------

struct TraceParams {
  std::uint64_t seed;
  int flows;
  int packets;
  double takeover_rate;  // fraction of arrivals with regressed deadlines
};

class TakeoverTheorems : public testing::TestWithParam<TraceParams> {};

TEST_P(TakeoverTheorems, NoOutOfOrderDeliveryWithinFlows) {
  // Theorem 3: under hypotheses (1)(2) — per-flow increasing deadlines and
  // ordered arrivals — departures of each flow preserve arrival order.
  const auto& tp = GetParam();
  Rng rng(tp.seed);
  PacketPool pool;
  PacketQueue q(QueueKind::kTakeover);
  std::vector<std::int64_t> flow_deadline(static_cast<std::size_t>(tp.flows), 0);
  std::vector<std::uint32_t> flow_seq(static_cast<std::size_t>(tp.flows), 0);
  std::map<FlowId, std::uint32_t> last_departed;

  int in_flight = 0, emitted = 0;
  while (emitted < tp.packets || in_flight > 0) {
    const bool can_emit = emitted < tp.packets;
    const bool do_enqueue = can_emit && (in_flight == 0 || rng.chance(0.55));
    if (do_enqueue) {
      const auto f = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::uint64_t>(tp.flows - 1)));
      // Strictly increasing per-flow deadlines (hypothesis 1); across flows,
      // deadlines may regress to trigger take-overs.
      const std::int64_t jump =
          rng.chance(tp.takeover_rate) ? 1 : static_cast<std::int64_t>(rng.uniform_int(5, 120));
      flow_deadline[f] += jump;
      PacketPtr p = pool.make();
      p->local_deadline = TimePoint::from_ps(flow_deadline[f]);
      p->hdr.flow = static_cast<FlowId>(f);
      p->hdr.flow_seq = flow_seq[f]++;
      p->hdr.wire_bytes = 128;
      q.enqueue(std::move(p));
      ++in_flight;
      ++emitted;
    } else {
      PacketPtr p = q.dequeue();
      --in_flight;
      auto [it, inserted] = last_departed.try_emplace(p->hdr.flow, p->hdr.flow_seq);
      if (!inserted) {
        ASSERT_GT(p->hdr.flow_seq, it->second)
            << "flow " << p->hdr.flow << " delivered out of order";
        it->second = p->hdr.flow_seq;
      }
    }
  }
}

TEST_P(TakeoverTheorems, DequeueIsMinOfHeadsAndLemma1Holds) {
  // Theorem 1 (L ordered) is exercised implicitly: candidate() of L is its
  // head; here we check the dequeued packet never has a larger deadline
  // than *both* queue heads had, and that L never empties before U
  // (Lemma 1), by driving the public API only.
  const auto& tp = GetParam();
  Rng rng(tp.seed ^ 0xabcdef);
  PacketPool pool;
  PacketQueue q(QueueKind::kTakeover);
  std::int64_t clock = 0;
  int in_flight = 0;
  for (int i = 0; i < tp.packets; ++i) {
    const bool do_enqueue = in_flight == 0 || rng.chance(0.5);
    if (do_enqueue) {
      clock += 10;
      const bool regress = rng.chance(tp.takeover_rate);
      const std::int64_t d =
          regress ? clock - static_cast<std::int64_t>(rng.uniform_int(1, 40)) : clock;
      PacketPtr p = pool.make();
      p->local_deadline = TimePoint::from_ps(d);
      p->hdr.wire_bytes = 64;
      q.enqueue(std::move(p));
      ++in_flight;
    } else {
      const TimePoint head_min = q.candidate()->local_deadline;
      const TimePoint true_min = q.min_deadline();
      PacketPtr p = q.dequeue();
      --in_flight;
      EXPECT_EQ(p->local_deadline, head_min);
      EXPECT_GE(p->local_deadline, true_min);
      // Lemma 1: if anything remains, L is non-empty (candidate non-null).
      if (in_flight > 0) {
        EXPECT_NE(q.candidate(), nullptr);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, TakeoverTheorems,
    testing::Values(TraceParams{1, 1, 3000, 0.0}, TraceParams{2, 2, 3000, 0.1},
                    TraceParams{3, 8, 5000, 0.2}, TraceParams{4, 16, 5000, 0.4},
                    TraceParams{5, 4, 5000, 0.8}, TraceParams{6, 32, 8000, 0.3}),
    [](const testing::TestParamInfo<TraceParams>& pi) {
      return "seed" + std::to_string(pi.param.seed) + "_flows" +
             std::to_string(pi.param.flows) + "_rate" +
             std::to_string(static_cast<int>(pi.param.takeover_rate * 100));
    });

// --------- properties common to all disciplines ---------------------------

class AnyQueue : public testing::TestWithParam<QueueKind> {};

TEST_P(AnyQueue, BytesAccounting) {
  PacketPool pool;
  PacketQueue q(GetParam());
  auto mk = [&](std::uint32_t bytes, std::int64_t d) {
    PacketPtr p = pool.make();
    p->hdr.wire_bytes = bytes;
    p->local_deadline = TimePoint::from_ps(d);
    return p;
  };
  EXPECT_EQ(q.bytes(), 0u);
  q.enqueue(mk(100, 5));
  q.enqueue(mk(200, 3));
  EXPECT_EQ(q.bytes(), 300u);
  EXPECT_EQ(q.packets(), 2u);
  (void)q.dequeue();
  (void)q.dequeue();
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST_P(AnyQueue, CandidateNullWhenEmpty) {
  PacketQueue q(GetParam());
  EXPECT_EQ(q.candidate(), nullptr);
  EXPECT_EQ(q.min_deadline(), TimePoint::max());
}

TEST_P(AnyQueue, CandidateMatchesDequeue) {
  PacketPool pool;
  Rng rng(99);
  PacketQueue q(GetParam());
  for (int i = 0; i < 200; ++i) {
    if (q.empty() || rng.chance(0.6)) {
      PacketPtr p = pool.make();
      p->hdr.wire_bytes = 64;
      p->local_deadline = TimePoint::from_ps(static_cast<std::int64_t>(rng.uniform_int(0, 1000)));
      q.enqueue(std::move(p));
    } else {
      const Packet* c = q.candidate();
      ASSERT_NE(c, nullptr);
      PacketPtr p = q.dequeue();
      EXPECT_EQ(p.get(), c);
    }
  }
}

TEST_P(AnyQueue, PerFlowOrderPreservedUnderHypotheses) {
  // All three disciplines must avoid out-of-order delivery when flows have
  // increasing deadlines (FIFO trivially, heap via stable ties, take-over
  // via Theorem 3).
  PacketPool pool;
  Rng rng(123);
  PacketQueue q(GetParam());
  std::vector<std::int64_t> flow_deadline(4, 0);
  std::vector<std::uint32_t> flow_seq(4, 0);
  std::map<FlowId, std::uint32_t> last;
  int in_flight = 0;
  for (int i = 0; i < 4000; ++i) {
    if (in_flight == 0 || rng.chance(0.5)) {
      const auto f = static_cast<std::size_t>(rng.uniform_int(0, 3));
      flow_deadline[f] += static_cast<std::int64_t>(rng.uniform_int(1, 50));
      PacketPtr p = pool.make();
      p->local_deadline = TimePoint::from_ps(flow_deadline[f]);
      p->hdr.flow = static_cast<FlowId>(f);
      p->hdr.flow_seq = flow_seq[f]++;
      p->hdr.wire_bytes = 64;
      q.enqueue(std::move(p));
      ++in_flight;
    } else {
      PacketPtr p = q.dequeue();
      --in_flight;
      auto [it, inserted] = last.try_emplace(p->hdr.flow, p->hdr.flow_seq);
      if (!inserted) {
        ASSERT_GT(p->hdr.flow_seq, it->second);
        it->second = p->hdr.flow_seq;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AnyQueue,
                         testing::Values(QueueKind::kFifo, QueueKind::kHeap,
                                         QueueKind::kTakeover),
                         [](const testing::TestParamInfo<QueueKind>& pi) {
                           return std::string(to_string(pi.param));
                         });

TEST(QueueKindTest, Names) {
  EXPECT_EQ(to_string(QueueKind::kFifo), "fifo");
  EXPECT_EQ(to_string(QueueKind::kHeap), "heap");
  EXPECT_EQ(to_string(QueueKind::kTakeover), "takeover");
}

}  // namespace
}  // namespace dqos
