#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

#include <memory>
#include <vector>

namespace dqos {
namespace {

using namespace dqos::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::zero());
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ps(300), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_ps(100), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_ps(200), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ps(), 300);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SimultaneousEventsFifo) {
  // Events at the same instant fire in scheduling order — the determinism
  // guarantee the whole simulator's reproducibility rests on.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(TimePoint::from_ps(1000), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SameInstantFiresByEntityThenCounter) {
  // The key is (time, entity, counter): at one instant every event of a
  // lower entity fires before any of a higher one, whatever the schedule
  // order; within an entity the lane counter decides.
  Simulator sim;
  EventLane a(7);
  EventLane b(3);
  std::vector<int> order;
  const TimePoint t = TimePoint::from_ps(1000);
  sim.schedule_at(t, a, [&] { order.push_back(70); });
  sim.schedule_at(t, b, [&] { order.push_back(30); });
  sim.schedule_at(t, a, [&] { order.push_back(71); });
  sim.schedule_at(t, [&] { order.push_back(0); });  // entity 0
  sim.schedule_at(t, b, [&] { order.push_back(31); });
  std::vector<std::uint64_t> keys;
  sim.set_fire_hook({[](void* ctx, std::uint64_t key, TimePoint) {
                       static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(
                           key);
                     },
                     &keys});
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 30, 31, 70, 71}));
  ASSERT_EQ(keys.size(), 5u);
  EXPECT_EQ(keys[0], 1u);  // entity 0, counter 1
  EXPECT_EQ(keys[1], (std::uint64_t{3} << EventLane::kCounterBits) | 1);
  EXPECT_EQ(keys[4], (std::uint64_t{7} << EventLane::kCounterBits) | 2);
}

TEST(Simulator, OneLaneStaysFifo) {
  // Same-instant events of one lane fire in scheduling order, interleaved
  // with another lane's or not.
  Simulator sim;
  EventLane lane(5);
  EventLane other(9);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(TimePoint::from_ps(1000), lane,
                    [&order, i] { order.push_back(i); });
    sim.schedule_at(TimePoint::from_ps(1000), other, [] {});
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayChildUnderLowerEntityFiresNext) {
  // A zero-delay child keyed below its parent (lower entity) is the
  // smallest pending key, so it fires right after the parent — ahead of
  // same-instant events whose keys lie between the two. The pop order is
  // then not ascending by key; merge_key() (the running maximum) is, which
  // is what the sharded engine merges by (DESIGN.md §12).
  Simulator sim;
  EventLane low(2);
  EventLane mid(5);
  EventLane high(8);
  std::vector<int> order;
  std::vector<std::uint64_t> merge_keys;
  const TimePoint t = TimePoint::from_ps(1000);
  sim.schedule_at(t, high, [&] {
    order.push_back(8);
    merge_keys.push_back(sim.merge_key());
    sim.schedule_after(Duration::zero(), low, [&] {
      order.push_back(2);
      merge_keys.push_back(sim.merge_key());
    });
  });
  sim.schedule_at(t, high, [&] {
    order.push_back(9);
    merge_keys.push_back(sim.merge_key());
  });
  sim.schedule_at(t, mid, [&] {
    order.push_back(5);
    merge_keys.push_back(sim.merge_key());
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 8, 2, 9}));
  const std::uint64_t mid1 = (std::uint64_t{5} << EventLane::kCounterBits) | 1;
  const std::uint64_t high1 = (std::uint64_t{8} << EventLane::kCounterBits) | 1;
  const std::uint64_t high2 = (std::uint64_t{8} << EventLane::kCounterBits) | 2;
  EXPECT_EQ(merge_keys,
            (std::vector<std::uint64_t>{mid1, high1, high1, high2}));
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_after(5_us, [&] {
    fired = sim.now();
  });
  sim.run();
  EXPECT_EQ(fired.ps(), 5'000'000);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) sim.schedule_after(1_us, tick);
  };
  sim.schedule_after(1_us, tick);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now().ps(), 10 * 1'000'000);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(1_us, [&] { fired = true; });
  sim.schedule_after(2_us, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now().ps(), 2'000'000);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(0);
  sim.cancel(999);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_until(TimePoint::from_ps(7777));
  EXPECT_EQ(sim.now().ps(), 7777);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_ps(100), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_ps(200), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_ps(300), [&] { ++fired; });
  sim.run_until(TimePoint::from_ps(200));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ps(), 200);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(TimePoint::from_ps(50), [&] { fired = true; });
  sim.cancel(id);
  sim.run_until(TimePoint::from_ps(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now().ps(), 100);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_for(3_us);
  sim.run_for(2_us);
  EXPECT_EQ(sim.now().ps(), 5'000'000);
}

TEST(SimulatorDeathTest, SchedulingInPastAborts) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_ps(100), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(TimePoint::from_ps(50), [] {}), "precondition");
}

TEST(Simulator, EventCascadeAtSameInstant) {
  // An event scheduling another event at the *same* time must fire it in
  // this step loop (time does not advance).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ps(10), [&] {
    order.push_back(1);
    sim.schedule_at(TimePoint::from_ps(10), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().ps(), 10);
}

TEST(Simulator, RandomScheduleCancelStress) {
  // Property: every scheduled-and-not-cancelled event fires exactly once,
  // in non-decreasing time order, regardless of interleaving.
  Simulator sim;
  Rng rng(7);
  std::vector<EventId> pending;
  std::uint64_t fired = 0, scheduled = 0, cancelled = 0;
  TimePoint last_fire;
  for (int i = 0; i < 5000; ++i) {
    if (pending.empty() || rng.chance(0.7)) {
      const auto delay =
          Duration::picoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 100000)));
      pending.push_back(sim.schedule_after(delay, [&] {
        EXPECT_GE(sim.now(), last_fire);
        last_fire = sim.now();
        ++fired;
      }));
      ++scheduled;
    } else {
      const auto j = rng.uniform_int(0, pending.size() - 1);
      sim.cancel(pending[j]);
      pending[j] = pending.back();
      pending.pop_back();
      ++cancelled;
    }
    if (rng.chance(0.1)) sim.step();  // interleave execution
  }
  sim.run();
  // Some cancels may have targeted already-fired events; the invariant is
  // fired + (effective cancels) == scheduled, bounded by attempted cancels.
  EXPECT_LE(fired, scheduled);
  EXPECT_GE(fired, scheduled - cancelled);
}

TEST(Simulator, CancelBookkeepingStaysBounded) {
  // Regression: cancel() used to park every cancelled id in a tombstone set
  // forever. The set must shrink as the heap pops (or skips) entries, so a
  // long-running schedule/cancel churn cannot grow memory without bound.
  Simulator sim;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    ids.reserve(100);
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.schedule_after(Duration::nanoseconds(i + 1), [] {}));
    }
    for (const EventId id : ids) sim.cancel(id);
    sim.run();
    EXPECT_EQ(sim.events_pending(), 0u);
    EXPECT_EQ(sim.cancelled_pending(), 0u);  // tombstones fully reclaimed
  }
}

TEST(Simulator, CancelAfterFireIsNoopAndLeavesNoTombstone) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.cancel(id);  // already fired: must not register a tombstone
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DoubleCancelRegistersOneTombstone) {
  Simulator sim;
  const EventId id = sim.schedule_after(Duration::nanoseconds(5), [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.cancelled_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, CancelThenRescheduleStorm) {
  // The host retry-timer pattern, at storm intensity: one logical timer is
  // cancelled and re-armed thousands of times; only the last arming may
  // fire, and the indexed heap must not leak slots or tombstones.
  Simulator sim;
  int fired = 0;
  EventId timer = 0;
  for (int i = 0; i < 10000; ++i) {
    if (i > 0) sim.cancel(timer);
    timer = sim.schedule_after(Duration::nanoseconds(100 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoop) {
  // Generation tags: once an event fires, its id must never alias a newer
  // event that recycled the same heap slot.
  Simulator sim;
  int first = 0, second = 0;
  const EventId old_id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  // The freed slot is recycled by the next schedule; the stale id differs
  // only in generation.
  const EventId new_id = sim.schedule_after(Duration::nanoseconds(1), [&] { ++second; });
  EXPECT_NE(old_id, new_id);
  sim.cancel(old_id);  // stale: must NOT cancel the new occupant
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, CancelInsideCallback) {
  // A firing event cancels a later one and a simultaneous one — both from
  // inside the kernel's dispatch loop.
  Simulator sim;
  bool later_fired = false, peer_fired = false;
  const EventId later =
      sim.schedule_at(TimePoint::from_ps(200), [&] { later_fired = true; });
  EventId peer = 0;
  sim.schedule_at(TimePoint::from_ps(100), [&] {
    sim.cancel(later);
    sim.cancel(peer);
  });
  peer = sim.schedule_at(TimePoint::from_ps(100), [&] { peer_fired = true; });
  sim.run();
  EXPECT_FALSE(later_fired);
  EXPECT_FALSE(peer_fired);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_EQ(sim.now().ps(), 100);
}

TEST(Simulator, CancelOwnEventInsideItsCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  EventId self = 0;
  self = sim.schedule_after(Duration::nanoseconds(1), [&] {
    ++fired;
    sim.cancel(self);  // already popped: must be a no-op, not a tombstone
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, MoveOnlyClosure) {
  // The kernel accepts move-only callables directly (the zero-copy packet
  // hand-off relies on this — no shared_ptr shim).
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sim.schedule_after(Duration::nanoseconds(1),
                     [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, CancelDestroysClosureEagerly) {
  // cancel() releases the closure's resources immediately, not at pop time
  // — a cancelled retry timer must not pin its captures for the remaining
  // heap lifetime of the tombstone.
  Simulator sim;
  auto tracked = std::make_shared<int>(7);
  std::weak_ptr<int> watch = tracked;
  const EventId id = sim.schedule_after(Duration::nanoseconds(1000),
                                        [p = std::move(tracked)] { (void)*p; });
  EXPECT_FALSE(watch.expired());
  sim.cancel(id);
  EXPECT_TRUE(watch.expired());
  sim.run();
}

TEST(Simulator, DrainDueFiresExactlyTheDueBatch) {
  // The public batch API (DESIGN.md §11): drain whole due batches until
  // nothing at or before the limit remains, leaving later events pending.
  Simulator sim;
  std::vector<int> fired;
  for (const int t : {1, 5, 9, 9, 12}) {
    sim.schedule_at(TimePoint::from_ps(t * 1000), [&fired, t] { fired.push_back(t); });
  }
  while (sim.drain_due(TimePoint::from_ps(9000))) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 5, 9, 9}));
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.now().ps(), 9000);  // clock follows the last firing
  sim.run();
  EXPECT_EQ(fired.back(), 12);
  EXPECT_EQ(sim.now().ps(), 12000);
}

TEST(Simulator, CancelStormMidBatchSkipsTombstonedRungEntries) {
  // drain_due() fires a whole due batch per loop iteration; the trigger
  // (lowest seq at the instant) cancels events *later in the same sorted
  // rung*, which the eager cancel path tombstones in place. The drain
  // must skip those sentinels without firing or reordering anything.
  Simulator sim;
  std::vector<EventId> victims;
  int fired_victims = 0;
  int fired_keepers = 0;
  sim.schedule_after(Duration::nanoseconds(10), [&] {
    for (const EventId id : victims) sim.cancel(id);
  });
  for (int i = 0; i < 64; ++i) {
    victims.push_back(
        sim.schedule_after(Duration::nanoseconds(10), [&] { ++fired_victims; }));
    sim.schedule_after(Duration::nanoseconds(10), [&] { ++fired_keepers; });
  }
  sim.run();
  EXPECT_EQ(fired_victims, 0);
  EXPECT_EQ(fired_keepers, 64);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, TombstoneHeavyBatchDrainKeepsSurvivorOrder) {
  // 90% of a 10k-event band is cancelled up front — a mix of in-rung
  // sentinels and bucket tombstones. The batch drain must bulk-skip all
  // of them, fire the survivors in exact (time, seq) order, and reclaim
  // every tombstone by the end of the run.
  Simulator sim;
  std::vector<EventId> ids;
  std::vector<int> order;
  ids.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sim.schedule_after(Duration::nanoseconds(1 + (i % 97)),
                                     [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  const auto t_of = [](int tag) { return 1 + (tag % 97); };
  for (std::size_t k = 1; k < order.size(); ++k) {
    const bool ordered =
        t_of(order[k - 1]) < t_of(order[k]) ||
        (t_of(order[k - 1]) == t_of(order[k]) && order[k - 1] < order[k]);
    EXPECT_TRUE(ordered) << order[k - 1] << " fired before " << order[k];
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
}

TEST(Simulator, ScheduleInsideDrainBatchHonorsTheLimit) {
  // A callback firing mid-batch inserts a new event inside the same due
  // window (must fire in this drain) and one past the limit (must stay
  // pending) — the reentrancy case the batch loop's re-read guards.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_ps(1000), [&] {
    fired.push_back(1);
    sim.schedule_at(TimePoint::from_ps(1500), [&] { fired.push_back(15); });
    sim.schedule_at(TimePoint::from_ps(9000), [&] { fired.push_back(90); });
  });
  sim.schedule_at(TimePoint::from_ps(2000), [&] { fired.push_back(2); });
  sim.run_until(TimePoint::from_ps(3000));
  EXPECT_EQ(fired, (std::vector<int>{1, 15, 2}));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(fired.back(), 90);
}

TEST(Simulator, InterleavedCancelRescheduleKeepsFifoOrder) {
  // Cancelling and rescheduling at one instant must not perturb the FIFO
  // order of the surviving same-time events (the determinism contract).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        sim.schedule_at(TimePoint::from_ps(500), [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 20; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  std::vector<int> expect;
  for (int i = 0; i < 20; i += 2) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace dqos
