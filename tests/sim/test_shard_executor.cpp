/// \file test_shard_executor.cpp
/// The sharded engine's mail contract, driven by hand on a 2-shard
/// ShardExecutor (inline and threaded): mail a shard posts during a window
/// is delivered by its destination shard at the start of the next drain,
/// yet it bounds the next window's horizon while in transit, and neither a
/// serial instant nor a caller of run_until ever sees it undelivered.
#include "sim/shard_executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace dqos {
namespace {

constexpr std::int64_t kLookaheadPs = 100;

/// One fired mailbox or calendar event: its time and the window it ran in.
struct Fired {
  std::int64_t at_ps;
  std::uint64_t window;
};

class ShardExecutorMail : public testing::TestWithParam<bool> {
 protected:
  ShardExecutorMail() : engine_(control_, 2, kLookaheadPs, GetParam()) {}

  /// Schedules, on shard `src` at `t_ps`, an event that posts one message
  /// to the other shard landing at `land_ps`.
  void post_at(std::uint32_t src, std::int64_t t_ps, std::int64_t land_ps) {
    engine_.shard_sim(src).schedule_at(
        TimePoint::from_ps(t_ps), [this, src, land_ps] {
          CrossMsg m;
          m.at_ps = land_ps;
          m.key = lanes_[src].take();
          m.kind = static_cast<std::uint8_t>(1 - src);
          m.ctx = this;
          m.deliver = &ShardExecutorMail::deliver;
          engine_.log(src).post(1 - src, std::move(m));
        });
  }

  /// Schedules a plain event on shard `s` that records when it fired.
  void record_at(std::uint32_t s, std::int64_t t_ps) {
    engine_.shard_sim(s).schedule_at(TimePoint::from_ps(t_ps),
                                     [this, s] { record(s); });
  }

  void record(std::uint32_t s) {
    fired_[s].push_back(
        Fired{engine_.shard_sim(s).now().ps(), engine_.window_id()});
  }

  static void deliver(CrossMsg&& m) {
    auto* self = static_cast<ShardExecutorMail*>(m.ctx);
    const std::uint32_t dst = m.kind;
    if (m.at_ps == CrossMsg::kNoLanding) {
      ++self->notes_applied_;
      return;
    }
    self->engine_.shard_sim(dst).schedule_at(
        TimePoint::from_ps(m.at_ps), m.key,
        [self, dst] { self->record(dst); });
  }

  Simulator control_;
  ShardExecutor engine_;
  EventLane lanes_[2] = {EventLane(10), EventLane(11)};
  std::vector<Fired> fired_[2];
  int notes_applied_ = 0;  ///< written on shard 1's thread only
};

TEST_P(ShardExecutorMail, PendingMailBoundsTheNextHorizon) {
  // Shard 0 mails shard 1 a landing at 150, far ahead of shard 1's own
  // head at 1000 and with nothing left on shard 0. The window after the
  // first must stop at 150 + L: ignoring the mail would open [1000, 1100)
  // and fire both shard-1 events in one window.
  post_at(0, 0, 150);
  record_at(1, 1000);
  engine_.shard_sim(0).schedule_at(TimePoint::zero(), [this] {
    CrossMsg note;
    note.at_ps = CrossMsg::kNoLanding;
    note.kind = 1;
    note.ctx = this;
    note.deliver = &ShardExecutorMail::deliver;
    engine_.log(0).post(1, std::move(note));
  });
  engine_.run_until(TimePoint::from_ps(5000));
  ASSERT_EQ(fired_[1].size(), 2u);
  EXPECT_EQ(fired_[1][0].at_ps, 150);
  EXPECT_EQ(fired_[1][1].at_ps, 1000);
  EXPECT_LT(fired_[1][0].window, fired_[1][1].window);
  EXPECT_EQ(engine_.windows_run(), 3u);
  // The note was applied, but it neither landed nor counts as traffic.
  EXPECT_EQ(notes_applied_, 1);
  EXPECT_EQ(engine_.cross_messages(), 1u);
}

TEST_P(ShardExecutorMail, RunUntilReturnsWithMailOnTheCalendar) {
  // The first window posts a message landing past the target: run_until
  // returns with it scheduled on shard 1 (counted by events_pending), and
  // the next run fires it.
  post_at(0, 0, 300);
  engine_.run_until(TimePoint::from_ps(200));
  EXPECT_TRUE(fired_[1].empty());
  EXPECT_EQ(engine_.shard_sim(1).events_pending(), 1u);
  EXPECT_EQ(engine_.events_pending(), 1u);
  EXPECT_EQ(engine_.cross_messages(), 1u);
  engine_.run_until(TimePoint::from_ps(400));
  ASSERT_EQ(fired_[1].size(), 1u);
  EXPECT_EQ(fired_[1][0].at_ps, 300);
  EXPECT_EQ(engine_.events_pending(), 0u);
}

TEST_P(ShardExecutorMail, MailLandingAtTheTargetFires) {
  post_at(0, 0, 200);
  post_at(1, 0, 150);
  engine_.run_until(TimePoint::from_ps(200));
  ASSERT_EQ(fired_[1].size(), 1u);
  EXPECT_EQ(fired_[1][0].at_ps, 200);
  ASSERT_EQ(fired_[0].size(), 1u);
  EXPECT_EQ(fired_[0][0].at_ps, 150);
  EXPECT_EQ(engine_.events_pending(), 0u);
  EXPECT_EQ(engine_.cross_messages(), 2u);
}

TEST_P(ShardExecutorMail, InstantRightAfterAWindowSeesDeliveredMail) {
  // The control event at 100 closes the first window at 99; the mail that
  // window posted (landing at 500) must already sit on shard 1's calendar
  // when the instant runs — control events may read any shard's state.
  post_at(0, 0, 500);
  std::size_t seen_on_shard1 = 0;
  std::size_t seen_total = 0;
  control_.schedule_at(TimePoint::from_ps(100), [&] {
    seen_on_shard1 = engine_.shard_sim(1).events_pending();
    seen_total = engine_.events_pending();
  });
  engine_.run_until(TimePoint::from_ps(1000));
  EXPECT_EQ(engine_.instants_run(), 1u);
  EXPECT_EQ(seen_on_shard1, 1u);
  EXPECT_EQ(seen_total, 1u);
  ASSERT_EQ(fired_[1].size(), 1u);
  EXPECT_EQ(fired_[1][0].at_ps, 500);
}

INSTANTIATE_TEST_SUITE_P(InlineAndThreaded, ShardExecutorMail,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool>& p) {
                           return p.param ? "Threaded" : "Inline";
                         });

}  // namespace
}  // namespace dqos
