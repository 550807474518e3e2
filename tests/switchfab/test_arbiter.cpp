#include "switchfab/arbiter.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dqos {
namespace {

constexpr auto kAll = [](std::size_t) { return true; };

/// A candidate row as Switch::voq_dl_ holds it: one head deadline per
/// input, kNoCandidate for an empty VOQ.
constexpr std::int64_t kNone = kNoCandidate;

std::vector<VcId> order_of(const WeightedVcPolicy& pol) {
  std::vector<VcId> out;
  pol.order(out);
  return out;
}

TEST(EdfPick, PicksMinimumDeadline) {
  const std::vector<std::int64_t> row{300,   kNone, kNone, 100,
                                      kNone, kNone, kNone, 200};
  EXPECT_EQ(edf_pick(row.data(), row.size(), kAll), 3u);
}

TEST(EdfPick, TieBreaksByLowestInput) {
  const std::vector<std::int64_t> row{kNone, kNone, 100, kNone, kNone, 100};
  EXPECT_EQ(edf_pick(row.data(), row.size(), kAll), 2u);
}

TEST(EdfPick, EmptyYieldsNothing) {
  const std::vector<std::int64_t> row(4, kNone);
  EXPECT_EQ(edf_pick(row.data(), row.size(), kAll), kNoWinner);
}

TEST(EdfPick, BlockedMinimumFallsBackToMinimumEligible) {
  // Input 1 holds the row minimum but its read port is busy (or its head
  // does not fit): the grant goes to the smallest eligible deadline, with
  // the tie between inputs 2 and 4 going to the lower index.
  const std::vector<std::int64_t> row{500, 100, 200, kNone, 200};
  const auto not_1 = [](std::size_t in) { return in != 1; };
  EXPECT_EQ(edf_pick(row.data(), row.size(), not_1), 2u);
  // Nothing eligible: no winner even though the row is non-empty.
  const auto none = [](std::size_t) { return false; };
  EXPECT_EQ(edf_pick(row.data(), row.size(), none), kNoWinner);
}

TEST(RoundRobinPick, RotatesAcrossGrants) {
  const std::vector<std::int64_t> row{0, 0, 0, 0};
  std::size_t last = kNoWinner;
  std::vector<std::size_t> grants;
  for (int i = 0; i < 8; ++i) {
    const std::size_t w = round_robin_pick(row.data(), row.size(), last, kAll);
    ASSERT_NE(w, kNoWinner);
    grants.push_back(w);
    last = w;
  }
  EXPECT_EQ(grants, (std::vector<std::size_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(RoundRobinPick, SkipsAbsentInputs) {
  const std::vector<std::int64_t> row{kNone, 0, kNone, 0};
  std::size_t last = kNoWinner;
  last = round_robin_pick(row.data(), row.size(), last, kAll);
  EXPECT_EQ(last, 1u);
  last = round_robin_pick(row.data(), row.size(), last, kAll);
  EXPECT_EQ(last, 3u);
  last = round_robin_pick(row.data(), row.size(), last, kAll);  // wraps
  EXPECT_EQ(last, 1u);
  // An ineligible input is skipped like an absent one.
  const auto not_3 = [](std::size_t in) { return in != 3; };
  EXPECT_EQ(round_robin_pick(row.data(), row.size(), 1, not_3), 1u);
}

TEST(RoundRobinPick, PointerAdvancesOnlyOnGrant) {
  const std::vector<std::int64_t> row{0, kNone, 0, kNone};
  // Two picks without a grant: same winner (a credit-blocked retry must
  // not unfairly skip an input).
  EXPECT_EQ(round_robin_pick(row.data(), row.size(), kNoWinner, kAll), 0u);
  EXPECT_EQ(round_robin_pick(row.data(), row.size(), kNoWinner, kAll), 0u);
}

TEST(WeightedVc, OrderContainsAllVcsOnce) {
  WeightedVcPolicy pol({1, 1, 1, 1});
  const auto order = order_of(pol);
  ASSERT_EQ(order.size(), 4u);
  std::vector<bool> seen(4, false);
  for (const VcId vc : order) seen[vc] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(WeightedVc, EqualWeightsShareEvenly) {
  WeightedVcPolicy pol({1, 1}, 4096);
  std::vector<std::uint64_t> bytes(2, 0);
  // All VCs always have traffic: grant repeatedly to the first VC in order.
  for (int i = 0; i < 10000; ++i) {
    const VcId vc = order_of(pol).front();
    bytes[vc] += 1024;
    pol.granted(vc, 1024);
  }
  const double share0 = static_cast<double>(bytes[0]) / (10000.0 * 1024.0);
  EXPECT_NEAR(share0, 0.5, 0.02);
}

TEST(WeightedVc, WeightsRespectedUnderSaturation) {
  WeightedVcPolicy pol({3, 1}, 4096);
  std::vector<std::uint64_t> bytes(2, 0);
  for (int i = 0; i < 40000; ++i) {
    const VcId vc = order_of(pol).front();
    bytes[vc] += 512;
    pol.granted(vc, 512);
  }
  const double share0 =
      static_cast<double>(bytes[0]) / static_cast<double>(bytes[0] + bytes[1]);
  EXPECT_NEAR(share0, 0.75, 0.03);
}

TEST(WeightedVc, WorkConservingWhenVcSkipped) {
  // If the preferred VC is empty, the switch takes the next in order; the
  // policy then treats the actually-granted VC as current.
  WeightedVcPolicy pol({1, 1}, 4096);
  // Simulate: VC0 always empty; grants all go to VC1.
  for (int i = 0; i < 100; ++i) pol.granted(1, 1024);
  const auto order = order_of(pol);
  EXPECT_EQ(order.size(), 2u);  // still valid and complete
}

}  // namespace
}  // namespace dqos
