/// Weighted VC arbitration end-to-end at a switch (the Traditional
/// multi-VC ablation's machinery): with both VCs continuously backlogged,
/// the link's byte shares must follow the configured table.
#include <gtest/gtest.h>

#include "proto/packet_pool.hpp"
#include "switchfab/switch.hpp"
#include "util/rng.hpp"

namespace dqos {
namespace {

using namespace dqos::literals;

struct CountingHost final : PacketReceiver {
  void receive_packet(PacketPtr p, PortId) override {
    bytes_per_vc[p->hdr.vc] += p->size();
    from_switch->return_credits(p->hdr.vc, p->size());
  }
  Channel* from_switch = nullptr;
  std::array<std::uint64_t, 4> bytes_per_vc{};
};

class WeightedVcFixture : public testing::Test {
 protected:
  void build(std::vector<std::uint32_t> weights) {
    SwitchParams params;
    params.arch = SwitchArch::kTraditional2Vc;
    params.num_vcs = static_cast<std::uint8_t>(weights.size());
    params.vc_weights = std::move(weights);
    sw_ = std::make_unique<Switch>(sim_, 100, 4, params);
    for (PortId port = 0; port < 4; ++port) {
      // Injection credits must mirror the switch's input buffer capacity.
      in_[port] = std::make_unique<Channel>(sim_, Bandwidth::from_gbps(8.0),
                                            100_ns, params.num_vcs,
                                            params.buffer_bytes_per_vc);
      in_[port]->connect_to(sw_.get(), port);
      sw_->attach_input(port, in_[port].get());
      out_[port] = std::make_unique<Channel>(sim_, Bandwidth::from_gbps(8.0),
                                             100_ns, params.num_vcs, 1 << 20);
      out_[port]->connect_to(&hosts_[port], 0);
      sw_->attach_output(port, out_[port].get());
      hosts_[port].from_switch = out_[port].get();
    }
  }

  /// Feeds `n` packets of `vc` from input 0 toward output 1 over time;
  /// the default interval offers twice the link rate so the output stays
  /// saturated (packets without injection credits are skipped).
  void feed(VcId vc, int n, std::int64_t interval_ps = 1'100'000) {
    for (int i = 0; i < n; ++i) {
      sim_.schedule_at(TimePoint::from_ps(i * interval_ps), [this, vc] {
        PacketPtr p = pool_.make();
        p->hdr.wire_bytes = 2048;
        p->hdr.vc = vc;
        p->hdr.tclass = vc == 0 ? TrafficClass::kControl : TrafficClass::kBestEffort;
        p->hdr.ttd = 1_ms;
        p->hdr.route.push_hop(1);
        if (in_[0]->has_credits(vc, 2048)) {
          in_[0]->consume_credits(vc, 2048);
          in_[0]->send(std::move(p));
        }
      });
    }
  }

  Simulator sim_;
  PacketPool pool_;
  std::unique_ptr<Switch> sw_;
  std::array<std::unique_ptr<Channel>, 4> in_, out_;
  std::array<CountingHost, 4> hosts_;
};

TEST_F(WeightedVcFixture, EqualWeightsShareTheLinkEvenly) {
  build({1, 1});
  feed(0, 400);
  feed(1, 400);
  sim_.run();
  const double b0 = static_cast<double>(hosts_[1].bytes_per_vc[0]);
  const double b1 = static_cast<double>(hosts_[1].bytes_per_vc[1]);
  ASSERT_GT(b0 + b1, 0.0);
  EXPECT_NEAR(b0 / (b0 + b1), 0.5, 0.06);
}

TEST_F(WeightedVcFixture, ThreeToOneWeights) {
  build({3, 1});
  feed(0, 600);
  feed(1, 600);
  sim_.run();
  const double b0 = static_cast<double>(hosts_[1].bytes_per_vc[0]);
  const double b1 = static_cast<double>(hosts_[1].bytes_per_vc[1]);
  EXPECT_NEAR(b0 / (b0 + b1), 0.75, 0.08);
}

TEST_F(WeightedVcFixture, IdleVcDoesNotWasteBandwidth) {
  // Work conservation: only VC1 offers traffic; it gets the whole link.
  // Feed at a sustainable rate so no injection is credit-skipped.
  build({3, 1});
  feed(1, 200, 2'300'000);
  sim_.run();
  EXPECT_EQ(hosts_[1].bytes_per_vc[0], 0u);
  EXPECT_EQ(hosts_[1].bytes_per_vc[1], 200u * 2048u);
}

TEST_F(WeightedVcFixture, FourVcTable) {
  build({4, 2, 1, 1});
  for (VcId vc = 0; vc < 4; ++vc) feed(vc, 400);
  sim_.run();
  double total = 0;
  for (const auto b : hosts_[1].bytes_per_vc) total += static_cast<double>(b);
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(static_cast<double>(hosts_[1].bytes_per_vc[0]) / total, 0.5, 0.08);
  EXPECT_NEAR(static_cast<double>(hosts_[1].bytes_per_vc[1]) / total, 0.25, 0.06);
}

// --------- banked-deficit bound (policy-level regression) -----------------

std::vector<VcId> order_of(const WeightedVcPolicy& pol) {
  std::vector<VcId> out;
  pol.order(out);
  return out;
}

/// The DRR bank must never exceed one allocation plus one quantum, no
/// matter how adversarial the grant sequence: without the clamp, a VC that
/// the ring repeatedly skips (blocked upstream) would accrue unbounded
/// credit and then monopolize the link for arbitrarily long when it wakes.
TEST(WeightedVcDeficit, BankIsClampedUnderAdversarialSequences) {
  const std::uint32_t quantum = 4096;
  WeightedVcPolicy pol({4, 2, 1, 1}, quantum);
  Rng rng(2024);
  const auto check_bound = [&] {
    for (VcId vc = 0; vc < 4; ++vc) {
      EXPECT_LE(pol.deficit(vc), pol.allocation(vc) + quantum)
          << "vc " << static_cast<int>(vc) << " hoarded credit";
    }
  };
  check_bound();
  // Phase 1: VC3 never transmits (simulates a long credit block) while the
  // others cycle with max-size packets — the classic hoarding setup.
  for (int i = 0; i < 50'000; ++i) {
    pol.granted(static_cast<VcId>(rng.uniform_int(0, 2)), 2048);
    check_bound();
  }
  // Phase 2: VC3 wakes. Its first service round must be bounded by one
  // allocation + one quantum of bytes, not 50k rounds of back-credit.
  std::int64_t vc3_burst = 0;
  pol.granted(3, 2048);
  vc3_burst += 2048;
  while (order_of(pol).front() == 3) {
    pol.granted(3, 2048);
    vc3_burst += 2048;
    ASSERT_LE(vc3_burst, pol.allocation(3) + quantum + 2048);
  }
  check_bound();
  // Phase 3: random interleavings with mixed sizes (including overshooting
  // jumbo grants) keep the bank bounded on every step.
  for (int i = 0; i < 50'000; ++i) {
    const auto vc = static_cast<VcId>(rng.uniform_int(0, 3));
    const auto bytes =
        static_cast<std::uint32_t>(rng.uniform_int(64, 9000));
    pol.granted(vc, bytes);
    check_bound();
  }
}

/// Overshoot debt carries into the next round (banked DRR): a VC whose
/// packets always overshoot its allocation must not get a fresh full
/// allocation every round, or its long-run share exceeds its weight.
TEST(WeightedVcDeficit, OvershootDebtCarriesAcrossRounds) {
  const std::uint32_t quantum = 1024;
  WeightedVcPolicy pol({1, 1}, quantum);
  // VC0 sends one 4 KB packet per round against a 1 KB allocation; VC1
  // drains in 1 KB packets. Over many rounds the byte shares must track the
  // 1:1 weights despite VC0's per-round overshoot.
  std::int64_t b0 = 0, b1 = 0;
  for (int round = 0; round < 4000; ++round) {
    std::vector<VcId> order = order_of(pol);
    if (order.front() == 0) {
      pol.granted(0, 4096);
      b0 += 4096;
    } else {
      pol.granted(1, 1024);
      b1 += 1024;
    }
  }
  ASSERT_GT(b0, 0);
  ASSERT_GT(b1, 0);
  const double share0 =
      static_cast<double>(b0) / static_cast<double>(b0 + b1);
  EXPECT_NEAR(share0, 0.5, 0.05);
}

}  // namespace
}  // namespace dqos
