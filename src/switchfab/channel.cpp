#include "switchfab/channel.hpp"

#include <algorithm>

#include "sim/shard_executor.hpp"
#include "util/contracts.hpp"

namespace dqos {

Channel::Channel(Simulator& sim, Bandwidth bw, Duration latency, std::uint8_t num_vcs,
                 std::uint32_t credits_per_vc)
    : sim_(sim),
      bw_(bw),
      latency_(latency),
      capacity_(credits_per_vc),
      send_lane_(&sim.default_lane()),
      recv_lane_(&sim.default_lane()) {
  DQOS_EXPECTS(bw.valid());
  DQOS_EXPECTS(latency >= Duration::zero());
  DQOS_EXPECTS(num_vcs >= 1);
  DQOS_EXPECTS(credits_per_vc > 0);
  credits_.assign(num_vcs, static_cast<std::int64_t>(credits_per_vc));
  in_flight_bytes_.assign(num_vcs, 0);
  credits_in_flight_.assign(num_vcs, 0);
  last_credit_activity_.assign(num_vcs, TimePoint::zero());
  pending_credits_.assign(num_vcs, {});
  credit_head_.assign(num_vcs, 0);
}

void Channel::connect_to(PacketReceiver* dst, PortId dst_port) {
  DQOS_EXPECTS(dst != nullptr && dst_ == nullptr);
  dst_ = dst;
  dst_port_ = dst_port;
}

void Channel::consume_credits(VcId vc, std::uint32_t bytes) {
  DQOS_EXPECTS(vc < credits_.size());
  DQOS_EXPECTS(has_credits(vc, bytes));
  credits_[vc] -= bytes;
  last_credit_activity_[vc] = sim_.now();
}

void Channel::return_credits(VcId vc, std::uint32_t bytes) {
  DQOS_EXPECTS(vc < credits_.size());
  if (engine_ != nullptr && *win_) {
    cross_return_credits(vc, bytes);
    return;
  }
  credits_in_flight_[vc] += static_cast<std::int64_t>(bytes);
  std::vector<CreditBatch>& q = pending_credits_[vc];
  const std::int64_t deliver_ps = (sim_.now() + latency_).ps();
  // Coalesce (DESIGN.md §11): a return landing at the same delivery
  // instant as the newest pending batch folds into it — no second event.
  // Delivery instants are non-decreasing (now + fixed latency), so the
  // batch FIFO stays sorted and each flush consumes exactly the front.
  if (q.size() > credit_head_[vc] && q.back().deliver_ps == deliver_ps) {
    q.back().bytes += bytes;
    return;
  }
  // dqos-lint: allow(hot-path-transitive) — amortized batch-FIFO growth
  q.push_back(CreditBatch{deliver_ps, bytes});
  sim_.schedule_after(latency_, *recv_lane_,
                      [this, vc] { flush_credits(vc); });
}

// dqos-lint: hot
void Channel::flush_credits(VcId vc) {
  std::vector<CreditBatch>& q = pending_credits_[vc];
  DQOS_ASSERT(credit_head_[vc] < q.size());
  const CreditBatch b = q[credit_head_[vc]];
  DQOS_ASSERT(b.deliver_ps == sim_.now().ps());
  if (++credit_head_[vc] == q.size()) {
    q.clear();  // capacity retained: allocation-free steady state
    credit_head_[vc] = 0;
  }
  credits_in_flight_[vc] -= static_cast<std::int64_t>(b.bytes);
  credits_[vc] += b.bytes;
  last_credit_activity_[vc] = sim_.now();
  if (on_credit_) on_credit_();
}

void Channel::send(PacketPtr p) {
  DQOS_EXPECTS(dst_ != nullptr);
  DQOS_EXPECTS(p != nullptr);
  DQOS_EXPECTS(p->hdr.vc < credits_.size());
  if (!up_) {
    // The wire is dead: the packet evaporates. The sender's consumed
    // credits stay consumed — the credit-resync protocol (or a reroute)
    // makes the loss good later.
    ++dropped_;
    retire_packet(std::move(p));
    return;
  }
  if (ttd_corrupt_armed_) {
    p->hdr.ttd += ttd_corrupt_delta_;
    ttd_corrupt_armed_ = false;
    ++ttd_corruptions_;
  }
  const VcId vc = p->hdr.vc;
  const Duration ser = serialization_time(p->size());
  ++packets_sent_;
  bytes_sent_ += p->size();
  busy_time_ += ser;
  in_flight_bytes_[vc] += static_cast<std::int64_t>(p->size());
  ++packets_in_flight_;
  if (engine_ == nullptr) {
    sim_.schedule_after(ser + latency_, *send_lane_,
                        ArrivalTask{this, std::move(p), vc});
    return;
  }
  const TimePoint at = sim_.now() + ser + latency_;
  if (*win_) {
    // dqos-lint: shard
    // Window mode: the arrival crosses a shard boundary — post it to the
    // mailbox under the key the serial schedule call would have drawn from
    // the sender's lane; the receiver's shard schedules it on delivery.
    CrossMsg m;
    m.at_ps = at.ps();
    m.key = send_lane_->take();
    m.vc = vc;
    m.ctx = this;
    m.p = std::move(p);
    m.deliver = &Channel::deliver_arrival_msg;
    engine_->log(src_shard_).post(dst_shard_, std::move(m));
    return;
  }
  // Serial stretch (setup or an instant): schedule directly on the
  // receiver's calendar.
  dst_sim_->schedule_at(at, *send_lane_,
                        CrossArrivalTask{this, std::move(p), vc});
}

void Channel::ArrivalTask::operator()() {
  ch->in_flight_bytes_[vc] -= static_cast<std::int64_t>(p->size());
  --ch->packets_in_flight_;
  ch->dst_->receive_packet(std::move(p), ch->dst_port_);
}

void Channel::set_cross_shard(ShardExecutor* engine, std::uint32_t src_shard,
                              std::uint32_t dst_shard, Simulator* dst_sim) {
  DQOS_EXPECTS(engine != nullptr && dst_sim != nullptr);
  DQOS_EXPECTS(src_shard != dst_shard);
  engine_ = engine;
  dst_sim_ = dst_sim;
  win_ = engine->window_active_flag();
  src_shard_ = src_shard;
  dst_shard_ = dst_shard;
  cross_fold_window_.assign(num_vcs(), ~std::uint64_t{0});
  cross_fold_idx_.assign(num_vcs(), 0);
}

void Channel::apply_cross_arrival(VcId vc, std::uint32_t bytes) {
  in_flight_bytes_[vc] -= static_cast<std::int64_t>(bytes);
  --packets_in_flight_;
}

void Channel::CrossArrivalTask::operator()() {
  const auto size = static_cast<std::uint32_t>(p->size());
  if (*ch->win_) {
    // dqos-lint: shard
    // Running on the receiver's worker thread: the in-flight counters are
    // sender-owned, so mail the decrement to the sender's shard as a note.
    CrossMsg note;
    note.at_ps = CrossMsg::kNoLanding;
    note.bytes = size;
    note.vc = vc;
    note.ctx = ch;
    note.deliver = &Channel::deliver_arrival_note;
    ch->engine_->log(ch->dst_shard_).post(ch->src_shard_, std::move(note));
  } else {
    ch->apply_cross_arrival(vc, size);
  }
  ch->dst_->receive_packet(std::move(p), ch->dst_port_);
}

void Channel::CrossFlushTask::operator()() {
  ch->credits_in_flight_[vc] -= static_cast<std::int64_t>(bytes);
  ch->credits_[vc] += bytes;
  ch->last_credit_activity_[vc] = ch->sim_.now();
  if (ch->on_credit_) ch->on_credit_();
}

void Channel::deliver_arrival_msg(CrossMsg&& m) {
  auto* ch = static_cast<Channel*>(m.ctx);
  const VcId vc = m.vc;
  ch->dst_sim_->schedule_at(TimePoint::from_ps(m.at_ps), m.key,
                            CrossArrivalTask{ch, std::move(m.p), vc});
}

void Channel::deliver_arrival_note(CrossMsg&& m) {
  static_cast<Channel*>(m.ctx)->apply_cross_arrival(m.vc, m.bytes);
}

void Channel::deliver_credit_msg(CrossMsg&& m) {
  auto* ch = static_cast<Channel*>(m.ctx);
  // The serial model debits credits_in_flight_ at return time; deferring
  // the debit to delivery is invisible because the counter is only read at
  // serial instants (resync, audits), which all happen-after this.
  ch->credits_in_flight_[m.vc] += static_cast<std::int64_t>(m.bytes);
  ch->sim_.schedule_at(TimePoint::from_ps(m.at_ps), m.key,
                       CrossFlushTask{ch, m.vc, m.bytes});
}

void Channel::cross_return_credits(VcId vc, std::uint32_t bytes) {
  // dqos-lint: shard
  // Receiver-side replication of the serial coalescing decision: delivery
  // instants for one VC are non-decreasing within a window (now + fixed
  // latency), and same-instant events always share a window, so folding
  // into the newest batch posted this window reproduces the serial
  // "fold into q.back()" exactly — including drawing no key.
  std::vector<CrossMsg>& box = engine_->log(dst_shard_).outboxes[src_shard_];
  const std::int64_t deliver_ps = (dst_sim_->now() + latency_).ps();
  if (cross_fold_window_[vc] == engine_->window_id() &&
      box[cross_fold_idx_[vc]].at_ps == deliver_ps) {
    box[cross_fold_idx_[vc]].bytes += bytes;
    return;
  }
  cross_fold_window_[vc] = engine_->window_id();
  CrossMsg m;
  m.at_ps = deliver_ps;
  m.key = recv_lane_->take();
  m.bytes = bytes;
  m.vc = vc;
  m.ctx = this;
  m.deliver = &Channel::deliver_credit_msg;
  cross_fold_idx_[vc] = engine_->log(dst_shard_).post(src_shard_, std::move(m));
}

Simulator& Channel::timer_sim() {
  return engine_ != nullptr ? engine_->control() : sim_;
}

void Channel::fail(bool permanent) {
  up_ = false;
  permanent_ = permanent_ || permanent;
}

void Channel::repair() {
  DQOS_EXPECTS(!permanent_);  // permanent failures are rerouted, not repaired
  if (up_) return;
  up_ = true;
  // Stalled senders re-arbitrate as if credits had just arrived.
  if (on_credit_) on_credit_();
}

std::uint32_t Channel::lose_credits(VcId vc, std::uint32_t bytes) {
  DQOS_EXPECTS(vc < credits_.size());
  const auto lost = static_cast<std::uint32_t>(std::min<std::int64_t>(
      static_cast<std::int64_t>(bytes), std::max<std::int64_t>(credits_[vc], 0)));
  credits_[vc] -= lost;
  credits_lost_ += lost;
  return lost;
}

void Channel::corrupt_next_ttd(Duration delta) {
  ttd_corrupt_armed_ = true;
  ttd_corrupt_delta_ = delta;
}

void Channel::enable_credit_resync(Duration silence_window, TimePoint horizon) {
  DQOS_EXPECTS(silence_window > Duration::zero());
  resync_window_ = silence_window;
  resync_horizon_ = horizon;
  if (timer_sim().now() + silence_window <= horizon) {
    timer_sim().schedule_after(silence_window, *send_lane_,
                               [this] { resync_check(); });
  }
}

void Channel::resync_check() {
  const TimePoint now = timer_sim().now();
  for (VcId vc = 0; up_ && vc < num_vcs(); ++vc) {
    // Quiet VC only: any credit activity within the window means the normal
    // protocol is alive and the counter is trusted.
    if (last_credit_activity_[vc] + resync_window_ > now) continue;
    const std::int64_t occupancy =
        occupancy_probe_ ? static_cast<std::int64_t>(occupancy_probe_(vc)) : 0;
    const std::int64_t expected = static_cast<std::int64_t>(capacity_) -
                                  occupancy - in_flight_bytes_[vc] -
                                  credits_in_flight_[vc];
    if (expected > credits_[vc]) {
      resynced_bytes_ += static_cast<std::uint64_t>(expected - credits_[vc]);
      credits_[vc] = expected;
      ++resyncs_;
      last_credit_activity_[vc] = now;
      if (on_credit_) on_credit_();
    }
  }
  if (now + resync_window_ <= resync_horizon_) {
    timer_sim().schedule_after(resync_window_, *send_lane_,
                               [this] { resync_check(); });
  }
}

}  // namespace dqos
