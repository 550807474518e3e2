#include "host/host.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace dqos {
namespace {

/// unordered_map never releases its bucket array, so a churn or retry
/// spike ratchets the host's memory for the rest of the run. Rebuild a
/// map that has gone sparse (under 1/8 occupancy past a small floor);
/// callers invoke this after erases on the rx/retry maps.
template <typename Map>
void shrink_if_sparse(Map& m) {
  if (m.bucket_count() > 64 && m.size() * 8 < m.bucket_count()) {
    Map rebuilt(m.begin(), m.end());
    m.swap(rebuilt);
  }
}

}  // namespace

Host::Host(Simulator& sim, NodeId id, const HostParams& params, LocalClock clock,
           PacketPool& pool)
    : sim_(sim),
      id_(id),
      lane_(1 + id),
      params_(params),
      clock_(clock),
      pool_(pool),
      next_packet_id_(static_cast<std::uint64_t>(id) << 40) {
  DQOS_EXPECTS(params.num_vcs >= 1);
  DQOS_EXPECTS(params.mtu_bytes > kHeaderBytes);
  DQOS_EXPECTS(params.vc_weights.empty() ||
               params.vc_weights.size() == params.num_vcs);
  ready_q_.resize(params.num_vcs);
  fifo_q_.resize(params.num_vcs);
  if (!params.vc_weights.empty()) {
    weighted_vc_ = std::make_unique<WeightedVcPolicy>(params.vc_weights);
  }
}

void Host::attach_uplink(Channel* to_switch) {
  DQOS_EXPECTS(to_switch != nullptr && uplink_ == nullptr);
  uplink_ = to_switch;
  uplink_->set_sender_lane(&lane_);
  uplink_->set_on_credit(
      {[](void* ctx) { static_cast<Host*>(ctx)->pump(); }, this});
}

void Host::attach_downlink(Channel* from_switch) {
  DQOS_EXPECTS(from_switch != nullptr && downlink_ == nullptr);
  downlink_ = from_switch;
  downlink_->set_receiver_lane(&lane_);
}

void Host::open_flow(const FlowSpec& spec) {
  DQOS_EXPECTS(spec.id != kInvalidFlow);
  DQOS_EXPECTS(spec.src == id_);
  DQOS_EXPECTS(spec.vc < params_.num_vcs);
  const FlowId skey = spec.aggregate != kInvalidFlow ? spec.aggregate : spec.id;
  FlowState state{spec, skey, 0, 1, nullptr};
  if (spec.police) {
    DQOS_EXPECTS(spec.reserve_bw.valid());
    const auto burst = static_cast<std::uint64_t>(
        spec.reserve_bw.bytes_per_sec() * spec.police_burst.sec());
    state.policer = std::make_unique<TokenBucket>(
        spec.reserve_bw, std::max<std::uint64_t>(burst, 128 * 1024));
  }
  flows_.insert(spec.id, std::move(state));  // aborts on duplicate open
  if (!stampers_.contains(skey)) stampers_.insert(skey, DeadlineStamper(spec));
}

bool Host::submit(FlowId flow, std::uint64_t bytes) {
  return do_submit(flow, bytes, 0);
}

bool Host::do_submit(FlowId flow, std::uint64_t bytes, std::uint32_t attempt) {
  DQOS_EXPECTS(bytes > 0);
  // Table references are held only across the fragment loop, which touches
  // nothing but the NIC queues; the trailing pump() — which *can* retire
  // flows via the abort callback — runs after the last use of either.
  FlowState& fs = flows_.at(flow);
  const VcId vc = fs.spec.vc;

  // Shed flows (close_flow) accept nothing; the application-side source
  // keeps producing, so the refusals are counted as degradation.
  if (fs.closed) {
    ++shed_submissions_;
    if (tracer_) tracer_->record_drop(sim_.now(), flow, fs.spec.tclass, id_);
    return false;
  }

  // Ingress policing (A9): a reserved flow may not exceed its reservation;
  // non-conformant messages are shed before they can poison the regulated
  // VC's buffers and deadlines.
  if (fs.policer &&
      !fs.policer->try_consume(bytes, clock_.local_now(sim_.now()))) {
    ++policed_drops_;
    if (tracer_) tracer_->record_drop(sim_.now(), flow, fs.spec.tclass, id_);
    return false;
  }

  // Unregulated traffic has no delivery guarantee (§3): shed the whole
  // message if the NIC backlog for its VC is past the cap.
  if (vc != kRegulatedVc) {
    const std::size_t backlog = ready_q_[vc].size() + fifo_q_[vc].size();
    if (backlog >= params_.best_effort_queue_cap) {
      ++be_drops_;
      if (tracer_) tracer_->record_drop(sim_.now(), flow, fs.spec.tclass, id_);
      return false;
    }
  }

  const std::uint32_t payload_mtu = params_.mtu_bytes;
  const auto parts =
      static_cast<std::uint16_t>((bytes + payload_mtu - 1) / payload_mtu);
  DeadlineStamper& stamper = stampers_.at(fs.stamper_key);
  if (fs.spec.policy == DeadlinePolicy::kFrameBudget) stamper.begin_frame(parts);

  const TimePoint created = sim_.now();
  const TimePoint local_now = clock_.local_now(created);
  const std::uint32_t message_id = fs.next_message++;
  if (retry_ && fs.spec.tclass == TrafficClass::kControl) {
    arm_retry(flow, message_id, bytes, attempt);
  }

  std::uint64_t remaining = bytes;
  for (std::uint16_t part = 0; part < parts; ++part) {
    const auto payload =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(remaining, payload_mtu));
    remaining -= payload;
    const std::uint32_t wire = payload + kHeaderBytes;

    const TimePoint deadline = fs.spec.policy == DeadlinePolicy::kFrameBudget
                                   ? stamper.stamp_frame_packet(local_now)
                                   : stamper.stamp(local_now, wire);

    PacketPtr p = pool_.make();
    p->hdr.packet_id = next_packet_id_++;
    p->hdr.flow = flow;
    p->hdr.src = id_;
    p->hdr.dst = fs.spec.dst;
    p->hdr.tclass = fs.spec.tclass;
    p->hdr.vc = vc;
    p->hdr.wire_bytes = wire;
    p->hdr.flow_seq = fs.next_seq++;
    p->hdr.route = fs.spec.route;
    p->hdr.route.reset_cursor();
    p->hdr.message_id = message_id;
    p->hdr.message_parts = parts;
    p->hdr.message_part_idx = part;
    p->local_deadline = deadline;
    p->eligible_local =
        fs.spec.use_eligible_time ? deadline - fs.spec.eligible_lead : local_now;
    p->t_created = created;
    if (tracer_) tracer_->record(created, TraceEvent::kCreated, *p, id_);

    if (vc != kRegulatedVc) {
      ++unreg_backlog_[static_cast<std::size_t>(fs.spec.tclass)];
    }
    const TimePoint eligible_at = p->eligible_local;
    if (!params_.edf_queues) {
      fifo_q_[vc].push_back(std::move(p));
    } else if (eligible_at > local_now) {
      push_entry(eligible_q_, eligible_at, std::move(p));
    } else {
      push_entry(ready_q_[vc], deadline, std::move(p));
    }
  }
  pump();
  return true;
}

void Host::update_flow_route(FlowId flow, const SourceRoute& route,
                             std::size_t choice) {
  FlowState& fs = flows_.at(flow);
  fs.spec.route = route;
  fs.spec.route_choice = choice;
  // Queued packets still carry the dead path; re-stamp them so they survive.
  // (Heap order depends only on time keys, so in-place rewrite is safe.)
  const auto restamp = [&](Packet& p) {
    if (p.hdr.flow != flow) return;
    p.hdr.route = route;
    p.hdr.route.reset_cursor();
  };
  for (const auto& e : eligible_q_) restamp(*e.pkt);
  for (const auto& q : ready_q_) {
    for (const auto& e : q) restamp(*e.pkt);
  }
  for (auto& q : fifo_q_) {
    for (auto& p : q) restamp(*p);
  }
}

void Host::close_flow(FlowId flow) {
  flows_.at(flow).closed = true;

  // Purge queued packets of the shed flow; they have nowhere to go. Each
  // purged packet is retired through the audited pool path, then the null
  // slots are compacted out.
  const auto doom = [&](PacketPtr& p) {
    if (p == nullptr || p->hdr.flow != flow) return false;
    if (p->hdr.vc != kRegulatedVc) {
      auto& backlog = unreg_backlog_[static_cast<std::size_t>(p->hdr.tclass)];
      DQOS_ASSERT(backlog > 0);
      --backlog;
    }
    ++shed_submissions_;
    if (tracer_) tracer_->record_drop(sim_.now(), flow, p->hdr.tclass, id_);
    retire_packet(std::move(p));
    return true;
  };
  eligible_q_.remove_if(doom);
  for (auto& q : ready_q_) q.remove_if(doom);
  for (auto& q : fifo_q_) {
    bool purged = false;
    for (auto& p : q) purged = doom(p) || purged;
    if (purged) {
      q.erase(std::remove(q.begin(), q.end(), nullptr), q.end());
    }
  }
}

NodeId Host::retire_flow(FlowId flow) {
  const FlowState& gone = flows_.at(flow);
  const FlowId skey = gone.stamper_key;
  const NodeId dst = gone.spec.dst;
  flows_.erase(flow);
  // The stamper may be shared by an aggregate; drop it with its last user.
  // Existence scan only — the result is order-independent.
  bool shared = false;
  flows_.for_each([&](FlowId, const FlowState& fs) {
    if (fs.stamper_key == skey) shared = true;
  });
  if (!shared) stampers_.erase(skey);
  return dst;
}

void Host::purge_rx_flow(FlowId flow) {
  // Tombstone rather than erase: packets of the retired flow may still be
  // draining from the fabric, and a plain erase would let the first
  // straggler re-create full tracking (a permanent leak for a partial
  // message whose remaining parts never arrive). The tombstone costs one
  // 16-byte record and makes stragglers inert.
  rx_seq_.get_or_insert(flow) = kRetiredSeq;
  for (auto it = rx_messages_.begin(); it != rx_messages_.end();) {
    // Key-match reaping: the surviving set is visit-order independent.
    const bool ours = static_cast<FlowId>(it->first >> 32) == flow;
    it = ours ? rx_messages_.erase(it) : std::next(it);
  }
  shrink_if_sparse(rx_messages_);
}

void Host::enable_control_retry(const RetryParams& params) {
  DQOS_EXPECTS(params.timeout > Duration::zero());
  retry_ = params;
}

void Host::arm_retry(FlowId flow, std::uint32_t message_id, std::uint64_t bytes,
                     std::uint32_t attempt) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(flow) << 32) | message_id;
  // Exponential backoff: timeout doubles with every unacked attempt.
  const Duration wait = Duration::picoseconds(retry_->timeout.ps() << attempt);
  const EventId timer =
      sim_.schedule_after(wait, lane_, [this, key] { retry_timeout(key); });
  const bool inserted =
      pending_retry_.emplace(key, PendingRetry{bytes, attempt, timer}).second;
  DQOS_ASSERT(inserted);
}

void Host::retry_timeout(std::uint64_t key) {
  const auto it = pending_retry_.find(key);
  if (it == pending_retry_.end()) return;  // acked after the timer fired
  const PendingRetry pr = it->second;
  pending_retry_.erase(it);
  shrink_if_sparse(pending_retry_);
  if (pr.attempt >= retry_->max_retries) {
    ++retries_abandoned_;
    return;
  }
  ++retries_;
  const auto flow = static_cast<FlowId>(key >> 32);
  // Resubmitted as a *new* message (fresh id and deadline stamps); if the
  // flow was shed or policed in the meantime, the message is lost for good.
  if (!do_submit(flow, pr.bytes, pr.attempt + 1)) ++retries_abandoned_;
}

void Host::on_message_acked(FlowId flow, std::uint32_t message_id) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(flow) << 32) | message_id;
  const auto it = pending_retry_.find(key);
  if (it == pending_retry_.end()) return;
  sim_.cancel(it->second.timer);
  pending_retry_.erase(it);
  shrink_if_sparse(pending_retry_);
}

void Host::pump() {
  const TimePoint now = sim_.now();
  const TimePoint local_now = clock_.local_now(now);

  // Eligibility transition: first queue (eligible-ordered) feeds the second
  // (deadline-ordered), §3.2.
  while (!eligible_q_.empty() && eligible_q_.top().key <= local_now) {
    PacketPtr p = eligible_q_.pop();
    const VcId vc = p->hdr.vc;
    const TimePoint d = p->local_deadline;
    push_entry(ready_q_[vc], d, std::move(p));
  }
  schedule_eligible_wakeup();

  if (link_busy_until_ > now) return;
  DQOS_ASSERT(uplink_ != nullptr);
  // Injection link down (fault injection): stall; Channel::repair() fires
  // the credit callback, which resumes the pump.
  if (!uplink_->is_up()) return;

  if (weighted_vc_ == nullptr) {
    // Strict VC priority (all paper architectures): VC0 first, no order
    // materialization, no arbitration-policy virtual calls.
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      if (inject_from_vc(vc, now)) return;
    }
    return;
  }
  weighted_vc_->order(vc_order_scratch_);
  for (const VcId vc : vc_order_scratch_) {
    if (inject_from_vc(vc, now)) return;
  }
}

void Host::expire_packet(PacketPtr p, TimePoint now) {
  DQOS_ASSERT(p->hdr.vc == kRegulatedVc);
  ++expired_packets_;
  expired_bytes_ += p->size();
  const FlowId flow = p->hdr.flow;
  if (tracer_) tracer_->record_drop(now, flow, p->hdr.tclass, id_);
  if (on_expired_) on_expired_(*p, now);
  FlowState* fsp = flows_.find(flow);  // churn may have retired the flow
  if (fsp != nullptr) {
    FlowState& fs = *fsp;
    ++fs.expired_packets;
    fs.expired_bytes += p->size();
    retire_packet(std::move(p));
    // Abort threshold: once a flow misses more than its share, stop
    // spending link time on it at all. The 16-packet floor keeps one
    // unlucky burst from killing a flow that has barely started.
    const std::uint64_t decided = fs.sent_packets + fs.expired_packets;
    if (!fs.closed && params_.expiry_abort_ratio > 0.0 && decided >= 16 &&
        static_cast<double>(fs.expired_packets) >
            params_.expiry_abort_ratio * static_cast<double>(decided)) {
      ++flows_aborted_;
      close_flow(flow);
      if (on_flow_aborted_) on_flow_aborted_(flow);
    }
  } else {
    retire_packet(std::move(p));
  }
}

bool Host::inject_from_vc(VcId vc, TimePoint now) {
  // Expiry at the transmission decision ("skip it, already late"): the
  // ready queue is deadline-ordered, so every already-late packet sits at
  // the front. Dropping them frees the link for packets that can still
  // make it. Opt-in; EDF regulated VC only.
  if (params_.expiry_drop && params_.edf_queues && vc == kRegulatedVc) {
    const TimePoint local_now = clock_.local_now(now);
    while (!ready_q_[vc].empty() &&
           ready_q_[vc].top().pkt->local_deadline < local_now) {
      expire_packet(ready_q_[vc].pop(), now);
    }
  }
  const Packet* head = nullptr;
  if (params_.edf_queues) {
    if (!ready_q_[vc].empty()) head = ready_q_[vc].top().pkt.get();
  } else {
    if (!fifo_q_[vc].empty()) head = fifo_q_[vc].front().get();
  }
  if (head == nullptr) return false;
  if (!uplink_->has_credits(vc, head->size())) return false;

  PacketPtr p;
  if (params_.edf_queues) {
    p = ready_q_[vc].pop();
  } else {
    p = std::move(fifo_q_[vc].front());
    fifo_q_[vc].pop_front();
  }
  if (vc != kRegulatedVc) {
    auto& backlog = unreg_backlog_[static_cast<std::size_t>(p->hdr.tclass)];
    DQOS_ASSERT(backlog > 0);
    --backlog;
  }
  if (params_.expiry_drop && vc == kRegulatedVc) {
    if (FlowState* fs = flows_.find(p->hdr.flow)) ++fs->sent_packets;
  }
  p->t_injected = now;
  p->hdr.ttd = clock_.encode_ttd(p->local_deadline, now);
  if (tracer_) tracer_->record(now, TraceEvent::kInjected, *p, id_);
  const std::uint32_t wire = p->size();
  const Duration ser = uplink_->serialization_time(wire);
  uplink_->consume_credits(vc, wire);
  if (weighted_vc_) weighted_vc_->granted(vc, wire);
  uplink_->send(std::move(p));
  ++injected_;
  bytes_injected_ += wire;
  link_busy_until_ = now + ser;
  sim_.schedule_after(ser, lane_, [this] { pump(); });
  return true;
}

void Host::schedule_eligible_wakeup() {
  if (eligible_q_.empty()) return;
  // Convert the earliest eligibility instant back to the global domain.
  const TimePoint global_wake = eligible_q_.top().key - clock_.offset();
  if (eligible_wakeup_at_ == global_wake) return;  // already armed
  if (eligible_wakeup_ != 0) sim_.cancel(eligible_wakeup_);
  const TimePoint at = max(global_wake, sim_.now());
  eligible_wakeup_at_ = global_wake;
  eligible_wakeup_ = sim_.schedule_at(at, lane_, [this] {
    eligible_wakeup_ = 0;
    eligible_wakeup_at_ = TimePoint::max();
    pump();
  });
}

void Host::receive_packet(PacketPtr p, PortId /*in_port*/) {
  DQOS_EXPECTS(p != nullptr);
  DQOS_ASSERT(p->hdr.dst == id_);
  DQOS_ASSERT(p->hdr.route.at_destination());
  ++received_;
  p->t_delivered = sim_.now();
  if (tracer_) tracer_->record(p->t_delivered, TraceEvent::kDelivered, *p, id_);

  // The host consumes instantly; buffer space frees immediately. The
  // channel coalesces same-instant returns per VC into one flush event
  // (DESIGN.md §11) — per-packet calls here stay the simple model.
  DQOS_ASSERT(downlink_ != nullptr);
  downlink_->return_credits(p->hdr.vc, p->size());

  // Remaining deadline budget at delivery (header-anchored reconstruction,
  // like a switch): negative slack = deadline miss.
  const Duration rx_ser = downlink_->serialization_time(p->size());
  const TimePoint deadline_local =
      clock_.decode_ttd(p->hdr.ttd, p->t_delivered - rx_ser);
  const Duration slack = deadline_local - clock_.local_now(p->t_delivered);

  // Out-of-order delivery detection (must never fire: paper appendix).
  // Dense per-flow record keyed by the flows *this host* receives; absent
  // means nothing delivered yet, kRetiredSeq marks a purged (retired)
  // flow whose stragglers must stay inert.
  std::int64_t* last_seq = rx_seq_.find(p->hdr.flow);
  const bool retired_flow = last_seq != nullptr && *last_seq == kRetiredSeq;
  if (retired_flow) {
    // no sequence tracking for stragglers of a purged flow
  } else if (last_seq == nullptr) {
    rx_seq_.insert(p->hdr.flow, p->hdr.flow_seq);
  } else if (static_cast<std::int64_t>(p->hdr.flow_seq) <= *last_seq) {
    ++ooo_;
  } else {
    *last_seq = p->hdr.flow_seq;
  }

  if (!watched_.empty()) {
    if (FlowWatch* w = watched_.find(p->hdr.flow)) {
      ++w->packets;
      w->bytes += p->size();
      w->latency_us.add((p->t_delivered - p->t_created).us());
    }
  }

  if (on_packet_) on_packet_(*p, p->t_delivered, slack);

  // Message completion tracking (frame-level latency, Fig. 3).
  // Single-part messages (any message <= one MTU) complete with this very
  // packet: skip the progress map — and its node allocate/erase — entirely.
  if (p->hdr.message_parts == 1) {
    if (on_message_) {
      on_message_(MessageDelivered{p->hdr.flow, p->hdr.tclass, p->t_created,
                                   p->t_delivered, p->size(),
                                   p->hdr.message_id});
    }
    return;
  }
  // Multi-part progress for a purged flow would re-enter the map with a
  // part already missing and sit there forever; drop it instead.
  if (retired_flow) return;
  const std::uint64_t mkey =
      (static_cast<std::uint64_t>(p->hdr.flow) << 32) | p->hdr.message_id;
  auto [mit, fresh] = rx_messages_.try_emplace(
      mkey, MessageProgress{p->hdr.message_parts, 0, p->t_created});
  (void)fresh;
  mit->second.bytes += p->size();
  if (--mit->second.parts_left == 0) {
    if (on_message_) {
      on_message_(MessageDelivered{p->hdr.flow, p->hdr.tclass, mit->second.created,
                                   p->t_delivered, mit->second.bytes,
                                   p->hdr.message_id});
    }
    rx_messages_.erase(mit);
    shrink_if_sparse(rx_messages_);
  }
}

std::size_t Host::queued_packets() const {
  std::size_t n = eligible_q_.size();
  for (const auto& q : ready_q_) n += q.size();
  for (const auto& q : fifo_q_) n += q.size();
  return n;
}

}  // namespace dqos
