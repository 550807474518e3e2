#include "switchfab/switch.hpp"

#include <sstream>

#include "util/contracts.hpp"
#include "util/log.hpp"

namespace dqos {

std::string_view to_string(SwitchArch a) {
  switch (a) {
    case SwitchArch::kTraditional2Vc: return "Traditional 2 VCs";
    case SwitchArch::kIdeal: return "Ideal";
    case SwitchArch::kSimple2Vc: return "Simple 2 VCs";
    case SwitchArch::kAdvanced2Vc: return "Advanced 2 VCs";
  }
  return "?";
}

QueueKind queue_kind_for(SwitchArch a) {
  switch (a) {
    case SwitchArch::kTraditional2Vc: return QueueKind::kFifo;
    case SwitchArch::kIdeal: return QueueKind::kHeap;
    case SwitchArch::kSimple2Vc: return QueueKind::kFifo;
    case SwitchArch::kAdvanced2Vc: return QueueKind::kTakeover;
  }
  DQOS_ASSERT(false);
  return QueueKind::kFifo;
}

InputArbiterKind input_arbiter_for(SwitchArch a) {
  return a == SwitchArch::kTraditional2Vc ? InputArbiterKind::kRoundRobin
                                          : InputArbiterKind::kEdf;
}

Switch::Switch(Simulator& sim, NodeId id, std::size_t num_ports,
               const SwitchParams& params, LocalClock clock)
    : sim_(sim), id_(id), lane_(1 + id), params_(params), clock_(clock) {
  DQOS_EXPECTS(num_ports >= 2);
  DQOS_EXPECTS(params.num_vcs >= 1);
  DQOS_EXPECTS(params.crossbar_speedup >= 1.0);
  DQOS_EXPECTS(params.vc_weights.empty() ||
               params.vc_weights.size() == params.num_vcs);
  const QueueKind kind = queue_kind_for(params.arch);
  edf_arbiter_ = input_arbiter_for(params.arch) == InputArbiterKind::kEdf;
  heap_queues_ = kind == QueueKind::kHeap;
  inputs_.resize(num_ports);
  outputs_.resize(num_ports);
  for (std::size_t i = 0; i < num_ports; ++i) {
    inputs_[i].self = this;
    inputs_[i].port = static_cast<PortId>(i);
    outputs_[i].self = this;
    outputs_[i].port = static_cast<PortId>(i);
  }
  const std::size_t nvq = num_ports * params.num_vcs;
  in_bufs_.reserve(nvq);
  out_qs_.reserve(nvq);
  for (std::size_t i = 0; i < num_ports; ++i) {
    for (std::uint8_t vc = 0; vc < params.num_vcs; ++vc) {
      in_bufs_.emplace_back(kind, params.buffer_bytes_per_vc, num_ports);
      out_qs_.emplace_back(kind);
    }
  }
  if (!params.vc_weights.empty()) {
    for (auto& out : outputs_) {
      out.weighted_vc = std::make_unique<WeightedVcPolicy>(params.vc_weights);
    }
  }
  voq_dl_.assign(params.num_vcs * num_ports * num_ports, kNoCandidate);
  voq_sz_.assign(params.num_vcs * num_ports * num_ports, 0);
  rr_last_.assign(nvq, kNoWinner);  // first round starts at input 0
}

void Switch::attach_output(PortId port, Channel* ch) {
  DQOS_EXPECTS(port < outputs_.size() && ch != nullptr);
  DQOS_EXPECTS(outputs_[port].channel == nullptr);
  outputs_[port].channel = ch;
  ch->set_sender_lane(&lane_);
  ch->set_on_credit({[](void* ctx) {
                       auto* out = static_cast<Output*>(ctx);
                       out->self->try_drain(out->port);
                     },
                     &outputs_[port]});
  xbar_bw_ = Bandwidth::from_ps_per_byte(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             static_cast<double>(ch->bandwidth().ps_per_byte()) /
             params_.crossbar_speedup)));
}

void Switch::attach_input(PortId port, Channel* ch) {
  DQOS_EXPECTS(port < inputs_.size() && ch != nullptr);
  DQOS_EXPECTS(inputs_[port].channel == nullptr);
  inputs_[port].channel = ch;
  ch->set_receiver_lane(&lane_);
  // Credit-resync oracle: the upstream sender may re-derive its counter
  // from this buffer's occupancy after a credit loss.
  ch->set_occupancy_probe({[](void* ctx, VcId vc) -> std::uint64_t {
                             auto* in = static_cast<Input*>(ctx);
                             return in->self->in_buf(in->port, vc).used_bytes();
                           },
                           &inputs_[port]});
}

void Switch::receive_packet(PacketPtr p, PortId in_port) {
  DQOS_EXPECTS(p != nullptr && in_port < inputs_.size());
  DQOS_EXPECTS(p->hdr.vc < params_.num_vcs);
  // Reconstruct the deadline in this switch's clock domain (§3.3). The
  // switch never recomputes the deadline itself (§3.1) — only re-bases it.
  // Reconstruction happens when the *header* arrives (cut-through hardware
  // reads the tag before the payload lands): the packet's full arrival
  // event fires at tail time, so subtract the serialization time. Anchoring
  // at the tail would shift each deadline by its own length/bandwidth and
  // could invert deadline order *within a flow*, breaking the appendix's
  // hypothesis (1).
  DQOS_ASSERT(inputs_[in_port].channel != nullptr);
  const Duration ser = inputs_[in_port].channel->serialization_time(p->size());
  p->local_deadline = clock_.decode_ttd(p->hdr.ttd, sim_.now() - ser);
  if (tracer_) tracer_->record(sim_.now(), TraceEvent::kHopArrival, *p, id_);
  // Source routing: consume the next hop from the header.
  const PortId out = p->hdr.route.next_hop();
  DQOS_EXPECTS(out < outputs_.size());
  const VcId vc = p->hdr.vc;
  // Graceful shed: a packet routed at a permanently-failed link would wedge
  // its VOQ forever (the flow has been rerouted or shed by admission).
  // Drop it here and free the upstream buffer claim immediately.
  if (outputs_[out].channel != nullptr && outputs_[out].channel->failed_permanently()) {
    ++counters_.dropped_link_down;
    if (drop_cb_) drop_cb_(p->hdr.tclass);
    if (tracer_) tracer_->record(sim_.now(), TraceEvent::kDropped, *p, id_);
    if (inputs_[in_port].channel != nullptr) {
      inputs_[in_port].channel->return_credits(vc, p->size());
    }
    retire_packet(std::move(p));
    return;
  }
  in_buf(in_port, vc).enqueue(std::move(p), out);
  ++queued_packets_;
  refresh_voq(in_port, vc, out);
  try_fill(out);
}

std::size_t Switch::flush_output(PortId port) {
  DQOS_EXPECTS(port < outputs_.size());
  std::size_t shed = 0;
  const auto drop = [&](const PacketPtr& p) {
    ++shed;
    DQOS_ASSERT(queued_packets_ > 0);
    --queued_packets_;
    if (drop_cb_) drop_cb_(p->hdr.tclass);
    if (tracer_) tracer_->record(sim_.now(), TraceEvent::kDropped, *p, id_);
  };
  for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
    PacketQueue& q = out_q(port, vc);
    while (q.candidate() != nullptr) {
      PacketPtr p = q.dequeue();
      drop(p);
      retire_packet(std::move(p));
    }
  }
  for (std::size_t in = 0; in < inputs_.size(); ++in) {
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      InputBuffer& buf = in_buf(in, vc);
      while (buf.candidate(port) != nullptr) {
        PacketPtr p = buf.dequeue(port);
        if (inputs_[in].channel != nullptr) {
          inputs_[in].channel->return_credits(vc, p->size());
        }
        drop(p);
        retire_packet(std::move(p));
      }
      refresh_voq(in, vc, port);
    }
  }
  counters_.dropped_link_down += shed;
  return shed;
}

// dqos-lint: hot
void Switch::try_fill(std::size_t out) {
  Output& o = outputs_[out];
  const TimePoint now = sim_.now();
  if (o.write_busy_until > now) return;  // retried when the port frees

  const std::size_t num_ports = inputs_.size();
  // Crossbar fill uses strict VC priority: the regulated VC claims fabric
  // bandwidth first (§3.2 "absolute priority"); per-VC output queues keep
  // lower VCs from being starved of *space*.
  for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
    // Occupancy may transiently exceed the cap: a grant issued at the exact
    // completion instant of an in-flight transfer does not see its bytes
    // yet (same race the virtual-dispatch datapath had), so clamp at zero.
    const std::uint64_t used = out_q(out, vc).bytes();
    const std::uint64_t space_left =
        used < params_.buffer_bytes_per_vc ? params_.buffer_bytes_per_vc - used
                                           : 0;
    // One arbitration round = one linear scan of the candidate cache row
    // for this (vc, out): deadlines and sizes, no queue pointers touched.
    // An empty row or no eligible input yields kNoWinner: next VC.
    const std::int64_t* dl = voq_dl_.data() + voq_index(vc, out, 0);
    const std::uint32_t* sz = voq_sz_.data() + voq_index(vc, out, 0);
    const auto eligible = [&](std::size_t in) {
      return inputs_[in].read_busy_until <= now && sz[in] <= space_left;
    };
    std::size_t& rr_last = rr_last_[out * params_.num_vcs + vc];
    const std::size_t win =
        edf_arbiter_ ? edf_pick(dl, num_ports, eligible)
                     : round_robin_pick(dl, num_ports, rr_last, eligible);
    if (win == kNoWinner) continue;

    Input& i = inputs_[win];
    PacketPtr p = in_buf(win, vc).dequeue(out);
    DQOS_ASSERT(queued_packets_ > 0);
    --queued_packets_;  // in flight across the crossbar until xbar_arrive
    ++xbar_in_transit_;
    refresh_voq(win, vc, out);
    if (!edf_arbiter_) rr_last = win;

    // Freed input-buffer space: return credits upstream.
    DQOS_ASSERT(i.channel != nullptr);
    i.channel->return_credits(vc, p->size());

    const Duration xfer = xbar_bw_.transfer_time(p->size());
    o.write_busy_until = i.read_busy_until = now + xfer;
    // The packet is in flight across the crossbar; it lands in the output
    // buffer after the transfer.
    sim_.schedule_after(xfer, lane_, XbarTask{this, std::move(p), out});
    sim_.schedule_after(xfer, lane_, [this, out] { try_fill(out); });
    sim_.schedule_after(xfer, lane_, [this, in = win] { on_input_free(in); });
    return;
  }
}

void Switch::xbar_arrive(PacketPtr p, std::size_t out) {
  const VcId vc = p->hdr.vc;
  if (tracer_) tracer_->record(sim_.now(), TraceEvent::kXbarTransfer, *p, id_);
  DQOS_ASSERT(xbar_in_transit_ > 0);
  --xbar_in_transit_;
  out_q(out, vc).enqueue(std::move(p));
  ++queued_packets_;
  try_drain(out);
}

bool Switch::drain_vc(std::size_t out, VcId vc, TimePoint now) {
  Output& o = outputs_[out];
  PacketQueue& q = out_q(out, vc);
  const Packet* head = q.candidate();
  if (head == nullptr) return false;
  // Only the selected (minimum-deadline) packet is checked for credits
  // (appendix flow-control rule); if it does not fit, this VC stalls and
  // a lower-priority VC may use the link instead.
  if (!o.channel->has_credits(vc, head->size())) {
    ++counters_.credit_stalls;
    return false;
  }
  PacketPtr p = q.dequeue();
  DQOS_ASSERT(queued_packets_ > 0);
  --queued_packets_;
  if (o.weighted_vc) o.weighted_vc->granted(vc, p->size());

  const auto cls = static_cast<std::size_t>(p->hdr.tclass);
  ++counters_.packets_forwarded[cls];
  counters_.bytes_forwarded[cls] += p->size();

  // Re-encode the deadline as TTD for the wire (§3.3).
  p->hdr.ttd = clock_.encode_ttd(p->local_deadline, now);
  if (tracer_) tracer_->record(now, TraceEvent::kLinkDepart, *p, id_);

  const Duration ser = o.channel->serialization_time(p->size());
  o.channel->consume_credits(vc, p->size());
  o.channel->send(std::move(p));
  // A heap buffer pays its access latency on every scheduling decision;
  // the link sits idle for that long after each packet (A10).
  const Duration op = heap_queues_ ? params_.heap_op_latency : Duration::zero();
  o.link_busy_until = now + ser + op;
  sim_.schedule_after(ser + op, lane_, [this, out] { try_drain(out); });
  // Output-buffer space freed: the crossbar may refill.
  try_fill(out);
  return true;
}

void Switch::try_drain(std::size_t out) {
  Output& o = outputs_[out];
  DQOS_ASSERT(o.channel != nullptr);
  const TimePoint now = sim_.now();
  if (o.link_busy_until > now) return;
  if (!o.channel->is_up()) {
    // Transient outage: hold the packets; repair() re-kicks this drain via
    // the channel's on_credit callback.
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      if (!out_q(out, vc).empty()) {
        ++counters_.link_down_stalls;
        break;
      }
    }
    return;
  }

  if (o.weighted_vc == nullptr) {
    // Strict VC priority (all paper architectures): VC0 first, no order
    // materialization.
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      if (drain_vc(out, vc, now)) return;
    }
    return;
  }
  o.weighted_vc->order(vc_order_scratch_);
  for (const VcId vc : vc_order_scratch_) {
    if (drain_vc(out, vc, now)) return;
  }
}

void Switch::on_input_free(std::size_t in) {
  // Any output this input holds traffic for may now be able to fill. The
  // candidate cache answers "holds traffic" without touching the queues.
  const std::size_t num_ports = inputs_.size();
  for (std::size_t out = 0; out < num_ports; ++out) {
    for (std::uint8_t vc = 0; vc < params_.num_vcs; ++vc) {
      if (voq_dl_[voq_index(vc, out, in)] != kNoCandidate) {
        try_fill(out);
        break;
      }
    }
  }
}

std::uint64_t Switch::order_errors() const {
  std::uint64_t sum = 0;
  for (const auto& buf : in_bufs_) sum += buf.order_errors();
  for (const auto& q : out_qs_) sum += q.order_errors();
  return sum;
}

std::uint64_t Switch::order_errors_vc(VcId vc) const {
  DQOS_EXPECTS(vc < params_.num_vcs);
  std::uint64_t sum = 0;
  for (std::size_t in = 0; in < inputs_.size(); ++in) {
    sum += in_buf(in, vc).order_errors();
  }
  for (std::size_t out = 0; out < outputs_.size(); ++out) {
    sum += out_q(out, vc).order_errors();
  }
  return sum;
}

std::uint64_t Switch::takeovers() const {
  std::uint64_t sum = 0;
  for (const auto& buf : in_bufs_) sum += buf.takeovers();
  for (const auto& q : out_qs_) sum += q.takeovers();
  return sum;
}

std::string Switch::debug_dump() const {
  std::ostringstream out;
  out << "switch " << id_ << ": queued=" << packets_queued()
      << " credit_stalls=" << counters_.credit_stalls
      << " link_down_stalls=" << counters_.link_down_stalls
      << " dropped=" << counters_.dropped_link_down << "\n";
  // Walk the queues and cross-check the O(1) occupancy counter — the dump
  // runs off the hot path (watchdog reports), so the audit is free.
  std::size_t walked = 0;
  for (const auto& buf : in_bufs_) walked += buf.total_packets();
  for (const auto& q : out_qs_) walked += q.packets();
  if (walked != queued_packets_) {
    out << "  WARNING: occupancy counter " << queued_packets_
        << " != walked total " << walked << "\n";
  }
  for (std::size_t port = 0; port < outputs_.size(); ++port) {
    const Output& o = outputs_[port];
    if (o.channel == nullptr) continue;
    std::size_t out_pkts = 0;
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      out_pkts += out_q(port, vc).packets();
    }
    std::size_t voq_pkts = 0;
    for (std::size_t in = 0; in < inputs_.size(); ++in) {
      for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
        voq_pkts += in_buf(in, vc).packets(port);
      }
    }
    if (out_pkts == 0 && voq_pkts == 0 && o.channel->is_up()) continue;
    out << "  out " << port << ": link="
        << (o.channel->is_up() ? "up"
                               : (o.channel->failed_permanently() ? "down(permanent)"
                                                                  : "down"))
        << " outq=" << out_pkts << " voq=" << voq_pkts << " credits=[";
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      out << (vc ? "," : "") << o.channel->credits(vc);
    }
    out << "]\n";
  }
  for (std::size_t port = 0; port < inputs_.size(); ++port) {
    std::uint64_t used = 0;
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      used += in_buf(port, vc).used_bytes();
    }
    if (used == 0) continue;
    out << "  in " << port << ": used_bytes=[";
    for (VcId vc = 0; vc < params_.num_vcs; ++vc) {
      out << (vc ? "," : "") << in_buf(port, vc).used_bytes();
    }
    out << "]\n";
  }
  return out.str();
}

}  // namespace dqos
