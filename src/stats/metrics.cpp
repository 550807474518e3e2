#include "stats/metrics.hpp"

#include "util/contracts.hpp"

namespace dqos {

MetricsCollector::MetricsCollector() = default;

void MetricsCollector::set_window(TimePoint start, TimePoint end) {
  DQOS_EXPECTS(start < end);
  start_ = start;
  end_ = end;
}

void MetricsCollector::reserve_samples(std::size_t packets_per_class,
                                       std::size_t messages_per_class) {
  for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
    pkt_latency_[c].reserve(packets_per_class);
    msg_latency_[c].reserve(messages_per_class);
  }
}

void MetricsCollector::set_phase_starts(std::vector<TimePoint> starts) {
  DQOS_EXPECTS(!starts.empty());
  DQOS_EXPECTS(starts.front() == start_);
  DQOS_EXPECTS(starts.back() < end_);
  phases_.clear();
  phases_.resize(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (i > 0) DQOS_EXPECTS(starts[i] > starts[i - 1]);
    phases_[i].start = starts[i];
    phases_[i].end = i + 1 < starts.size() ? starts[i + 1] : end_;
  }
}

void MetricsCollector::on_packet_delivered(const Packet& p, TimePoint now,
                                           Duration slack) {
  if (relay_primary_ != nullptr) {
    if (*relay_window_) {
      relay_log_->defer(DeferredEffect{
          DeferredEffect::Kind::kPacketDelivered,
          static_cast<std::uint8_t>(p.hdr.tclass),
          static_cast<std::uint32_t>(p.size()), p.t_created.ps(), now.ps(),
          slack.ps(), 0});
    } else {
      relay_primary_->on_packet_delivered(p, now, slack);
    }
    return;
  }
  record_packet_delivered(p.hdr.tclass, static_cast<std::uint32_t>(p.size()),
                          p.t_created, now, slack);
}

void MetricsCollector::record_packet_delivered(TrafficClass tclass,
                                               std::uint32_t size,
                                               TimePoint created, TimePoint now,
                                               Duration slack) {
  if (!in_window(created)) return;
  const auto c = static_cast<std::size_t>(tclass);
  pkt_latency_[c].add((now - created).us());
  bytes_delivered_[c] += size;
  slack_us_[c].add(slack.us());
  if (slack < Duration::zero()) {
    ++deadline_misses_[c];
  } else {
    goodput_bytes_[c] += size;
  }
  if (PhaseStore* ph = phase_of(created)) {
    ph->pkt_latency[c].add((now - created).us());
    ph->bytes_delivered[c] += size;
    ph->slack_us[c].add(slack.us());
    if (slack < Duration::zero()) {
      ++ph->deadline_misses[c];
    } else {
      ph->goodput_bytes[c] += size;
    }
  }
}

void MetricsCollector::on_packet_expired(const Packet& p) {
  if (relay_primary_ != nullptr) {
    if (*relay_window_) {
      relay_log_->defer(DeferredEffect{
          DeferredEffect::Kind::kPacketExpired,
          static_cast<std::uint8_t>(p.hdr.tclass),
          static_cast<std::uint32_t>(p.size()), p.t_created.ps(), 0, 0, 0});
    } else {
      relay_primary_->on_packet_expired(p);
    }
    return;
  }
  record_packet_expired(p.hdr.tclass, static_cast<std::uint32_t>(p.size()),
                        p.t_created);
}

void MetricsCollector::record_packet_expired(TrafficClass tclass,
                                             std::uint32_t size,
                                             TimePoint created) {
  if (!in_window(created)) return;
  const auto c = static_cast<std::size_t>(tclass);
  ++expired_packets_[c];
  expired_bytes_[c] += size;
  if (PhaseStore* ph = phase_of(created)) {
    ++ph->expired_packets[c];
    ph->expired_bytes[c] += size;
  }
}

void MetricsCollector::on_packet_dropped(TrafficClass tclass) {
  if (relay_primary_ != nullptr) {
    if (*relay_window_) {
      relay_log_->defer(DeferredEffect{
          DeferredEffect::Kind::kPacketDropped,
          static_cast<std::uint8_t>(tclass), 0, 0, 0, 0, 0});
    } else {
      relay_primary_->on_packet_dropped(tclass);
    }
    return;
  }
  ++dropped_[static_cast<std::size_t>(tclass)];
}

void MetricsCollector::on_message_delivered(TrafficClass tclass, TimePoint created,
                                            std::uint64_t bytes,
                                            TimePoint completed) {
  if (relay_primary_ != nullptr) {
    if (*relay_window_) {
      relay_log_->defer(DeferredEffect{
          DeferredEffect::Kind::kMessageDelivered,
          static_cast<std::uint8_t>(tclass), 0, created.ps(), completed.ps(),
          0, bytes});
    } else {
      relay_primary_->on_message_delivered(tclass, created, bytes, completed);
    }
    return;
  }
  static_cast<void>(bytes);
  if (!in_window(created)) return;
  const auto c = static_cast<std::size_t>(tclass);
  msg_latency_[c].add((completed - created).us());
  ++messages_[c];
  if (PhaseStore* ph = phase_of(created)) {
    ph->msg_latency[c].add((completed - created).us());
    ++ph->messages[c];
  }
}

void MetricsCollector::on_message_offered(TrafficClass tclass, std::uint64_t bytes,
                                          TimePoint now) {
  if (relay_primary_ != nullptr) {
    if (*relay_window_) {
      relay_log_->defer(DeferredEffect{
          DeferredEffect::Kind::kMessageOffered,
          static_cast<std::uint8_t>(tclass), 0, 0, now.ps(), 0, bytes});
    } else {
      relay_primary_->on_message_offered(tclass, bytes, now);
    }
    return;
  }
  if (!in_window(now)) return;
  bytes_offered_[static_cast<std::size_t>(tclass)] += bytes;
  if (PhaseStore* ph = phase_of(now)) {
    ph->bytes_offered[static_cast<std::size_t>(tclass)] += bytes;
  }
}

void MetricsCollector::set_relay(MetricsCollector* primary, ShardWindowLog* log,
                                 const bool* window_active) {
  DQOS_EXPECTS(primary != nullptr && log != nullptr && window_active != nullptr);
  DQOS_EXPECTS(primary != this);
  relay_primary_ = primary;
  relay_log_ = log;
  relay_window_ = window_active;
}

void MetricsCollector::apply(const DeferredEffect& e) {
  DQOS_ASSERT(relay_primary_ == nullptr);
  const auto tclass = static_cast<TrafficClass>(e.tclass);
  switch (e.kind) {
    case DeferredEffect::Kind::kPacketDelivered:
      record_packet_delivered(tclass, e.size, TimePoint::from_ps(e.t_created_ps),
                              TimePoint::from_ps(e.t_now_ps),
                              Duration::picoseconds(e.slack_ps));
      break;
    case DeferredEffect::Kind::kPacketExpired:
      record_packet_expired(tclass, e.size, TimePoint::from_ps(e.t_created_ps));
      break;
    case DeferredEffect::Kind::kPacketDropped:
      ++dropped_[static_cast<std::size_t>(tclass)];
      break;
    case DeferredEffect::Kind::kMessageDelivered:
      on_message_delivered(tclass, TimePoint::from_ps(e.t_created_ps), e.id,
                           TimePoint::from_ps(e.t_now_ps));
      break;
    case DeferredEffect::Kind::kMessageOffered:
      on_message_offered(tclass, e.id, TimePoint::from_ps(e.t_now_ps));
      break;
    case DeferredEffect::Kind::kFlowAborted:
      // Routed by the engine's effect sink to the network layer, never here.
      DQOS_ASSERT(false);
      break;
  }
}

ClassReport MetricsCollector::report(TrafficClass tc) const {
  const auto c = static_cast<std::size_t>(tc);
  ClassReport r;
  r.tclass = tc;
  r.packets = pkt_latency_[c].count();
  r.messages = messages_[c];
  const double window_sec = (end_ - start_).sec();
  DQOS_ASSERT(window_sec > 0.0);
  r.throughput_bytes_per_sec = static_cast<double>(bytes_delivered_[c]) / window_sec;
  r.offered_bytes_per_sec = static_cast<double>(bytes_offered_[c]) / window_sec;
  r.avg_packet_latency_us = pkt_latency_[c].mean();
  r.max_packet_latency_us = pkt_latency_[c].max();
  r.jitter_us = pkt_latency_[c].stddev();
  r.p99_packet_latency_us = pkt_latency_[c].p99();
  r.p999_packet_latency_us = pkt_latency_[c].p999();
  r.avg_message_latency_us = msg_latency_[c].mean();
  r.max_message_latency_us = msg_latency_[c].max();
  r.p99_message_latency_us = msg_latency_[c].p99();
  r.avg_slack_us = slack_us_[c].mean();
  r.dropped_packets = dropped_[c];
  r.deadline_miss_fraction =
      r.packets ? static_cast<double>(deadline_misses_[c]) /
                      static_cast<double>(r.packets)
                : 0.0;
  r.expired_packets = expired_packets_[c];
  r.expired_bytes = expired_bytes_[c];
  r.goodput_bytes_per_sec = static_cast<double>(goodput_bytes_[c]) / window_sec;
  const std::uint64_t decided = r.packets + r.expired_packets;
  r.deadline_miss_rate =
      decided ? static_cast<double>(deadline_misses_[c] + r.expired_packets) /
                    static_cast<double>(decided)
              : 0.0;
  return r;
}

ClassReport MetricsCollector::phase_report(std::size_t phase,
                                           TrafficClass tc) const {
  DQOS_EXPECTS(phase < phases_.size());
  const PhaseStore& ph = phases_[phase];
  const auto c = static_cast<std::size_t>(tc);
  ClassReport r;
  r.tclass = tc;
  r.packets = ph.pkt_latency[c].count();
  r.messages = ph.messages[c];
  const double window_sec = (ph.end - ph.start).sec();
  DQOS_ASSERT(window_sec > 0.0);
  r.throughput_bytes_per_sec =
      static_cast<double>(ph.bytes_delivered[c]) / window_sec;
  r.offered_bytes_per_sec =
      static_cast<double>(ph.bytes_offered[c]) / window_sec;
  r.avg_packet_latency_us = ph.pkt_latency[c].mean();
  r.max_packet_latency_us = ph.pkt_latency[c].max();
  r.jitter_us = ph.pkt_latency[c].stddev();
  r.p99_packet_latency_us = ph.pkt_latency[c].p99();
  r.p999_packet_latency_us = ph.pkt_latency[c].p999();
  r.avg_message_latency_us = ph.msg_latency[c].mean();
  r.max_message_latency_us = ph.msg_latency[c].max();
  r.p99_message_latency_us = ph.msg_latency[c].p99();
  r.avg_slack_us = ph.slack_us[c].mean();
  // dropped_packets deliberately stays 0: the drop hook has no creation
  // timestamp to attribute a drop to a phase (whole-run report has them).
  r.deadline_miss_fraction =
      r.packets ? static_cast<double>(ph.deadline_misses[c]) /
                      static_cast<double>(r.packets)
                : 0.0;
  r.expired_packets = ph.expired_packets[c];
  r.expired_bytes = ph.expired_bytes[c];
  r.goodput_bytes_per_sec =
      static_cast<double>(ph.goodput_bytes[c]) / window_sec;
  const std::uint64_t decided = r.packets + r.expired_packets;
  r.deadline_miss_rate =
      decided ? static_cast<double>(ph.deadline_misses[c] + r.expired_packets) /
                    static_cast<double>(decided)
              : 0.0;
  return r;
}

}  // namespace dqos
