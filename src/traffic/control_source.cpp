#include "traffic/control_source.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace dqos {

ControlSource::ControlSource(Simulator& sim, Host& host, Rng rng,
                             MetricsCollector* metrics,
                             std::vector<FlowId> flows_by_dst,
                             const ControlParams& params,
                             const DestinationPattern* pattern)
    : TrafficSource(sim, host, rng, metrics),
      flows_by_dst_(std::move(flows_by_dst)),
      params_(params),
      pattern_(pattern) {
  DQOS_EXPECTS(flows_by_dst_.size() >= 2);
  DQOS_EXPECTS(params.target_bytes_per_sec >= 0.0);  // 0 = paused until retarget
  DQOS_EXPECTS(params.min_bytes > 0 && params.min_bytes <= params.max_bytes);
  if (pattern_ == nullptr) {
    owned_ = make_pattern(PatternParams{},
                          static_cast<std::uint32_t>(flows_by_dst_.size()));
    pattern_ = owned_.get();
  }
  const double mean_msg = (params.min_bytes + params.max_bytes) / 2.0;
  mean_interarrival_sec_ = params.target_bytes_per_sec > 0.0
                               ? mean_msg / params.target_bytes_per_sec
                               : 0.0;
}

void ControlSource::start(TimePoint stop) {
  started_ = true;
  stop_ = stop;
  schedule_next();
}

void ControlSource::retarget(double target_bytes_per_sec,
                             const DestinationPattern* pattern) {
  DQOS_EXPECTS(target_bytes_per_sec >= 0.0);
  params_.target_bytes_per_sec = target_bytes_per_sec;
  if (pattern != nullptr) pattern_ = pattern;
  const double mean_msg = (params_.min_bytes + params_.max_bytes) / 2.0;
  mean_interarrival_sec_ =
      target_bytes_per_sec > 0.0 ? mean_msg / target_bytes_per_sec : 0.0;
  if (!started_ || stopped_) return;
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
  schedule_next();
}

void ControlSource::schedule_next() {
  if (mean_interarrival_sec_ <= 0.0) return;  // paused (rate 0)
  const double wait = -mean_interarrival_sec_ * std::log(rng_.uniform_pos());
  const TimePoint at = sim_.now() + Duration::from_seconds_double(wait);
  if (at >= stop_) return;
  pending_ = sim_.schedule_at(at, host_.lane(), [this] {
    pending_ = 0;
    arrival();
  });
}

void ControlSource::arrival() {
  const NodeId dst = pattern_->pick(host_.id(), rng_);
  const FlowId f = flows_by_dst_.at(dst);
  DQOS_ASSERT(f != kInvalidFlow);
  const auto bytes = rng_.uniform_int(params_.min_bytes, params_.max_bytes);
  emit(f, bytes);
  schedule_next();
}

}  // namespace dqos
