#include "traffic/selfsimilar_source.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace dqos {

SelfSimilarSource::SelfSimilarSource(Simulator& sim, Host& host, Rng rng,
                                     MetricsCollector* metrics,
                                     std::vector<FlowId> flows_by_dst,
                                     const SelfSimilarParams& params,
                                     const DestinationPattern* pattern)
    : TrafficSource(sim, host, rng, metrics),
      flows_by_dst_(std::move(flows_by_dst)),
      params_(params),
      pattern_(pattern),
      size_dist_(params.size_alpha, params.min_bytes, params.max_bytes),
      burst_dist_(params.burst_alpha, params.burst_min),
      configured_gap_(params.intra_burst_gap) {
  DQOS_EXPECTS(flows_by_dst_.size() >= 2);
  if (pattern_ == nullptr) {
    owned_ = make_pattern(PatternParams{},
                          static_cast<std::uint32_t>(flows_by_dst_.size()));
    pattern_ = owned_.get();
  }
  DQOS_EXPECTS(params.target_bytes_per_sec >= 0.0);  // 0 = paused until retarget
  recalibrate();
}

void SelfSimilarSource::recalibrate() {
  if (params_.target_bytes_per_sec <= 0.0) {
    mean_off_sec_ = 0.0;  // paused: schedule_next_burst becomes a no-op
    return;
  }
  // Calibrate the off period so the long-run rate hits the target:
  //   rate = E[burst bytes] / (E[burst duration] + E[off])
  // At high targets the configured intra-burst gap can exceed the whole
  // byte budget; drop the gap to zero (back-to-back burst) in that case so
  // calibration stays feasible. The clamp is re-decided from the
  // configured gap each time, so a rate drop can restore the gap.
  const double mean_burst_msgs = burst_dist_.mean();
  const double mean_burst_bytes = mean_burst_msgs * size_dist_.mean();
  const double budget_sec = mean_burst_bytes / params_.target_bytes_per_sec;
  params_.intra_burst_gap = configured_gap_;
  double mean_burst_dur = mean_burst_msgs * params_.intra_burst_gap.sec();
  if (mean_burst_dur >= 0.5 * budget_sec) {
    params_.intra_burst_gap = Duration::zero();
    mean_burst_dur = 0.0;
  }
  mean_off_sec_ = budget_sec - mean_burst_dur;
  DQOS_ENSURES(mean_off_sec_ > 0.0);
}

void SelfSimilarSource::start(TimePoint stop) {
  started_ = true;
  stop_ = stop;
  schedule_next_burst();
}

void SelfSimilarSource::retarget(double target_bytes_per_sec,
                                 const DestinationPattern* pattern) {
  DQOS_EXPECTS(target_bytes_per_sec >= 0.0);
  params_.target_bytes_per_sec = target_bytes_per_sec;
  if (pattern != nullptr) pattern_ = pattern;
  recalibrate();
  if (!started_ || stopped_) return;
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
  // Abandon any burst in progress; the next burst draws fresh under the
  // new rate and pattern.
  burst_left_ = 0;
  burst_flow_ = kInvalidFlow;
  schedule_next_burst();
}

void SelfSimilarSource::schedule_next_burst() {
  if (mean_off_sec_ <= 0.0) return;  // paused (rate 0)
  const double wait = -mean_off_sec_ * std::log(rng_.uniform_pos());
  const TimePoint at = sim_.now() + Duration::from_seconds_double(wait);
  if (at >= stop_) return;
  pending_ = sim_.schedule_at(at, host_.lane(), [this] {
    pending_ = 0;
    begin_burst();
  });
}

void SelfSimilarSource::begin_burst() {
  const NodeId dst = pattern_->pick(host_.id(), rng_);
  burst_flow_ = flows_by_dst_.at(dst);
  DQOS_ASSERT(burst_flow_ != kInvalidFlow);
  burst_left_ = static_cast<std::uint32_t>(std::lround(burst_dist_(rng_)));
  if (burst_left_ == 0) burst_left_ = 1;
  burst_message();
}

void SelfSimilarSource::burst_message() {
  const auto bytes = static_cast<std::uint64_t>(size_dist_(rng_));
  emit(burst_flow_, bytes);
  if (--burst_left_ > 0 && sim_.now() + params_.intra_burst_gap < stop_) {
    pending_ = sim_.schedule_after(params_.intra_burst_gap, host_.lane(),
                                   [this] {
                                     pending_ = 0;
                                     burst_message();
                                   });
  } else {
    schedule_next_burst();
  }
}

}  // namespace dqos
