#include "traffic/video_source.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/distributions.hpp"

namespace dqos {
namespace {

// IBBPBBPBBPBB with relative sizes I:2.5, P:1.0, B:0.5.
constexpr std::array<double, 12> kGopRaw = {2.5, 0.5, 0.5, 1.0, 0.5, 0.5,
                                            1.0, 0.5, 0.5, 1.0, 0.5, 0.5};

}  // namespace

VideoSource::VideoSource(Simulator& sim, Host& host, Rng rng,
                         MetricsCollector* metrics, FlowId flow,
                         const VideoParams& params)
    : TrafficSource(sim, host, rng, metrics), flow_(flow), params_(params) {
  DQOS_EXPECTS(params.mean_bytes_per_sec > 0.0);
  DQOS_EXPECTS(params.frame_period > Duration::zero());
  DQOS_EXPECTS(params.min_frame_bytes < params.max_frame_bytes);
  double sum = 0.0;
  for (const double w : kGopRaw) sum += w;
  for (std::size_t i = 0; i < kGopRaw.size(); ++i) {
    gop_scale_[i] = kGopRaw[i] * (static_cast<double>(kGopRaw.size()) / sum);
  }
  // Streams join mid-GoP in reality; starting everyone at the I-frame
  // would make short measurement windows see only clamped I-frames.
  gop_pos_ = static_cast<std::size_t>(rng_.uniform_int(0, kGopRaw.size() - 1));
}

double VideoSource::mean_frame_bytes() const {
  return params_.mean_bytes_per_sec * params_.frame_period.sec();
}

std::uint32_t VideoSource::draw_frame_size() {
  const double type_mean = mean_frame_bytes() * gop_scale_[gop_pos_];
  gop_pos_ = (gop_pos_ + 1) % gop_scale_.size();
  LogNormal dist(type_mean, params_.size_cv);
  const double raw = dist(rng_);
  const double clamped =
      std::clamp(raw, static_cast<double>(params_.min_frame_bytes),
                 static_cast<double>(params_.max_frame_bytes));
  return static_cast<std::uint32_t>(clamped);
}

double VideoSource::estimate_realized_bytes_per_sec(const VideoParams& params,
                                                    Rng rng, int samples) {
  // A throwaway source bound to nothing: only draw_frame_size is used.
  // Simulator/Host references are never touched by the draws.
  double sum = 0.0;
  LogNormal unused(1.0, 0.1);
  (void)unused;
  std::array<double, 12> scale{};
  double wsum = 0.0;
  for (const double w : kGopRaw) wsum += w;
  for (std::size_t i = 0; i < kGopRaw.size(); ++i) {
    scale[i] = kGopRaw[i] * (static_cast<double>(kGopRaw.size()) / wsum);
  }
  const double mean_frame = params.mean_bytes_per_sec * params.frame_period.sec();
  for (int i = 0; i < samples; ++i) {
    LogNormal dist(mean_frame * scale[static_cast<std::size_t>(i) % scale.size()],
                   params.size_cv);
    const double raw = dist(rng);
    sum += std::clamp(raw, static_cast<double>(params.min_frame_bytes),
                      static_cast<double>(params.max_frame_bytes));
  }
  return (sum / samples) / params.frame_period.sec();
}

void VideoSource::start(TimePoint stop) {
  started_ = true;
  stop_ = stop;
  Duration phase = Duration::zero();
  if (params_.randomize_phase) {
    phase = Duration::picoseconds(static_cast<std::int64_t>(
        rng_.uniform_int(0, static_cast<std::uint64_t>(params_.frame_period.ps() - 1))));
  }
  const TimePoint first = sim_.now() + phase;
  if (first >= stop_) return;
  pending_ = sim_.schedule_at(first, host_.lane(), [this] {
    pending_ = 0;
    frame_tick();
  });
}

void VideoSource::frame_tick() {
  bool drop = false;
  if (params_.drop_late_b_frames) {
    // B slots are the only GoP positions scaled below the mean.
    const bool b_frame = gop_scale_[gop_pos_] < 1.0;
    const std::uint64_t expired = host_.flow_expired_packets(flow_);
    if (b_frame && expired > last_seen_expired_) {
      drop = true;
      ++dropped_frames_;
    }
    last_seen_expired_ = expired;
  }
  const std::uint32_t bytes = draw_frame_size();
  if (!drop) emit(flow_, bytes);
  const TimePoint next = sim_.now() + params_.frame_period;
  if (next < stop_) {
    pending_ = sim_.schedule_at(next, host_.lane(), [this] {
      pending_ = 0;
      frame_tick();
    });
  }
}

}  // namespace dqos
