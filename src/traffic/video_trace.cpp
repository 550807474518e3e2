#include "traffic/video_trace.hpp"

#include <fstream>

#include "util/contracts.hpp"

namespace dqos {

std::vector<std::uint32_t> load_frame_trace(const std::string& path) {
  std::vector<std::uint32_t> frames;
  std::ifstream in(path);
  if (!in) return frames;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Skip whitespace-only lines.
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    const long v = std::strtol(line.c_str() + pos, nullptr, 10);
    if (v > 0) frames.push_back(static_cast<std::uint32_t>(v));
  }
  return frames;
}

TraceVideoSource::TraceVideoSource(Simulator& sim, Host& host, Rng rng,
                                   MetricsCollector* metrics, FlowId flow,
                                   const std::vector<std::uint32_t>* trace,
                                   const TraceVideoParams& params)
    : TrafficSource(sim, host, rng, metrics),
      flow_(flow),
      trace_(trace),
      params_(params),
      next_frame_(params.start_frame) {
  DQOS_EXPECTS(trace_ != nullptr && !trace_->empty());
  DQOS_EXPECTS(params.frame_period > Duration::zero());
  next_frame_ %= trace_->size();
}

double TraceVideoSource::trace_mean_bytes(const std::vector<std::uint32_t>& trace) {
  DQOS_EXPECTS(!trace.empty());
  double sum = 0.0;
  for (const auto f : trace) sum += f;
  return sum / static_cast<double>(trace.size());
}

void TraceVideoSource::start(TimePoint stop) {
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

void TraceVideoSource::frame_tick() {
  emit(flow_, (*trace_)[next_frame_]);
  next_frame_ = (next_frame_ + 1) % trace_->size();
  const TimePoint next = sim_.now() + params_.frame_period;
  if (next < stop_) {
    pending_ = sim_.schedule_at(next, host_.lane(), [this] {
      pending_ = 0;
      frame_tick();
    });
  }
}

}  // namespace dqos
