#include "traffic/cbr_source.hpp"

#include "util/contracts.hpp"

namespace dqos {

CbrSource::CbrSource(Simulator& sim, Host& host, Rng rng, MetricsCollector* metrics,
                     FlowId flow, const CbrParams& params)
    : TrafficSource(sim, host, rng, metrics), flow_(flow), params_(params) {
  DQOS_EXPECTS(params.message_bytes > 0);
  DQOS_EXPECTS(params.period > Duration::zero());
}

void CbrSource::start(TimePoint stop) {
  started_ = true;
  stop_ = stop;
  const TimePoint first = sim_.now() + params_.phase;
  if (first >= stop_) return;
  pending_ = sim_.schedule_at(first, host_.lane(), [this] {
    pending_ = 0;
    tick();
  });
}

void CbrSource::tick() {
  emit(flow_, params_.message_bytes);
  const TimePoint next = sim_.now() + params_.period;
  if (next < stop_) {
    pending_ = sim_.schedule_at(next, host_.lane(), [this] {
      pending_ = 0;
      tick();
    });
  }
}

}  // namespace dqos
