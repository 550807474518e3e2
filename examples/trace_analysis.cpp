/// \file trace_analysis.cpp
/// Where does latency come from? Attaches a PacketTracer to a full
/// simulation and decomposes control-packet latency into its stages:
/// NIC queueing (created -> injected), network transit (injected ->
/// delivered), and per-hop residence — comparing Traditional vs Advanced
/// to show *where* the EDF architecture wins.
///
///   ./trace_analysis [--paper]
#include <cstdio>

#include "core/experiment.hpp"
#include "core/network_simulator.hpp"
#include "trace/tracer.hpp"
#include "util/stats.hpp"

using namespace dqos;
using namespace dqos::literals;

namespace {

StreamingStats summarize(const std::vector<double>& samples) {
  StreamingStats s;
  for (const double v : samples) s.add(v);
  return s;
}

void analyze(SwitchArch arch, const SimConfig& base) {
  SimConfig cfg = base;
  cfg.arch = arch;
  NetworkSimulator net(cfg);
  PacketTracer tracer(1u << 22);
  net.attach_tracer(tracer);
  (void)net.run();

  // Stage decomposition over every traced packet.
  const auto nic = summarize(
      tracer.stage_latencies_us(TraceEvent::kCreated, TraceEvent::kInjected));
  const auto net_transit = summarize(
      tracer.stage_latencies_us(TraceEvent::kInjected, TraceEvent::kDelivered));
  const auto hop = summarize(
      tracer.stage_latencies_us(TraceEvent::kHopArrival, TraceEvent::kLinkDepart));

  std::printf("%-18s | NIC queueing %8.1f us avg (max %9.1f) | network "
              "%7.1f us avg | per-hop residence %6.2f us avg\n",
              std::string(to_string(arch)).c_str(), nic.mean(), nic.max(),
              net_transit.mean(), hop.mean());
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper = has_flag(argc, argv, "--paper");
  SimConfig base = paper ? SimConfig::paper(SwitchArch::kAdvanced2Vc, 1.0)
                         : SimConfig::small(SwitchArch::kAdvanced2Vc, 1.0);
  base.measure = 5_ms;  // tracing every packet event is memory-heavy
  base.drain = 2_ms;

  std::printf("Latency decomposition from packet traces (all classes, 100%% "
              "load):\n\n");
  analyze(SwitchArch::kTraditional2Vc, base);
  analyze(SwitchArch::kAdvanced2Vc, base);

  std::printf("\nReading: under Traditional the per-hop residence and NIC "
              "queueing balloon for\neveryone (FIFO sharing); under the EDF "
              "fabric regulated packets move hop-to-hop\nin near-constant "
              "time and the *deadline*, not congestion, sets delivery.\n");
  return 0;
}
