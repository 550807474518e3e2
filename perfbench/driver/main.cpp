/// \file main.cpp
/// dqos_perfbench — one benchmark operation, printed as one JSON line.
///
///   dqos_perfbench --config=configs/mesh16.cfg --arch=advanced --seed=7
///   dqos_perfbench --trace --config=...        # + spans and layer drivers
///
/// The workload is given the way dqos_sim takes one (a config file, then
/// `--key=value` overrides). Without --trace the driver builds the platform,
/// runs it through RunController and reports host time, work counts, the
/// simulated results and a fingerprint of them. With --trace it also runs
/// a post-run audit and the layer drivers, and prints every span it took.
/// perfbench/run.py drives this binary; exit codes: 0 ran, 1 the program
/// threw during the run, 2 bad workload arguments.
#include <cstdio>

#include "core/config_io.hpp"
#include "fault/auditor.hpp"
#include "layers.hpp"
#include "workload.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const dqos::ArgParser cli(argc, argv);
  const bool traced = cli.has("trace");
  Workload w;
  try {
    w = load_workload(cli);
  } catch (const dqos::DqosError& e) {
    std::fprintf(stderr, "dqos_perfbench: %s\n", e.what());
    return 2;
  }

  SpanLog log(traced);
  JsonObject out;
  try {
    const std::uint64_t events = run_op(w, log, out);
    if (traced) run_layer_drivers(w, events, log, out);
  } catch (const dqos::AuditError& e) {
    std::fprintf(stderr, "dqos_perfbench: %s\n%s", e.what(), e.dump().c_str());
    return 1;
  } catch (const dqos::DqosError& e) {
    std::fprintf(stderr, "dqos_perfbench: %s\n", e.what());
    return 1;
  }
  if (traced) out.put_raw("spans", log.json());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
