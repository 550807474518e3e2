// One benchmark operation: build the platform a workload describes, run it
// through RunController exactly as dqos_sim would, and report host time,
// work counts and the simulated results.
#pragma once

#include <string>

#include "core/config.hpp"
#include "core/scenario.hpp"
#include "record.hpp"
#include "util/cli.hpp"

namespace perfbench {

struct Workload {
  dqos::SimConfig cfg;
  /// Single-phase unless the config holds [phase.N] sections.
  dqos::Scenario scn;
};

/// Reads a workload the way dqos_sim reads its arguments: `--config=FILE`
/// first, then the remaining `--key=value` overrides. Throws ConfigError.
Workload load_workload(const dqos::ArgParser& args);

/// Runs one operation and adds its fields to `out`. With a live `log`, the
/// constructor, prepare and run calls are recorded as spans, and an extra
/// post-run InvariantAuditor::audit_now span is taken when the auditor is
/// armed. Returns the run's event count. Throws whatever the program
/// throws (RunError, AuditError, ...).
std::uint64_t run_op(const Workload& w, SpanLog& log, JsonObject& out);

}  // namespace perfbench
