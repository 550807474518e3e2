/// \file transitive.hpp
/// Whole-program (call-graph-aware) rules for dqos_lint v2
/// (DESIGN.md §15). Each rule walks the call graph from its roots and
/// reports findings whose message embeds the full call chain from root
/// to offending line, so a CI failure is actionable without re-running
/// the tool locally. The walk starts at depth 0: a marked function's own
/// body is scanned by the same code as its callees.
///
///   rule id               | guards against
///   ----------------------|-------------------------------------------
///   hot-path-alloc        | allocation (new / make_unique / malloc),
///                         | container growth (push_back / insert /
///                         | resize / ...), type erasure or wall-clock
///                         | reads in the body of a function marked
///                         | `// dqos-lint: hot` (depth 0 of the walk)
///   hot-path-transitive   | the same constructs in any function
///                         | *reachable* from a hot root (depth >= 1)
///   cross-shard-access    | direct calendar calls (schedule_at /
///                         | schedule_after / cancel / drain_due /
///                         | run_until) in the statements of a
///                         | `// dqos-lint: shard` region itself
///   shard-ownership       | the same calls in any function reachable
///                         | from the calls made inside such a region —
///                         | shard workers cross shards only through
///                         | the engine's mailbox API
///   rng-stream-discipline | (a) a named split-stream constant (e.g.
///                         | 0xbacc0ff5) seeded from more than one
///                         | subsystem, (b) one function drawing from
///                         | two distinct RNG streams
///   float-time-transitive | floating-point time/bandwidth accumulation
///                         | across a function boundary on merge /
///                         | replay / reconcile / barrier paths
///   unattached-marker     | a `hot` marker with no function at or
///                         | after it, or a `shard` marker outside any
///                         | function body: it would guard nothing
///
/// All of them honour `// dqos-lint: allow(rule-id)` at the offending line
/// (findings come back with Finding::suppressed set, filtered by the
/// driver).
#pragma once

#include <vector>

#include "lint/callgraph.hpp"
#include "lint/indexer.hpp"
#include "lint/rules.hpp"

namespace dqos::lintkit {

/// Runs every transitive rule over the finished index + call graph and
/// appends findings (suppressed ones included, flagged) to `out`.
void run_transitive_rules(const Index& idx, const CallGraph& graph,
                          std::vector<Finding>& out);

}  // namespace dqos::lintkit
