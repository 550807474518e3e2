/// \file rules.hpp
/// The per-file project-invariant rules dqos_lint enforces (DESIGN.md §9).
/// The marker-driven rules (hot-path-alloc, cross-shard-access) live with
/// the call-graph rules in transitive.hpp: they are the depth-0 case of
/// the same walk.
///
///   rule id                | guards against
///   -----------------------|------------------------------------------------
///   no-wallclock           | wall-clock / libc randomness outside
///                          | src/util/rng* (breaks replay determinism)
///   unordered-iteration    | iterating unordered containers keyed by
///                          | pointers or FlowId in simulation-state code
///                          | (iteration order leaks into event order)
///   per-flow-map           | unordered_map/unordered_set keyed by FlowId
///                          | in src/ — per-flow state belongs in
///                          | DenseFlowTable (util/dense_flow_table.hpp),
///                          | which the 1k-host bytes/host budget counts on
///   hot-path-type-erasure  | std::function / shared_ptr re-entering the
///                          | de-virtualized hot path (src/sim, src/switchfab)
///   float-time-accum       | accumulating simulated time in floating point
///                          | (drift can reorder deadlines; time is int ps)
///   unaudited-packet-free  | PacketPtr reset / nullptr-assignment in src/
///                          | (drop paths must retire_packet() so the
///                          | auditor's custody census stays exact)
///   header-standalone      | headers that do not compile on their own
///                          | (checked by the driver, not a token rule)
///
/// Every rule is suppressible via `// dqos-lint: allow(rule-id)` — see
/// lexer.hpp for the marker grammar.
#pragma once

#include <array>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace dqos::lintkit {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  /// Matched an `allow(...)` marker. Suppressed findings are filtered from
  /// reports but kept internally so `--check-suppressions` can tell live
  /// markers from stale ones.
  bool suppressed = false;
};

/// Banned-token tables shared by the per-file rules and the transitive
/// rules (tools/lint/transitive.cpp) — one source of truth, so the
/// whole-program layer can never drift from the lexical one.
namespace tables {
inline constexpr std::array<const char*, 5> kWallclockHeaders = {
    "chrono", "ctime", "time.h", "sys/time.h", "random"};
inline constexpr std::array<const char*, 14> kWallclockIdents = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device",
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "gettimeofday", "clock_gettime",
    "localtime", "gmtime"};
inline constexpr std::array<const char*, 4> kWallclockCalls = {"time", "clock",
                                                              "rand", "srand"};
inline constexpr std::array<const char*, 6> kAllocIdents = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc",
    "aligned_alloc"};
inline constexpr std::array<const char*, 8> kGrowthCalls = {
    "push_back", "emplace_back", "emplace", "insert",
    "resize",    "reserve",      "assign",  "append"};
inline constexpr std::array<const char*, 3> kTypeErasureIdents = {
    "shared_ptr", "make_shared", "weak_ptr"};
inline constexpr std::array<const char*, 5> kDirectCalendarCalls = {
    "schedule_at", "schedule_after", "cancel", "drain_due", "run_until"};
}  // namespace tables

/// True when token `i` is a wall-clock/libc-RNG *call site*: one of
/// tables::kWallclockCalls in call context (not a member access, a
/// `SomeType::time(...)` qualified call, or a declaration).
[[nodiscard]] bool wallclock_call_site(const std::vector<Token>& t,
                                       std::size_t i);

/// Name looks time-valued ("time", "now", "elapsed", "deadline",
/// case-insensitive substring match).
[[nodiscard]] bool time_like_name(const std::string& name);

/// File-scope classification derived from the repo-relative path
/// (forward-slash separated).
struct FileScope {
  bool rng_exempt = false;  ///< src/util/rng* — the sanctioned RNG home
  bool hot_path = false;    ///< src/sim/, src/switchfab/
  bool sim_state = false;   ///< anything under src/
};
[[nodiscard]] FileScope classify(const std::string& rel_path);

/// Names of unordered_map/unordered_set variables declared in `lx` whose
/// key type is a pointer or FlowId. Exposed so a .cpp can inherit the
/// member declarations of its companion header.
[[nodiscard]] std::set<std::string> nondeterministic_containers(const LexedFile& lx);

/// Runs every token rule on one lexed file. `companion_containers` seeds
/// the unordered-iteration rule with declarations from the matching
/// header. Suppressed findings are dropped here.
void run_rules(const std::string& rel_path, const LexedFile& lx,
               const std::set<std::string>& companion_containers,
               std::vector<Finding>& out);

}  // namespace dqos::lintkit
