/// \file indexer.hpp
/// Whole-program indexer for dqos_lint v2 (DESIGN.md §15).
///
/// Sits on top of the lexer and extracts just enough structure for
/// call-graph-aware rules: function/method definitions (with their
/// namespace/class qualification, derived from a scope stack plus any
/// written `A::B::` qualifier), the call sites inside each body, the
/// `// dqos-lint: shard` regions with their calls, and the RNG
/// split/draw sites the rng-stream-discipline rule consumes.
///
/// This is a heuristic indexer, not a compiler: overload sets collapse
/// onto one name, receiver types of `obj.f()` calls are unknown (such
/// calls resolve to *every* definition named `f` — deliberately, so
/// virtual dispatch is over-approximated rather than missed), and
/// function pointers / InlineTask closures are invisible. The known
/// false-negative classes are documented in DESIGN.md §15.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace dqos::lintkit {

/// One scanned source file: the unit of ownership for lexed tokens.
struct Unit {
  std::string file;  ///< repo-relative, forward-slash separated
  LexedFile lx;
};

/// One extracted function or method definition.
struct FunctionDef {
  int id = -1;
  int unit = -1;            ///< index into Index::units
  std::string qualified;    ///< e.g. "dqos::Channel::send"
  std::string name;         ///< last component, e.g. "send"
  int line = 0;             ///< line of the name token
  std::size_t body_begin = 0;  ///< token index of the opening '{'
  std::size_t body_end = 0;    ///< token index one past the matching '}'
  bool hot = false;         ///< carries a `// dqos-lint: hot` marker
  bool ret_fp = false;      ///< declared return type is double/float
};

/// A call site inside a function body or shard region.
struct CallSite {
  std::string callee;    ///< as written; qualified calls keep "A::B::f"
  std::string receiver;  ///< `x` in `x.f()` / `x->f()`; empty otherwise
  bool member = false;   ///< true for `.`/`->` calls (type unknown)
  int line = 0;
};

/// A `// dqos-lint: shard` region: from the first token at/after the
/// marker to the '}' closing the block it sits in, and the calls inside.
struct ShardRegion {
  int unit = -1;
  int marker_line = 0;
  int enclosing_def = -1;  ///< def whose body contains the region, or -1
  std::size_t begin = 0;   ///< token index of the region's first token
  std::size_t end = 0;     ///< token index one past its last token
  std::vector<CallSite> calls;
};

/// A `// dqos-lint: hot` marker with no function at or after it, or a
/// `// dqos-lint: shard` marker outside every function body: it attaches
/// to nothing, so nothing it means to guard would be checked.
struct UnattachedMarker {
  int unit = -1;
  int line = 0;
  const char* kind = "";  ///< "hot" or "shard"
};

/// `rng.split(CONSTANT)` with a literal first argument: a named stream
/// derivation site (rng-stream-discipline).
struct RngSplitSite {
  int unit = -1;
  int def = -1;             ///< enclosing function, or -1 at file scope
  std::uint64_t constant = 0;
  int line = 0;
};

/// `recv.uniform()` / `recv.next()` / ... : a draw from a named stream.
struct RngDrawSite {
  int def = -1;
  std::string receiver;
  int line = 0;
};

struct Index {
  std::vector<Unit> units;
  std::vector<FunctionDef> defs;
  std::vector<std::vector<CallSite>> calls;  ///< per def id
  std::vector<ShardRegion> shard_regions;
  std::vector<UnattachedMarker> unattached;
  std::vector<RngSplitSite> rng_splits;
  std::vector<RngDrawSite> rng_draws;
  /// Unqualified name -> def ids, for suffix resolution.
  std::map<std::string, std::vector<int>> by_name;

  [[nodiscard]] const Unit& unit_of(const FunctionDef& d) const {
    return units[static_cast<std::size_t>(d.unit)];
  }
};

/// Indexes one lexed file into `idx` (appends units/defs/calls/...).
void index_unit(Unit unit, Index& idx);

/// Builds the name table; call once after the last index_unit().
void finalize_index(Index& idx);

}  // namespace dqos::lintkit
