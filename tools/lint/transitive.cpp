#include "lint/transitive.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace dqos::lintkit {
namespace {

using TokenVec = std::vector<Token>;

bool is_ident(const TokenVec& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent && t[i].text == text;
}
bool is_punct(const TokenVec& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == text;
}
bool ident_at(const TokenVec& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

bool contains_ci(const std::string& s, const char* needle) {
  const std::string n(needle);
  if (s.size() < n.size()) return false;
  for (std::size_t i = 0; i + n.size() <= s.size(); ++i) {
    bool ok = true;
    for (std::size_t j = 0; j < n.size(); ++j) {
      if (std::tolower(static_cast<unsigned char>(s[i + j])) != n[j]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Owning subsystem of a repo-relative path: the first two components
/// ("src/sim", "tools/lint"), or the first alone for top-level dirs.
std::string subsystem(const std::string& file) {
  const std::size_t first = file.find('/');
  if (first == std::string::npos) return file;
  const std::size_t second = file.find('/', first + 1);
  return second == std::string::npos ? file.substr(0, first)
                                     : file.substr(0, second);
}

std::string hex(std::uint64_t v) {
  std::ostringstream ss;
  ss << "0x" << std::hex << v;
  return ss.str();
}

void add(const Index& idx, const FunctionDef& def, int line, const char* rule,
         std::string message, std::vector<Finding>& out) {
  const Unit& u = idx.unit_of(def);
  out.push_back(Finding{u.file, line, rule, std::move(message),
                        u.lx.allowed(rule, line)});
}

// ---------------------------------------------------------------------------
// hot-path-alloc (depth 0) / hot-path-transitive (depth >= 1)
// ---------------------------------------------------------------------------

/// One banned construct inside a function body.
struct Offense {
  int line = 0;
  std::string what;
};

/// Scans a def's own body tokens for the constructs hot-reachable code
/// must not contain: heap allocation, container growth, type erasure,
/// wall-clock / libc randomness. Same token tables as the directory-scoped
/// rules (rules.hpp tables::) so the two layers cannot drift.
std::vector<Offense> hot_offenses(const Index& idx, const FunctionDef& def) {
  const TokenVec& t = idx.unit_of(def).lx.tokens;
  std::vector<Offense> out;
  for (std::size_t i = def.body_begin + 1;
       i + 1 < def.body_end && i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool member = i > 0 && (is_punct(t, i - 1, ".") ||
                                  is_punct(t, i - 1, "->"));
    if (s == "new" && !member && !is_punct(t, i - 1, "::")) {
      out.push_back(Offense{t[i].line, "'new' (heap allocation)"});
      continue;
    }
    for (const char* id : tables::kAllocIdents) {
      if (s == id) out.push_back(Offense{t[i].line, "'" + s + "' (allocation)"});
    }
    if (member && is_punct(t, i + 1, "(")) {
      for (const char* call : tables::kGrowthCalls) {
        if (s == call) {
          out.push_back(
              Offense{t[i].line, "'." + s + "()' (container growth)"});
        }
      }
    }
    for (const char* id : tables::kTypeErasureIdents) {
      if (s == id) {
        out.push_back(Offense{t[i].line, "'" + s + "' (type erasure)"});
      }
    }
    if (s == "function" && i >= 2 && is_punct(t, i - 1, "::") &&
        is_ident(t, i - 2, "std")) {
      out.push_back(Offense{t[i].line, "'std::function' (type erasure)"});
    }
    for (const char* id : tables::kWallclockIdents) {
      if (s == id) out.push_back(Offense{t[i].line, "'" + s + "' (wall clock)"});
    }
    if (wallclock_call_site(t, i)) {
      out.push_back(Offense{t[i].line, "'" + s + "()' (wall clock / libc RNG)"});
    }
  }
  return out;
}

/// Every function reachable from a `// dqos-lint: hot` root, the roots
/// themselves included: a root's own body reports as hot-path-alloc, a
/// callee's as hot-path-transitive with the call chain.
void rule_hot_path(const Index& idx, const CallGraph& graph,
                   std::vector<Finding>& out) {
  std::vector<int> roots;
  for (const FunctionDef& d : idx.defs) {
    if (d.hot) roots.push_back(d.id);
  }
  if (roots.empty()) return;
  const Reach reach = reach_from(idx, graph, roots);
  for (const FunctionDef& d : idx.defs) {
    const int depth = reach.depth[static_cast<std::size_t>(d.id)];
    if (depth < 0) continue;
    for (const Offense& o : hot_offenses(idx, d)) {
      if (depth == 0) {
        add(idx, d, o.line, "hot-path-alloc",
            o.what + " inside the `dqos-lint: hot` function '" + d.qualified +
                "' — hot paths must not allocate, type-erase or read the "
                "wall clock (preallocate at construction; DESIGN.md §11)",
            out);
      } else {
        add(idx, d, o.line, "hot-path-transitive",
            o.what + " in '" + d.qualified +
                "', reachable from a `dqos-lint: hot` root via " +
                chain_string(idx, reach, d.id),
            out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cross-shard-access (the region itself) / shard-ownership (its callees)
// ---------------------------------------------------------------------------

/// Calls `report(i)` for every direct calendar call (tables::
/// kDirectCalendarCalls: schedule_at / schedule_after / cancel / drain_due /
/// run_until) at token index i in [begin, end) of `t`.
template <class Report>
void scan_calendar_calls(const TokenVec& t, std::size_t begin, std::size_t end,
                         Report report) {
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || !is_punct(t, i + 1, "(")) continue;
    for (const char* call : tables::kDirectCalendarCalls) {
      if (t[i].text == call) report(i);
    }
  }
}

/// A `// dqos-lint: shard` region runs on a shard worker while other
/// shards run concurrently: neither its own statements nor anything they
/// call may touch a calendar directly. Cross-shard traffic goes through
/// the engine's mailbox API (ShardWindowLog::post of a CrossMsg or note),
/// which the destination shard delivers on its own thread; even an insert
/// under a pre-drawn key races the owning worker's drain.
void rule_shard(const Index& idx, const CallGraph& graph,
                std::vector<Finding>& out) {
  for (const ShardRegion& region : idx.shard_regions) {
    const Unit& u = idx.units[static_cast<std::size_t>(region.unit)];
    const TokenVec& rt = u.lx.tokens;
    scan_calendar_calls(rt, region.begin, region.end, [&](std::size_t i) {
      const Token& tok = rt[i];
      out.push_back(Finding{
          u.file, tok.line, "cross-shard-access",
          "'" + tok.text + "()' inside a `dqos-lint: shard` region — worker "
                           "code must not touch a calendar directly; post a "
                           "CrossMsg/note through the mailbox API and let the "
                           "destination shard deliver it",
          u.lx.allowed("cross-shard-access", tok.line)});
    });

    std::set<int> root_set;
    for (const CallSite& c : region.calls) {
      for (const int d : resolve_call(idx, region.enclosing_def, c)) {
        root_set.insert(d);
      }
    }
    if (root_set.empty()) continue;
    const std::vector<int> roots(root_set.begin(), root_set.end());
    const Reach reach = reach_from(idx, graph, roots);
    const std::string where = u.file + ":" + std::to_string(region.marker_line);
    for (const FunctionDef& d : idx.defs) {
      if (!reach.reached(d.id)) continue;
      const TokenVec& t = idx.unit_of(d).lx.tokens;
      const std::size_t body_end = d.body_end - 1;  // the closing '}'
      scan_calendar_calls(t, d.body_begin + 1, body_end, [&](std::size_t i) {
        add(idx, d, t[i].line, "shard-ownership",
            "direct calendar call '" + t[i].text +
                "' reachable from the `dqos-lint: shard` region at " + where +
                " via " + chain_string(idx, reach, d.id) +
                " — cross-shard effects must go through the mailbox API",
            out);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// unattached-marker
// ---------------------------------------------------------------------------

void rule_unattached_markers(const Index& idx, std::vector<Finding>& out) {
  for (const UnattachedMarker& m : idx.unattached) {
    const Unit& u = idx.units[static_cast<std::size_t>(m.unit)];
    const std::string kind = m.kind;
    out.push_back(Finding{
        u.file, m.line, "unattached-marker",
        "`dqos-lint: " + kind + "` marker attaches to no " +
            (kind == "hot" ? "function at or after it"
                           : "function body around it") +
            " — nothing it means to guard is checked; move it onto the code "
            "it is for",
        u.lx.allowed("unattached-marker", m.line)});
  }
}

// ---------------------------------------------------------------------------
// rng-stream-discipline
// ---------------------------------------------------------------------------

void rule_rng_stream_discipline(const Index& idx, std::vector<Finding>& out) {
  // (a) Each *named* stream constant (>= 256; small salts are loop-local
  // derivations) is seeded from exactly one subsystem.
  std::map<std::uint64_t, std::vector<const RngSplitSite*>> by_constant;
  for (const RngSplitSite& s : idx.rng_splits) {
    if (s.constant >= 256) by_constant[s.constant].push_back(&s);
  }
  for (auto& [constant, sites] : by_constant) {
    std::sort(sites.begin(), sites.end(),
              [&](const RngSplitSite* a, const RngSplitSite* b) {
                const std::string& fa =
                    idx.units[static_cast<std::size_t>(a->unit)].file;
                const std::string& fb =
                    idx.units[static_cast<std::size_t>(b->unit)].file;
                return fa != fb ? fa < fb : a->line < b->line;
              });
    const std::string owner =
        subsystem(idx.units[static_cast<std::size_t>(sites[0]->unit)].file);
    for (const RngSplitSite* s : sites) {
      const Unit& u = idx.units[static_cast<std::size_t>(s->unit)];
      const std::string here = subsystem(u.file);
      if (here == owner) continue;
      out.push_back(Finding{
          u.file, s->line, "rng-stream-discipline",
          "named RNG stream " + hex(constant) + " is split here (" + here +
              ") but owned by " + owner + " (first seeded at " +
              idx.units[static_cast<std::size_t>(sites[0]->unit)].file + ":" +
              std::to_string(sites[0]->line) +
              ") — one subsystem per named stream",
          u.lx.allowed("rng-stream-discipline", s->line)});
    }
  }

  // (b) No function draws from two distinct streams: replaying one
  // subsystem in isolation must not perturb another's draw sequence.
  std::map<int, std::map<std::string, int>> draws_per_def;  // def -> recv -> line
  for (const RngDrawSite& d : idx.rng_draws) {
    if (d.def < 0 || d.receiver.empty()) continue;
    // `it.next()` on an iterator is not an RNG draw: `next` only counts
    // when the receiver is visibly a stream.
    if (!contains_ci(d.receiver, "rng") && !contains_ci(d.receiver, "stream")) {
      continue;
    }
    auto& m = draws_per_def[d.def];
    if (m.find(d.receiver) == m.end()) m[d.receiver] = d.line;
  }
  for (const auto& [def_id, receivers] : draws_per_def) {
    if (receivers.size() < 2) continue;
    const FunctionDef& d = idx.defs[static_cast<std::size_t>(def_id)];
    const auto first = receivers.begin();
    for (auto it = std::next(receivers.begin()); it != receivers.end(); ++it) {
      add(idx, d, it->second, "rng-stream-discipline",
          "'" + d.qualified + "' draws from RNG streams '" + first->first +
              "' and '" + it->first +
              "' — a function consumes at most one split stream",
          out);
    }
  }
}

// ---------------------------------------------------------------------------
// float-time-transitive
// ---------------------------------------------------------------------------

bool fp_returning_callee(const Index& idx, const std::string& name,
                         int* callee_def) {
  const auto it = idx.by_name.find(name);
  if (it == idx.by_name.end()) return false;
  for (const int d : it->second) {
    if (idx.defs[static_cast<std::size_t>(d)].ret_fp) {
      *callee_def = d;
      return true;
    }
  }
  return false;
}

void rule_float_time_transitive(const Index& idx, const CallGraph& graph,
                                std::vector<Finding>& out) {
  std::vector<int> roots;
  for (const FunctionDef& d : idx.defs) {
    if (contains_ci(d.name, "merge") || contains_ci(d.name, "replay") ||
        contains_ci(d.name, "reconcile") || contains_ci(d.name, "barrier")) {
      roots.push_back(d.id);
    }
  }
  if (roots.empty()) return;
  const Reach reach = reach_from(idx, graph, roots);
  for (const FunctionDef& d : idx.defs) {
    if (!reach.reached(d.id)) continue;
    const TokenVec& t = idx.unit_of(d).lx.tokens;
    for (std::size_t i = d.body_begin + 1;
         i + 1 < d.body_end && i < t.size(); ++i) {
      if (!ident_at(t, i)) continue;
      const std::string& acc = t[i].text;
      // `acc += [recv.]f(...)` or `acc = acc + [recv.]f(...)`.
      std::size_t call = 0;
      if (is_punct(t, i + 1, "+=")) {
        call = i + 2;
      } else if (is_punct(t, i + 1, "=") && is_ident(t, i + 2, acc.c_str()) &&
                 is_punct(t, i + 3, "+")) {
        call = i + 4;
      } else {
        continue;
      }
      if (ident_at(t, call) && (is_punct(t, call + 1, ".") ||
                                is_punct(t, call + 1, "->"))) {
        call += 2;  // step over the receiver
      }
      if (!ident_at(t, call) || !is_punct(t, call + 1, "(")) continue;
      const std::string& callee = t[call].text;
      int callee_def = -1;
      if (!fp_returning_callee(idx, callee, &callee_def)) continue;
      if (!time_like_name(acc) && !time_like_name(callee)) continue;
      const FunctionDef& cd = idx.defs[static_cast<std::size_t>(callee_def)];
      add(idx, d, t[i].line, "float-time-transitive",
          "'" + acc + " += " + callee + "(...)' accumulates the float result"
              " of '" + cd.qualified + "' (" + idx.unit_of(cd).file + ":" +
              std::to_string(cd.line) + ") on a merge/replay path via " +
              chain_string(idx, reach, d.id) +
              " — simulated time is integer picoseconds",
          out);
    }
  }
}

}  // namespace

void run_transitive_rules(const Index& idx, const CallGraph& graph,
                          std::vector<Finding>& out) {
  rule_hot_path(idx, graph, out);
  rule_shard(idx, graph, out);
  rule_unattached_markers(idx, out);
  rule_rng_stream_discipline(idx, out);
  rule_float_time_transitive(idx, graph, out);
}

}  // namespace dqos::lintkit
