#include "lint/indexer.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

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

/// Names that introduce statements/expressions, never function definitions
/// or calls worth an edge.
bool is_keyword(const std::string& s) {
  static const std::array<const char*, 22> kKw = {
      "if",       "for",      "while",    "switch",  "catch",   "return",
      "sizeof",   "alignof",  "decltype", "new",     "delete",  "throw",
      "co_await", "co_yield", "co_return", "typeid", "static_assert",
      "alignas",  "case",     "goto",     "do",      "else"};
  return std::any_of(kKw.begin(), kKw.end(),
                     [&](const char* k) { return s == k; });
}

/// Index of the matching close for the open punct at `open` ("(" / "{"),
/// or tokens.size() when unbalanced.
std::size_t match_group(const TokenVec& t, std::size_t open, const char* o,
                        const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t, i, o)) ++depth;
    else if (is_punct(t, i, c) && --depth == 0) return i;
  }
  return t.size();
}

struct DefHeader {
  std::string name;        ///< unqualified, e.g. "send" / "~Rng" / "operator()"
  std::string written_prefix;  ///< "Channel::" chains written at the def site
  std::size_t name_tok = 0;
  std::size_t body_open = 0;  ///< token index of '{'
  bool ret_fp = false;
};

/// Tries to parse a function/method definition whose name token sits at
/// `p` (an identifier followed by '('; `operator` and `~X` handled too).
/// Only called at namespace/class scope — bodies are skipped wholesale —
/// so `name(...)...{` is a definition unless the trailer says otherwise.
bool parse_def_header(const TokenVec& t, std::size_t p, DefHeader& out) {
  std::string name = t[p].text;
  std::size_t params = p + 1;
  if (name == "operator") {
    if (is_punct(t, p + 1, "(") && is_punct(t, p + 2, ")")) {
      name = "operator()";
      params = p + 3;
    } else if (ident_at(t, p + 1)) {  // operator bool / operator T
      name = "operator " + t[p + 1].text;
      params = p + 2;
    } else {
      std::size_t q = p + 1;
      while (q < t.size() && t[q].kind == Token::Kind::kPunct &&
             !is_punct(t, q, "(")) {
        name += t[q].text;
        ++q;
      }
      params = q;
    }
  }
  if (!is_punct(t, params, "(")) return false;

  // Walk the written qualifier chain backwards: `A::B::name`, `X::~X`.
  std::size_t first = p;
  std::string prefix;
  if (first > 0 && is_punct(t, first - 1, "~")) {
    name = "~" + name;
    --first;
  }
  while (first >= 2 && is_punct(t, first - 1, "::") && ident_at(t, first - 2)) {
    prefix = t[first - 2].text + "::" + prefix;
    first -= 2;
  }

  const std::size_t close = match_group(t, params, "(", ")");
  if (close >= t.size()) return false;

  // Trailer: qualifiers, trailing return, ctor-init-list, then '{'.
  std::size_t r = close + 1;
  while (r < t.size()) {
    if (is_ident(t, r, "const") || is_ident(t, r, "noexcept") ||
        is_ident(t, r, "override") || is_ident(t, r, "final") ||
        is_ident(t, r, "mutable") || is_ident(t, r, "volatile") ||
        is_ident(t, r, "try")) {
      if (is_punct(t, r + 1, "(")) {  // noexcept(...)
        r = match_group(t, r + 1, "(", ")") + 1;
      } else {
        ++r;
      }
      continue;
    }
    if (is_punct(t, r, "->") || is_ident(t, r, "requires")) {
      // Trailing return type / requires-clause: scan to the body brace.
      ++r;
      int angle = 0;
      while (r < t.size()) {
        if (is_punct(t, r, "<")) ++angle;
        else if (is_punct(t, r, ">")) --angle;
        else if (angle <= 0 && (is_punct(t, r, "{") || is_punct(t, r, ";"))) break;
        else if (is_punct(t, r, "(")) { r = match_group(t, r, "(", ")"); }
        ++r;
      }
      continue;
    }
    if (is_punct(t, r, ":")) {
      // Ctor-init-list: skip `member(...)` / `member{...}` initializers;
      // a '{' not preceded by an identifier/'>' is the body.
      ++r;
      bool found = false;
      while (r < t.size()) {
        if (is_punct(t, r, "(")) {
          r = match_group(t, r, "(", ")") + 1;
        } else if (is_punct(t, r, "{")) {
          const bool init_brace = r > 0 && (ident_at(t, r - 1) ||
                                            is_punct(t, r - 1, ">"));
          if (init_brace) {
            r = match_group(t, r, "{", "}") + 1;
          } else {
            found = true;
            break;
          }
        } else if (is_punct(t, r, ";")) {
          return false;
        } else {
          ++r;
        }
      }
      if (!found) return false;
      break;
    }
    if (is_punct(t, r, "{")) break;
    return false;  // ';' (declaration), '=' (default/delete), or anything odd
  }
  if (r >= t.size() || !is_punct(t, r, "{")) return false;

  // Return type: a double/float immediately before the name chain marks
  // an FP-valued function (float-time-transitive consumes this).
  bool ret_fp = false;
  for (std::size_t b = first; b > 0 && b + 6 > first; --b) {
    const Token& tb = t[b - 1];
    if (tb.kind == Token::Kind::kPunct &&
        (tb.text == ";" || tb.text == "{" || tb.text == "}" || tb.text == ":"))
      break;
    if (tb.kind == Token::Kind::kIdent &&
        (tb.text == "double" || tb.text == "float")) {
      ret_fp = true;
      break;
    }
  }

  out.name = std::move(name);
  out.written_prefix = std::move(prefix);
  out.name_tok = p;
  out.body_open = r;
  out.ret_fp = ret_fp;
  return true;
}

/// Extracts call sites (and RNG split/draw sites) from the token range
/// [begin, end). `def` is the enclosing definition id, -1 for regions
/// outside any indexed function.
void scan_calls(const TokenVec& t, std::size_t begin, std::size_t end, int def,
                int unit, std::vector<CallSite>& calls, Index* idx) {
  static const std::array<const char*, 5> kDraws = {
      "next", "uniform", "uniform_pos", "uniform_int", "chance"};
  for (std::size_t k = begin; k < end; ++k) {
    if (!ident_at(t, k) || is_keyword(t[k].text)) continue;
    if (!is_punct(t, k + 1, "(")) continue;
    const int line = t[k].line;
    const std::string& name = t[k].text;
    if (k > 0 && (is_punct(t, k - 1, ".") || is_punct(t, k - 1, "->"))) {
      std::string receiver;
      if (k >= 2 && ident_at(t, k - 2) &&
          (k < 3 || (!is_punct(t, k - 3, ".") && !is_punct(t, k - 3, "->")))) {
        receiver = t[k - 2].text;
      }
      calls.push_back(CallSite{name, receiver, true, line});
      if (idx != nullptr) {
        if (name == "split" && k + 2 < t.size() &&
            t[k + 2].kind == Token::Kind::kNumber) {
          const std::uint64_t value =
              std::strtoull(t[k + 2].text.c_str(), nullptr, 0);
          idx->rng_splits.push_back(RngSplitSite{unit, def, value, line});
        }
        for (const char* d : kDraws) {
          if (name == d) {
            idx->rng_draws.push_back(RngDrawSite{def, receiver, line});
            break;
          }
        }
      }
      continue;
    }
    if (k >= 2 && is_punct(t, k - 1, "::") && ident_at(t, k - 2)) {
      // Qualified call: collect the written chain.
      std::string chain = name;
      std::size_t b = k;
      while (b >= 2 && is_punct(t, b - 1, "::") && ident_at(t, b - 2)) {
        chain = t[b - 2].text + "::" + chain;
        b -= 2;
      }
      calls.push_back(CallSite{chain, "", false, line});
      continue;
    }
    // Unqualified: `Type var(...)` is a declaration (previous token is an
    // identifier or type punctuation), everything else is a call — this
    // includes constructor calls `Rng(seed)`.
    if (k > 0 && (ident_at(t, k - 1) || is_punct(t, k - 1, ">") ||
                  is_punct(t, k - 1, "*") || is_punct(t, k - 1, "&"))) {
      if (!is_ident(t, k - 1, "return") && !is_ident(t, k - 1, "else")) continue;
    }
    calls.push_back(CallSite{name, "", false, line});
  }
}

}  // namespace

void index_unit(Unit unit, Index& idx) {
  idx.units.push_back(std::move(unit));
  const int unit_id = static_cast<int>(idx.units.size()) - 1;
  const Unit& u = idx.units.back();
  const TokenVec& t = u.lx.tokens;

  struct Scope {
    std::string name;  ///< empty for plain blocks
  };
  std::vector<Scope> scopes;
  std::string pending;      // namespace/class name awaiting its '{'
  bool have_pending = false;

  const int first_def = static_cast<int>(idx.defs.size());

  std::size_t p = 0;
  while (p < t.size()) {
    const Token& tok = t[p];
    if (tok.kind == Token::Kind::kIdent) {
      if (tok.text == "namespace") {
        // `namespace A::B {` / anonymous `namespace {`; aliases carry '='.
        std::string name;
        std::size_t q = p + 1;
        while (ident_at(t, q)) {
          if (!name.empty()) name += "::";
          name += t[q].text;
          ++q;
          if (is_punct(t, q, "::")) ++q;
          else break;
        }
        if (is_punct(t, q, "{")) {
          pending = name;
          have_pending = true;
          p = q;
          continue;
        }
        p = q;
        continue;
      }
      if (tok.text == "class" || tok.text == "struct" || tok.text == "union" ||
          tok.text == "enum") {
        std::size_t q = p + 1;
        if (is_ident(t, q, "class") || is_ident(t, q, "struct")) ++q;  // enum class
        if (ident_at(t, q) && !is_punct(t, q + 1, "(")) {
          pending = t[q].text;
          have_pending = true;
        }
        ++p;
        continue;
      }
      if (!is_keyword(tok.text)) {
        DefHeader h;
        const bool at_name =
            (is_punct(t, p + 1, "(") || tok.text == "operator") &&
            parse_def_header(t, p, h);
        if (at_name) {
          const std::size_t body_close = match_group(t, h.body_open, "{", "}");
          FunctionDef d;
          d.id = static_cast<int>(idx.defs.size());
          d.unit = unit_id;
          d.name = h.name;
          std::string qual;
          for (const Scope& s : scopes) {
            if (s.name.empty()) continue;
            qual += s.name + "::";
          }
          qual += h.written_prefix + h.name;
          d.qualified = std::move(qual);
          d.line = t[h.name_tok].line;
          d.body_begin = h.body_open;
          d.body_end = body_close < t.size() ? body_close + 1 : t.size();
          d.ret_fp = h.ret_fp;
          idx.defs.push_back(d);
          idx.calls.emplace_back();
          scan_calls(t, h.body_open + 1, d.body_end > 0 ? d.body_end - 1 : 0,
                     d.id, unit_id, idx.calls.back(), &idx);
          have_pending = false;
          p = d.body_end;
          continue;
        }
      }
      ++p;
      continue;
    }
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "{") {
        scopes.push_back(Scope{have_pending ? pending : std::string()});
        have_pending = false;
        ++p;
        continue;
      }
      if (tok.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        ++p;
        continue;
      }
      if (tok.text == ";") have_pending = false;
    }
    ++p;
  }

  // `// dqos-lint: hot` markers: the first function whose body opens at or
  // after the marker line is hot.
  for (const int mark : u.lx.hot_marks) {
    int best = -1;
    std::size_t best_open = t.size() + 1;
    for (int d = first_def; d < static_cast<int>(idx.defs.size()); ++d) {
      const FunctionDef& fd = idx.defs[static_cast<std::size_t>(d)];
      if (fd.body_begin < t.size() && t[fd.body_begin].line >= mark &&
          fd.body_begin < best_open) {
        best = d;
        best_open = fd.body_begin;
      }
    }
    if (best >= 0) {
      idx.defs[static_cast<std::size_t>(best)].hot = true;
    } else {
      idx.unattached.push_back(UnattachedMarker{unit_id, mark, "hot"});
    }
  }

  // `// dqos-lint: shard` regions: marker token to the '}' that closes the
  // enclosing block, with every call inside recorded.
  for (const int mark : u.lx.shard_marks) {
    std::size_t begin = t.size();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].line >= mark) {
        begin = i;
        break;
      }
    }
    std::size_t end = begin;
    int depth = 0;
    for (std::size_t i = begin; i < t.size(); ++i) {
      if (is_punct(t, i, "{")) ++depth;
      else if (is_punct(t, i, "}") && --depth < 0) {
        end = i;
        break;
      }
      end = i + 1;
    }
    ShardRegion region;
    region.unit = unit_id;
    region.marker_line = mark;
    region.begin = begin;
    region.end = end;
    for (int d = first_def; d < static_cast<int>(idx.defs.size()); ++d) {
      const FunctionDef& fd = idx.defs[static_cast<std::size_t>(d)];
      if (fd.body_begin <= begin && end <= fd.body_end) {
        region.enclosing_def = d;
        break;
      }
    }
    if (region.enclosing_def < 0) {
      idx.unattached.push_back(UnattachedMarker{unit_id, mark, "shard"});
    }
    scan_calls(t, begin, end, region.enclosing_def, unit_id, region.calls,
               nullptr);
    idx.shard_regions.push_back(std::move(region));
  }
}

void finalize_index(Index& idx) {
  idx.by_name.clear();
  for (const FunctionDef& d : idx.defs) {
    idx.by_name[d.name].push_back(d.id);
  }
}

}  // namespace dqos::lintkit
