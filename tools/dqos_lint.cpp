/// \file dqos_lint.cpp
/// Standalone determinism lint for the dqos tree (DESIGN.md §9).
///
///   dqos_lint [--root=DIR] [--baseline=FILE] [--write-baseline=FILE]
///             [--check-headers] [--check-suppressions] [--sarif=FILE]
///             [--callgraph-dump] [--compiler=CXX] [paths...]
///
/// Walks src/, tools/, and bench/ (or the given paths, relative to
/// --root), applies the per-file rules (tools/lint/rules.hpp) and the
/// whole-program transitive rules (tools/lint/transitive.hpp), and prints
/// violations as `file:line: [rule-id] message`. With --baseline,
/// pre-existing findings recorded in the baseline file are tolerated and
/// only *new* findings fail (exit 1); --write-baseline regenerates the
/// file (sorted, deduplicated). --check-headers additionally compiles
/// every .hpp standalone (`compiler -fsyntax-only`). --check-suppressions
/// errors on `allow(...)` markers that no longer suppress anything.
/// --sarif=FILE writes the reported findings as SARIF 2.1.0 for CI
/// annotation. --callgraph-dump prints the resolved call graph and exits.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"

namespace {

const char* kUsage =
    "usage: dqos_lint [--root=DIR] [--baseline=FILE] [--write-baseline=FILE]\n"
    "                 [--check-headers] [--check-suppressions] [--sarif=FILE]\n"
    "                 [--callgraph-dump] [--compiler=CXX] [paths...]\n";

bool take(const char* arg, const char* flag, std::string& out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dqos::lintkit;
  Options opt;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string sarif_path;
  bool callgraph_dump = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (take(a, "--root", v)) {
      opt.root = v;
    } else if (take(a, "--baseline", v)) {
      baseline_path = v;
    } else if (take(a, "--write-baseline", v)) {
      write_baseline_path = v;
    } else if (take(a, "--sarif", v)) {
      sarif_path = v;
    } else if (take(a, "--compiler", v)) {
      opt.compiler = v;
    } else if (std::strcmp(a, "--check-headers") == 0) {
      opt.check_headers = true;
    } else if (std::strcmp(a, "--check-suppressions") == 0) {
      opt.check_suppressions = true;
    } else if (std::strcmp(a, "--callgraph-dump") == 0) {
      callgraph_dump = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "dqos_lint: unknown flag '%s'\n%s", a, kUsage);
      return 2;
    } else {
      opt.paths.emplace_back(a);
    }
  }

  const TreeReport report = lint_tree_full(opt);
  if (callgraph_dump) {
    dump_callgraph(report.index, report.graph, std::cout);
    return 0;
  }

  // Stale suppressions join the findings stream: they gate CI and can be
  // baselined like any other rule while debt is paid down.
  std::vector<Finding> all = report.findings;
  all.insert(all.end(), report.stale.begin(), report.stale.end());
  std::vector<Finding> to_report = all;
  if (!baseline_path.empty()) {
    to_report = new_findings(all, load_baseline(baseline_path));
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    out << format_baseline(all);
    std::fprintf(stderr, "dqos_lint: wrote baseline (%zu findings) to %s\n",
                 all.size(), write_baseline_path.c_str());
    return 0;
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    out << to_sarif(to_report);
  }

  for (const Finding& f : to_report) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::fprintf(stderr, "dqos_lint: %zu finding(s), %zu new%s\n", all.size(),
               to_report.size(),
               baseline_path.empty() ? " (no baseline)" : " vs baseline");
  return to_report.empty() ? 0 : 1;
}
