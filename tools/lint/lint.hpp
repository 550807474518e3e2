/// \file lint.hpp
/// dqos_lint driver: tree walking, companion-header pairing, the
/// header-standalone check, and baseline bookkeeping.
///
/// Baseline format (`lint_baseline.txt`): one `<file>\t<rule>\t<count>`
/// line per (file, rule) pair, sorted; `#` starts a comment. The tool
/// fails only when a (file, rule) count *exceeds* its baselined count, so
/// pre-existing debt is carried while new findings break CI immediately.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/indexer.hpp"
#include "lint/rules.hpp"

namespace dqos::lintkit {

struct Options {
  std::string root = ".";
  /// Roots (relative to `root`) to walk; default src, tools, bench.
  std::vector<std::string> paths;
  /// Run the header-standalone rule (spawns `compiler -fsyntax-only` per
  /// header; slower, so opt-in).
  bool check_headers = false;
  std::string compiler = "c++";
  std::string std_flag = "-std=c++20";
  /// Include dirs for the header-standalone compile, relative to `root`;
  /// default src and tools.
  std::vector<std::string> include_dirs;
  /// Report `allow(...)` markers that no longer suppress anything as
  /// stale-suppression findings.
  bool check_suppressions = false;
};

/// Lints one in-memory file as if it lived at `rel_path`: a one-file tree
/// through the same analysis as lint_tree (every rule, the whole-program
/// ones included). `companion_content` (optional) supplies the matching
/// header's text so member-container declarations carry over to the .cpp.
std::vector<Finding> lint_source(const std::string& rel_path,
                                 const std::string& content,
                                 const std::string& companion_content = {});

/// One in-memory source file for lint_sources.
struct SourceFile {
  std::string rel_path;
  std::string content;
};

/// Walks the tree and runs every rule; findings are sorted by
/// (file, line, rule) and deterministic across runs.
std::vector<Finding> lint_tree(const Options& opt);

/// Everything lint_tree computes, kept for the CLI: active findings, the
/// stale-suppression findings (empty unless opt.check_suppressions), and
/// the whole-program index + call graph (for --callgraph-dump).
struct TreeReport {
  std::vector<Finding> findings;
  std::vector<Finding> stale;  ///< rule id "stale-suppression"
  Index index;
  CallGraph graph;
};
TreeReport lint_tree_full(const Options& opt);

/// Lints a set of in-memory files as one mini-tree: per-file rules plus
/// the whole-program (transitive) rules, with companion headers resolved
/// inside the set. Exposed for the call-graph fixture tests.
TreeReport lint_sources(const std::vector<SourceFile>& files,
                        bool check_suppressions = false);

/// Compiles one header standalone; returns true on success.
bool header_compiles(const std::string& abs_path, const Options& opt);

using BaselineKey = std::pair<std::string, std::string>;  ///< (file, rule)

std::map<BaselineKey, int> load_baseline(const std::string& path);
std::string format_baseline(const std::vector<Finding>& findings);
/// Findings in excess of their baselined (file, rule) allowance.
std::vector<Finding> new_findings(const std::vector<Finding>& all,
                                  const std::map<BaselineKey, int>& baseline);

}  // namespace dqos::lintkit
