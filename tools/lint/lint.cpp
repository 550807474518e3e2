#include "lint/lint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/transitive.hpp"

namespace dqos::lintkit {
namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool has_ext(const fs::path& p, const char* ext) { return p.extension() == ext; }

/// Directories that can appear under the scanned roots but hold generated
/// artifacts, never project sources.
bool skip_dir(const std::string& name) {
  return name == "CMakeFiles" || name.rfind("build", 0) == 0 ||
         name.rfind(".", 0) == 0;
}

void sort_findings(std::vector<Finding>& v) {
  std::sort(v.begin(), v.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
}

void drop_suppressed(std::vector<Finding>& v) {
  v.erase(std::remove_if(v.begin(), v.end(),
                         [](const Finding& f) { return f.suppressed; }),
          v.end());
}

/// One analysis input: content plus the companion header's text (for
/// member-container inheritance into the .cpp).
struct InputFile {
  std::string rel;
  std::string content;
  std::string companion;
};

/// The one analysis path behind lint_tree_full, lint_sources and
/// lint_source: lexes every input once, runs the per-file rules, builds the
/// whole-program index + call graph over the same lexed tokens, runs the
/// transitive rules, and splits out stale `allow(...)` markers.
TreeReport analyze(const std::vector<InputFile>& files,
                   bool check_suppressions) {
  TreeReport report;
  for (const InputFile& f : files) {
    index_unit(Unit{f.rel, lex(f.content)}, report.index);
  }
  finalize_index(report.index);

  std::vector<Finding> all;  // suppressed findings included, flagged
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::set<std::string> companions;
    if (!files[i].companion.empty()) {
      companions = nondeterministic_containers(lex(files[i].companion));
    }
    run_rules(files[i].rel, report.index.units[i].lx, companions, all);
  }
  report.graph = build_call_graph(report.index);
  run_transitive_rules(report.index, report.graph, all);

  if (check_suppressions) {
    // A marker is live when at least one finding matched it; everything
    // else is stale and should be deleted. header-standalone markers are
    // exempt (that rule only runs with --check-headers).
    std::map<std::string, std::size_t> unit_by_file;
    for (std::size_t i = 0; i < report.index.units.size(); ++i) {
      unit_by_file[report.index.units[i].file] = i;
    }
    std::vector<std::set<int>> used(report.index.units.size());
    for (const Finding& f : all) {
      if (!f.suppressed) continue;
      const auto it = unit_by_file.find(f.file);
      if (it == unit_by_file.end()) continue;
      const int m =
          report.index.units[it->second].lx.match(f.rule, f.line);
      if (m >= 0) used[it->second].insert(m);
    }
    for (std::size_t u = 0; u < report.index.units.size(); ++u) {
      const Unit& unit = report.index.units[u];
      for (std::size_t m = 0; m < unit.lx.allow_markers.size(); ++m) {
        const AllowMarker& marker = unit.lx.allow_markers[m];
        if (marker.rule == "header-standalone") continue;
        if (used[u].count(static_cast<int>(m)) != 0) continue;
        report.stale.push_back(Finding{
            unit.file, marker.line, "stale-suppression",
            "`dqos-lint: " +
                std::string(marker.file_scope ? "allow-file(" : "allow(") +
                marker.rule + ")` suppresses nothing — remove the marker"});
      }
    }
    sort_findings(report.stale);
  }

  drop_suppressed(all);
  sort_findings(all);
  report.findings = std::move(all);
  return report;
}

}  // namespace

std::vector<Finding> lint_source(const std::string& rel_path,
                                 const std::string& content,
                                 const std::string& companion_content) {
  return analyze({InputFile{rel_path, content, companion_content}},
                 /*check_suppressions=*/false)
      .findings;
}

TreeReport lint_sources(const std::vector<SourceFile>& files,
                        bool check_suppressions) {
  std::vector<InputFile> inputs;
  inputs.reserve(files.size());
  for (const SourceFile& f : files) {
    InputFile in{f.rel_path, f.content, {}};
    if (f.rel_path.size() > 4 &&
        f.rel_path.compare(f.rel_path.size() - 4, 4, ".cpp") == 0) {
      const std::string header =
          f.rel_path.substr(0, f.rel_path.size() - 4) + ".hpp";
      for (const SourceFile& h : files) {
        if (h.rel_path == header) in.companion = h.content;
      }
    }
    inputs.push_back(std::move(in));
  }
  return analyze(inputs, check_suppressions);
}

bool header_compiles(const std::string& abs_path, const Options& opt) {
  std::string cmd = opt.compiler + " " + opt.std_flag + " -fsyntax-only -x c++";
  std::vector<std::string> incs = opt.include_dirs;
  if (incs.empty()) incs = {"src", "tools"};
  for (const std::string& inc : incs) {
    cmd += " -I \"" + (fs::path(opt.root) / inc).string() + "\"";
  }
  cmd += " \"" + abs_path + "\" > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

TreeReport lint_tree_full(const Options& opt) {
  std::vector<std::string> roots = opt.paths;
  if (roots.empty()) roots = {"src", "tools", "bench"};

  std::vector<fs::path> files;
  for (const std::string& r : roots) {
    const fs::path base = fs::path(opt.root) / r;
    if (!fs::exists(base)) continue;
    if (fs::is_regular_file(base)) {
      files.push_back(base);
      continue;
    }
    fs::recursive_directory_iterator it(base), end;
    for (; it != end; ++it) {
      if (it->is_directory()) {
        if (skip_dir(it->path().filename().string())) it.disable_recursion_pending();
        continue;
      }
      if (has_ext(it->path(), ".hpp") || has_ext(it->path(), ".cpp")) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<InputFile> inputs;
  inputs.reserve(files.size());
  for (const fs::path& f : files) {
    InputFile in{fs::relative(f, opt.root).generic_string(), slurp(f), {}};
    if (has_ext(f, ".cpp")) {
      fs::path header = f;
      header.replace_extension(".hpp");
      if (fs::exists(header)) in.companion = slurp(header);
    }
    inputs.push_back(std::move(in));
  }

  TreeReport report = analyze(inputs, opt.check_suppressions);
  if (opt.check_headers) {
    for (const fs::path& f : files) {
      if (!has_ext(f, ".hpp") || header_compiles(fs::absolute(f).string(), opt)) {
        continue;
      }
      report.findings.push_back(
          Finding{fs::relative(f, opt.root).generic_string(), 1,
                  "header-standalone",
                  "header does not compile standalone (missing "
                  "includes or forward declarations)"});
    }
    sort_findings(report.findings);
  }
  return report;
}

std::vector<Finding> lint_tree(const Options& opt) {
  return lint_tree_full(opt).findings;
}

std::map<BaselineKey, int> load_baseline(const std::string& path) {
  std::map<BaselineKey, int> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string file, rule;
    int count = 0;
    if (ss >> file >> rule >> count) out[{file, rule}] += count;
  }
  return out;
}

std::string format_baseline(const std::vector<Finding>& findings) {
  std::map<BaselineKey, int> counts;
  for (const Finding& f : findings) ++counts[{f.file, f.rule}];
  std::ostringstream ss;
  ss << "# dqos_lint baseline: <file> <rule> <count>, sorted. Findings in\n"
        "# excess of their baselined count fail the build; shrink this file\n"
        "# as debt is paid down, never grow it.\n";
  for (const auto& [key, count] : counts) {
    ss << key.first << ' ' << key.second << ' ' << count << '\n';
  }
  return ss.str();
}

std::vector<Finding> new_findings(const std::vector<Finding>& all,
                                  const std::map<BaselineKey, int>& baseline) {
  std::map<BaselineKey, int> seen;
  std::vector<Finding> out;
  for (const Finding& f : all) {
    const int allowance = [&] {
      const auto it = baseline.find({f.file, f.rule});
      return it == baseline.end() ? 0 : it->second;
    }();
    if (++seen[{f.file, f.rule}] > allowance) out.push_back(f);
  }
  return out;
}

}  // namespace dqos::lintkit
