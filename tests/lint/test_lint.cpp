/// \file test_lint.cpp
/// dqos_lint's own test coverage (DESIGN.md §9): every rule has a
/// positive fixture with a deliberate violation and a suppressed-negative
/// fixture that must lint clean. Fixtures live under
/// tests/lint/fixtures/; each states the repo-relative path it pretends
/// to live at, because rule scoping keys off the path.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/indexer.hpp"
#include "lint/lexer.hpp"
#include "lint/lint.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"

namespace dqos::lintkit {
namespace {

std::string slurp(const std::string& rel) {
  const std::string path = std::string(DQOS_LINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const Finding& f : fs) out.push_back(f.rule);
  return out;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; })));
}

// ---------------------------------------------------------------- lexer

TEST(LintLexer, StripsCommentsAndLiteralsButKeepsLines) {
  const LexedFile lx = lex(
      "int a; // rand() inside a comment\n"
      "const char* s = \"std::chrono::steady_clock\";\n"
      "/* time() in a block\n   comment */ int b;\n");
  for (const Token& t : lx.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "steady_clock");
  }
  // `int b;` sits on line 4, after the multi-line comment.
  const auto b = std::find_if(lx.tokens.begin(), lx.tokens.end(),
                              [](const Token& t) { return t.text == "b"; });
  ASSERT_NE(b, lx.tokens.end());
  EXPECT_EQ(b->line, 4);
}

TEST(LintLexer, RawStringsAndIncludesLexAsOpaqueTokens) {
  const LexedFile lx = lex(
      "#include <unordered_map>\n"
      "auto s = R\"(for (auto& x : rand_map))\";\n");
  ASSERT_FALSE(lx.tokens.empty());
  const auto hdr =
      std::find_if(lx.tokens.begin(), lx.tokens.end(), [](const Token& t) {
        return t.kind == Token::Kind::kHeaderName;
      });
  ASSERT_NE(hdr, lx.tokens.end());
  EXPECT_EQ(hdr->text, "unordered_map");
  for (const Token& t : lx.tokens) EXPECT_NE(t.text, "rand_map");
}

TEST(LintLexer, AllowMarkerCoversSameAndNextLineOnly) {
  const LexedFile lx = lex(
      "// dqos-lint: allow(no-wallclock)\n"
      "int a;\n"
      "int b;\n");
  EXPECT_TRUE(lx.allowed("no-wallclock", 1));
  EXPECT_TRUE(lx.allowed("no-wallclock", 2));
  EXPECT_FALSE(lx.allowed("no-wallclock", 3));
  EXPECT_FALSE(lx.allowed("unordered-iteration", 1));
}

TEST(LintLexer, AllowFileMarkerCoversEveryLine) {
  const LexedFile lx = lex(
      "int a;\n"
      "// dqos-lint: allow-file(no-wallclock)\n"
      "int b;\n");
  EXPECT_TRUE(lx.allowed("no-wallclock", 1));
  EXPECT_TRUE(lx.allowed("no-wallclock", 999));
}

// ------------------------------------------------------- rule: wallclock

TEST(LintRules, WallclockFixtureFlagsHeaderIdentAndCall) {
  const auto fs = lint_source("src/core/clockish.cpp", slurp("wallclock_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "no-wallclock"), 3) << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{4, 7, 8}));
}

TEST(LintRules, WallclockSuppressionsSilenceEveryForm) {
  const auto fs =
      lint_source("src/core/clockish_ok.cpp", slurp("wallclock_allowed.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, WallclockAllowFileSilencesWholeBenchmark) {
  const auto fs =
      lint_source("bench/wall_timer.cpp", slurp("wallclock_allow_file.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, RngUtilIsExemptFromWallclock) {
  const auto fs = lint_source("src/util/rng_seed.cpp", slurp("rng_exempt.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, MemberCallNamedTimeIsNotAWallclockCall) {
  // sim.time() / clock.rand() are project methods, not libc.
  const auto fs = lint_source("src/core/x.cpp",
                              "int f(S& sim) { return sim.time() + sim->clock(); }\n");
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

// --------------------------------------------- rule: unordered-iteration

TEST(LintRules, UnorderedFixtureFlagsRangeForPointerSetAndBegin) {
  const auto fs =
      lint_source("src/core/flow_state.cpp", slurp("unordered_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "unordered-iteration"), 3)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{14, 15, 16}));
}

TEST(LintRules, UnorderedSuppressionAndIntKeysLintClean) {
  const auto fs = lint_source("src/core/flow_state_ok.cpp",
                              slurp("unordered_allowed.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, CompanionHeaderContainersCarryIntoTheCpp) {
  const std::string hpp = slurp("companion.hpp");
  const std::string cpp = slurp("companion.cpp");
  // Alone, the .cpp has no container declaration in sight — clean.
  EXPECT_TRUE(lint_source("src/core/companion.cpp", cpp).empty());
  // Paired with its header, the iteration over table_ is a finding.
  const auto fs = lint_source("src/core/companion.cpp", cpp, hpp);
  ASSERT_EQ(fs.size(), 1u) << testing::PrintToString(rules_of(fs));
  EXPECT_EQ(fs[0].rule, "unordered-iteration");
  EXPECT_EQ(fs[0].line, 8);
}

TEST(LintRules, UnorderedIterationOutsideSrcIsNotSimState) {
  const auto fs =
      lint_source("tools/some_tool.cpp", slurp("unordered_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "unordered-iteration"), 0)
      << testing::PrintToString(rules_of(fs));
}

// ------------------------------------------------- rule: per-flow-map

TEST(LintRules, PerFlowMapFixtureFlagsFlowKeyedMapAndSet) {
  const auto fs =
      lint_source("src/core/flow_maps.cpp", slurp("per_flow_map_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "per-flow-map"), 2)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) {
    if (f.rule == "per-flow-map") lines.insert(f.line);
  }
  EXPECT_EQ(lines, (std::set<int>{12, 13}));
}

TEST(LintRules, PerFlowMapDenseTableIntKeysAndSuppressionLintClean) {
  const auto fs = lint_source("src/core/flow_maps_ok.cpp",
                              slurp("per_flow_map_allowed.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, PerFlowMapOutsideSrcIsNotSimState) {
  // Tests and tools may key scratch maps however they like.
  const auto fs =
      lint_source("tools/flow_tool.cpp", slurp("per_flow_map_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "per-flow-map"), 0)
      << testing::PrintToString(rules_of(fs));
}

// ------------------------------------------- rule: hot-path-type-erasure

TEST(LintRules, TypeErasureFixtureFlagsIncludeFunctionAndSharedPtr) {
  const auto fs = lint_source("src/sim/hot_callbacks.hpp",
                              slurp("type_erasure_bad.hpp"));
  EXPECT_EQ(count_rule(fs, "hot-path-type-erasure"), 3)
      << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, TypeErasureIsAllowedOffTheHotPath) {
  const auto fs = lint_source("src/core/cold_callbacks.hpp",
                              slurp("type_erasure_bad.hpp"));
  EXPECT_EQ(count_rule(fs, "hot-path-type-erasure"), 0)
      << testing::PrintToString(rules_of(fs));
}

// ----------------------------------------------- rule: float-time-accum

TEST(LintRules, FloatTimeFixtureFlagsBothAccumulationForms) {
  const auto fs =
      lint_source("src/core/clock_math.cpp", slurp("float_time_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "float-time-accum"), 2)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{6, 7}));
}

TEST(LintRules, FloatTimeSuppressionLintsClean) {
  const auto fs = lint_source("src/core/clock_math_ok.cpp",
                              slurp("float_time_allowed.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

// ------------------------------------------ rule: unaudited-packet-free

TEST(LintRules, PacketFreeFixtureFlagsResetAndNullAssignment) {
  const auto fs =
      lint_source("src/host/drop_path.cpp", slurp("packet_free_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "unaudited-packet-free"), 2)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) lines.insert(f.line);
  EXPECT_EQ(lines, (std::set<int>{6, 7}));
}

TEST(LintRules, PacketFreeSuppressionAndOtherPointersLintClean) {
  const auto fs =
      lint_source("src/proto/pool_ok.cpp", slurp("packet_free_allowed.cpp"));
  EXPECT_TRUE(fs.empty()) << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, PacketFreeOutsideSrcIsNotSimState) {
  const auto fs =
      lint_source("tests/some_test.cpp", slurp("packet_free_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "unaudited-packet-free"), 0)
      << testing::PrintToString(rules_of(fs));
}

// ------------------------------------------------- rule: hot-path-alloc

TEST(LintLexer, HotMarkerRecordsItsLineWithWordBoundary) {
  const LexedFile lx = lex(
      "// dqos-lint: hot\n"
      "void f() {}\n"
      "// dqos-lint: hotel\n");
  EXPECT_EQ(lx.hot_marks, (std::set<int>{1}));
}

TEST(LintRules, HotAllocFixtureFlagsNewMakeUniqueAndGrowth) {
  const auto fs =
      lint_source("src/sim/drain_bad.cpp", slurp("hot_alloc_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "hot-path-alloc"), 3)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) {
    if (f.rule == "hot-path-alloc") lines.insert(f.line);
  }
  EXPECT_EQ(lines, (std::set<int>{10, 11, 12}));
}

TEST(LintRules, HotAllocSuppressionAndUnmarkedFunctionsLintClean) {
  const auto fs =
      lint_source("src/sim/drain_ok.cpp", slurp("hot_alloc_allowed.cpp"));
  EXPECT_EQ(count_rule(fs, "hot-path-alloc"), 0)
      << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, HotAllocIsMarkerDrivenSoItAppliesOutsideSrcToo) {
  // Unlike the directory-scoped rules, `dqos-lint: hot` is a claim the
  // author makes wherever the function lives (e.g. a header-only util).
  const auto fs =
      lint_source("tools/somewhere.cpp", slurp("hot_alloc_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "hot-path-alloc"), 3)
      << testing::PrintToString(rules_of(fs));
}

TEST(LintLexer, ShardMarkerRecordsItsLineWithWordBoundary) {
  const LexedFile lx = lex(
      "// dqos-lint: shard\n"
      "void f() {}\n"
      "// dqos-lint: sharded\n");
  EXPECT_EQ(lx.shard_marks, (std::set<int>{1}));
}

TEST(LintRules, CrossShardFixtureFlagsDirectCalendarCalls) {
  const auto fs =
      lint_source("src/switchfab/window_bad.cpp", slurp("cross_shard_bad.cpp"));
  EXPECT_EQ(count_rule(fs, "cross-shard-access"), 5)
      << testing::PrintToString(rules_of(fs));
  std::set<int> lines;
  for (const Finding& f : fs) {
    if (f.rule == "cross-shard-access") lines.insert(f.line);
  }
  // schedule_at (plain and under a pre-drawn key), schedule_after, cancel
  // and drain_due all fire; the serial-path call after the marked block
  // closes must NOT.
  EXPECT_EQ(lines, (std::set<int>{8, 9, 10, 11, 12}));
}

TEST(LintRules, CrossShardMailboxUsageAndSuppressionLintClean) {
  const auto fs = lint_source("src/switchfab/window_ok.cpp",
                              slurp("cross_shard_allowed.cpp"));
  EXPECT_EQ(count_rule(fs, "cross-shard-access"), 0)
      << testing::PrintToString(rules_of(fs));
}

TEST(LintRules, UnattachedMarkersAreReported) {
  const auto fs =
      lint_source("src/sim/orphans.cpp", slurp("unattached_marker_bad.cpp"));
  std::set<int> lines;
  for (const Finding& f : fs) {
    if (f.rule == "unattached-marker") lines.insert(f.line);
  }
  EXPECT_EQ(lines, (std::set<int>{4, 9}))
      << testing::PrintToString(rules_of(fs));
  // Markers on a function / inside a body attach: nothing to report.
  EXPECT_EQ(count_rule(lint_source("src/sim/drain_bad.cpp",
                                   slurp("hot_alloc_bad.cpp")),
                       "unattached-marker"),
            0);
  EXPECT_EQ(count_rule(lint_source("src/switchfab/window_bad.cpp",
                                   slurp("cross_shard_bad.cpp")),
                       "unattached-marker"),
            0);
}

// --------------------------------------------------- tree walk + headers

TEST(LintDriver, TreeWalkFindsViolationsAndHonorsFileSuppression) {
  Options opt;
  opt.root = std::string(DQOS_LINT_FIXTURE_DIR) + "/tree";
  const auto fs = lint_tree(opt);
  ASSERT_EQ(fs.size(), 3u) << testing::PrintToString(rules_of(fs));
  // Sorted by (file, line, rule): bench/timer.cpp contributes nothing.
  EXPECT_EQ(fs[0].file, "src/core/clocky.cpp");
  EXPECT_EQ(fs[0].rule, "no-wallclock");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].file, "src/sim/hot.hpp");
  EXPECT_EQ(count_rule(fs, "hot-path-type-erasure"), 2);
}

TEST(LintDriver, HeaderStandaloneCheckSeparatesGoodFromBad) {
  Options opt;
  opt.root = std::string(DQOS_LINT_FIXTURE_DIR) + "/headers";
  opt.include_dirs = {};
  const std::string base = std::string(DQOS_LINT_FIXTURE_DIR) + "/headers/";
  EXPECT_TRUE(header_compiles(base + "self_sufficient.hpp", opt));
  EXPECT_FALSE(header_compiles(base + "leans_on_neighbor.hpp", opt));
}

// ------------------------------------------------------------- baseline

TEST(LintBaseline, RoundTripsAndGatesOnlyNewFindings) {
  const std::vector<Finding> old = {
      {"src/a.cpp", 3, "no-wallclock", "m"},
      {"src/a.cpp", 9, "no-wallclock", "m"},
      {"src/b.cpp", 1, "float-time-accum", "m"},
  };
  const std::string text = format_baseline(old);
  // Parse what format_baseline wrote, via a temp file.
  const std::string path = ::testing::TempDir() + "dqos_lint_baseline_test.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const std::map<BaselineKey, int> base = load_baseline(path);
  ASSERT_EQ(base.size(), 2u);
  EXPECT_EQ(base.at({"src/a.cpp", "no-wallclock"}), 2);
  EXPECT_EQ(base.at({"src/b.cpp", "float-time-accum"}), 1);

  // Same debt -> nothing new; one extra finding in a.cpp -> exactly the
  // overflow is reported; a fresh (file, rule) pair is always new.
  EXPECT_TRUE(new_findings(old, base).empty());
  std::vector<Finding> grown = old;
  grown.push_back({"src/a.cpp", 20, "no-wallclock", "m"});
  grown.push_back({"src/c.cpp", 2, "unordered-iteration", "m"});
  const auto fresh = new_findings(grown, base);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].file, "src/a.cpp");
  EXPECT_EQ(fresh[1].file, "src/c.cpp");
}

TEST(LintBaseline, MissingBaselineFileMeansZeroAllowance) {
  const std::map<BaselineKey, int> base =
      load_baseline("/nonexistent/dqos/baseline.txt");
  EXPECT_TRUE(base.empty());
  const std::vector<Finding> fs = {{"src/a.cpp", 1, "no-wallclock", "m"}};
  EXPECT_EQ(new_findings(fs, base).size(), 1u);
}

TEST(LintBaseline, WriteIsSortedAndDeduplicated) {
  // Findings arrive unsorted with repeated (file, rule) pairs; the
  // baseline must come out sorted with one merged count per pair.
  const std::vector<Finding> fs = {
      {"src/z.cpp", 9, "no-wallclock", "m"},
      {"src/a.cpp", 3, "no-wallclock", "m"},
      {"src/z.cpp", 2, "no-wallclock", "m"},
      {"src/a.cpp", 1, "float-time-accum", "m"},
  };
  const std::string text = format_baseline(fs);
  std::vector<std::string> lines;
  std::istringstream ss(text);
  for (std::string l; std::getline(ss, l);) {
    if (!l.empty() && l[0] != '#') lines.push_back(l);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "src/a.cpp float-time-accum 1");
  EXPECT_EQ(lines[1], "src/a.cpp no-wallclock 1");
  EXPECT_EQ(lines[2], "src/z.cpp no-wallclock 2");
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
}

TEST(LintBaseline, LoadMergesDuplicateLines) {
  const std::string path = ::testing::TempDir() + "dqos_lint_dup_baseline.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "src/a.cpp no-wallclock 1\n"
           "src/a.cpp no-wallclock 2\n";
  }
  const std::map<BaselineKey, int> base = load_baseline(path);
  ASSERT_EQ(base.size(), 1u);
  EXPECT_EQ(base.at({"src/a.cpp", "no-wallclock"}), 3);
}

// --------------------------------------------------- lexer edge cases

TEST(LintLexer, DigitSeparatorsAreCanonicalizedAway) {
  const LexedFile lx = lex("long n = 1'000'000; auto h = 0xdead'beef;\n");
  std::vector<std::string> nums;
  for (const Token& t : lx.tokens) {
    if (t.kind == Token::Kind::kNumber) nums.push_back(t.text);
  }
  ASSERT_EQ(nums.size(), 2u);
  EXPECT_EQ(nums[0], "1000000");
  EXPECT_EQ(nums[1], "0xdeadbeef");
}

TEST(LintLexer, DigitBeforeCharLiteralIsNotASeparator) {
  // f(1,'a') — the quote opens a char literal, not a digit separator.
  const LexedFile lx = lex("int x = f(1,'a');\n");
  const auto one =
      std::find_if(lx.tokens.begin(), lx.tokens.end(),
                   [](const Token& t) { return t.text == "1"; });
  ASSERT_NE(one, lx.tokens.end());
  for (const Token& t : lx.tokens) EXPECT_NE(t.text, "a");
}

TEST(LintLexer, RawStringCustomDelimiterIsOpaque) {
  const LexedFile lx = lex(
      "auto s = R\"xy(rand() \")\" time())xy\"; int after = 1;\n");
  for (const Token& t : lx.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  const auto after =
      std::find_if(lx.tokens.begin(), lx.tokens.end(),
                   [](const Token& t) { return t.text == "after"; });
  EXPECT_NE(after, lx.tokens.end());
}

TEST(LintLexer, InvalidRawStringDelimiterFallsBackToOrdinaryString) {
  // A newline can never appear in a raw-string delimiter; the R\" must
  // lex as an ordinary string instead of swallowing the file.
  const LexedFile lx = lex("auto s = R\"bad\ndelim\"; int keep = 2;\n");
  const auto keep =
      std::find_if(lx.tokens.begin(), lx.tokens.end(),
                   [](const Token& t) { return t.text == "keep"; });
  ASSERT_NE(keep, lx.tokens.end());
  EXPECT_EQ(keep->line, 2);
}

TEST(LintLexer, LineContinuationExtendsLineComment) {
  // The backslash splices the next line into the comment: rand() there
  // is commentary, not code.
  const LexedFile lx = lex(
      "int a; // trailing comment \\\n"
      "rand(); int b;\n"
      "int c;\n");
  for (const Token& t : lx.tokens) EXPECT_NE(t.text, "rand");
  const auto c = std::find_if(lx.tokens.begin(), lx.tokens.end(),
                              [](const Token& t) { return t.text == "c"; });
  ASSERT_NE(c, lx.tokens.end());
  EXPECT_EQ(c->line, 3);
}

TEST(LintLexer, MarkerMustStartItsComment) {
  // Prose mentioning a marker, and the indented `// dqos-lint:` examples
  // in doc comments, must register nothing.
  const LexedFile lx = lex(
      "// Enforces `// dqos-lint: hot` markers on the next body.\n"
      "///   // dqos-lint: allow(rule-a, rule-b)\n"
      "int a;  // dqos-lint: allow(no-wallclock)\n"
      "/// dqos-lint: hot\n"
      "void f() {}\n");
  EXPECT_TRUE(lx.hot_marks.count(4) == 1);
  EXPECT_EQ(lx.hot_marks.size(), 1u);
  EXPECT_TRUE(lx.allow_markers.size() == 1 &&
              lx.allow_markers[0].line == 3 &&
              lx.allow_markers[0].rule == "no-wallclock");
}

TEST(LintLexer, MatchReturnsMarkerIndexWithLineOverFilePriority) {
  const LexedFile lx = lex(
      "// dqos-lint: allow-file(no-wallclock)\n"
      "// dqos-lint: allow(no-wallclock)\n"
      "int a;\n"
      "int b;\n");
  ASSERT_EQ(lx.allow_markers.size(), 2u);
  // Line 3 is covered by the line marker (index 1); line 4 only by the
  // file-scope marker (index 0).
  EXPECT_EQ(lx.match("no-wallclock", 3), 1);
  EXPECT_EQ(lx.match("no-wallclock", 4), 0);
  EXPECT_EQ(lx.match("unordered-iteration", 3), -1);
}

// ------------------------------------------------- indexer + call graph

Index make_index(std::vector<SourceFile> files) {
  Index idx;
  for (SourceFile& f : files) {
    index_unit(Unit{f.rel_path, lex(f.content)}, idx);
  }
  finalize_index(idx);
  return idx;
}

const FunctionDef* def_named(const Index& idx, const std::string& qualified) {
  for (const FunctionDef& d : idx.defs) {
    if (d.qualified == qualified) return &d;
  }
  return nullptr;
}

TEST(LintIndexer, QualifiesDefsByScopeStackAndWrittenPrefix) {
  const Index idx = make_index({{"src/a.cpp",
                                 "namespace ns {\n"
                                 "struct C { void in_class() {} };\n"
                                 "void C::out_of_line() {}\n"
                                 "void free_fn() {}\n"
                                 "}  // namespace ns\n"}});
  EXPECT_NE(def_named(idx, "ns::C::in_class"), nullptr);
  EXPECT_NE(def_named(idx, "ns::C::out_of_line"), nullptr);
  EXPECT_NE(def_named(idx, "ns::free_fn"), nullptr);
}

TEST(LintIndexer, HandlesCtorInitListAndFpReturnDetection) {
  const Index idx = make_index({{"src/a.cpp",
                                 "struct W {\n"
                                 "  int n_;\n"
                                 "  W(int n) : n_{n} { helper(); }\n"
                                 "  double rate() const { return 0.5; }\n"
                                 "  long count() const { return n_; }\n"
                                 "};\n"}});
  const FunctionDef* ctor = def_named(idx, "W::W");
  ASSERT_NE(ctor, nullptr);
  const FunctionDef* rate = def_named(idx, "W::rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_TRUE(rate->ret_fp);
  const FunctionDef* count = def_named(idx, "W::count");
  ASSERT_NE(count, nullptr);
  EXPECT_FALSE(count->ret_fp);
}

TEST(LintCallGraph, ResolvesQualifiedCallsBySuffixOnComponentBoundary) {
  const Index idx = make_index({{"src/a.cpp",
                                 "namespace ns {\n"
                                 "struct Channel { void send() {} };\n"
                                 "struct Kernel { void send() {} };\n"
                                 "void go(Channel& c) { Channel::send(); }\n"
                                 "}\n"}});
  const CallGraph g = build_call_graph(idx);
  const FunctionDef* go = def_named(idx, "ns::go");
  ASSERT_NE(go, nullptr);
  std::set<std::string> callees;
  for (const Edge& e : g.adj[static_cast<std::size_t>(go->id)]) {
    callees.insert(idx.defs[static_cast<std::size_t>(e.callee)].qualified);
  }
  // `Channel::send` must not match `Kernel::send` ("nel::send").
  EXPECT_EQ(callees, (std::set<std::string>{"ns::Channel::send"}));
}

TEST(LintCallGraph, MemberCallOverApproximatesVirtualDispatch) {
  const Index idx = make_index(
      {{"src/a.cpp", slurp("callgraph/hot_transitive_bad.cpp")}});
  const CallGraph g = build_call_graph(idx);
  const FunctionDef* pump = def_named(idx, "fab::pump");
  ASSERT_NE(pump, nullptr);
  std::set<std::string> callees;
  for (const Edge& e : g.adj[static_cast<std::size_t>(pump->id)]) {
    callees.insert(idx.defs[static_cast<std::size_t>(e.callee)].qualified);
  }
  // sink.put(v) resolves to every override of put.
  EXPECT_EQ(callees.count("fab::CleanSink::put"), 1u);
  EXPECT_EQ(callees.count("fab::AllocSink::put"), 1u);
}

TEST(LintCallGraph, RecursionTerminatesAndChainEndsAtTarget) {
  const Index idx = make_index({{"src/a.cpp",
                                 "struct R {\n"
                                 "  void ping(int n) { if (n) pong(n - 1); }\n"
                                 "  void pong(int n) { ping(n); }\n"
                                 "};\n"}});
  const CallGraph g = build_call_graph(idx);
  const FunctionDef* ping = def_named(idx, "R::ping");
  const FunctionDef* pong = def_named(idx, "R::pong");
  ASSERT_NE(ping, nullptr);
  ASSERT_NE(pong, nullptr);
  const Reach r = reach_from(idx, g, {ping->id});
  EXPECT_TRUE(r.reached(pong->id));
  const std::string chain = chain_string(idx, r, pong->id);
  EXPECT_NE(chain.find("R::ping"), std::string::npos);
  EXPECT_NE(chain.find(" -> R::pong"), std::string::npos);
}

TEST(LintCallGraph, DumpIsDeterministicAndAnnotated) {
  const Index idx = make_index(
      {{"src/a.cpp", slurp("callgraph/hot_transitive_bad.cpp")}});
  const CallGraph g = build_call_graph(idx);
  std::ostringstream a, b;
  dump_callgraph(idx, g, a);
  dump_callgraph(idx, g, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("definitions"), std::string::npos);
  EXPECT_NE(a.str().find("(hot)"), std::string::npos);
  EXPECT_NE(a.str().find("  -> "), std::string::npos);
}

// -------------------------------------------------- rule: hot-path-transitive

TEST(LintTransitive, HotPathFlagsIndirectRecursiveAndVirtualChains) {
  const TreeReport r = lint_sources(
      {{"src/fab/hot_chain.cpp", slurp("callgraph/hot_transitive_bad.cpp")}});
  const int n = count_rule(r.findings, "hot-path-transitive");
  // remember (indirect), spill (recursive), AllocSink::put (virtual).
  EXPECT_GE(n, 3) << testing::PrintToString(rules_of(r.findings));
  bool chain_seen = false;
  for (const Finding& f : r.findings) {
    if (f.rule != "hot-path-transitive") continue;
    EXPECT_NE(f.message.find("fab::pump"), std::string::npos) << f.message;
    if (f.message.find(" -> ") != std::string::npos) chain_seen = true;
  }
  EXPECT_TRUE(chain_seen);
}

TEST(LintTransitive, HotPathChainPrintsEveryHop) {
  const TreeReport r = lint_sources(
      {{"src/fab/hot_chain.cpp", slurp("callgraph/hot_transitive_bad.cpp")}});
  bool found = false;
  for (const Finding& f : r.findings) {
    if (f.rule == "hot-path-transitive" &&
        f.message.find("fab::Store::remember") != std::string::npos) {
      found = true;
      // Root -> intermediate -> target, with file:line per hop.
      EXPECT_NE(f.message.find("fab::pump"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("fab::drain"), std::string::npos) << f.message;
      EXPECT_NE(f.message.find("src/fab/hot_chain.cpp:"), std::string::npos)
          << f.message;
    }
  }
  EXPECT_TRUE(found) << testing::PrintToString(rules_of(r.findings));
}

TEST(LintTransitive, HotPathSuppressedNegativeLintsClean) {
  const TreeReport r = lint_sources(
      {{"src/fab/hot_chain_ok.cpp",
        slurp("callgraph/hot_transitive_allowed.cpp")}});
  EXPECT_EQ(count_rule(r.findings, "hot-path-transitive"), 0)
      << testing::PrintToString(rules_of(r.findings));
}

TEST(LintTransitive, HotRootOwnBodyIsLeftToThePerFileRule) {
  // The root's own allocation is hot-path-alloc (depth 0 of the same
  // walk), never double-reported as hot-path-transitive.
  const TreeReport r = lint_sources({{"src/fab/self.cpp",
                                      "#include <vector>\n"
                                      "std::vector<int> v;\n"
                                      "// dqos-lint: hot\n"
                                      "void f() { v.push_back(1); }\n"}});
  EXPECT_EQ(count_rule(r.findings, "hot-path-transitive"), 0)
      << testing::PrintToString(rules_of(r.findings));
  EXPECT_EQ(count_rule(r.findings, "hot-path-alloc"), 1);
}

// ------------------------------------------------------ rule: shard-ownership

TEST(LintTransitive, ShardRegionReachingCalendarIsFlaggedWithChain) {
  const TreeReport r = lint_sources(
      {{"src/fab/shard_chain.cpp",
        slurp("callgraph/shard_transitive_bad.cpp")}});
  ASSERT_GE(count_rule(r.findings, "shard-ownership"), 1)
      << testing::PrintToString(rules_of(r.findings));
  const auto it =
      std::find_if(r.findings.begin(), r.findings.end(), [](const Finding& f) {
        return f.rule == "shard-ownership";
      });
  EXPECT_NE(it->message.find("schedule_at"), std::string::npos);
  EXPECT_NE(it->message.find("src/fab/shard_chain.cpp:"), std::string::npos);
  EXPECT_NE(it->message.find("fab::Worker::relay"), std::string::npos)
      << it->message;
  EXPECT_NE(it->message.find("mailbox"), std::string::npos);
}

TEST(LintTransitive, ShardSuppressedNegativeLintsClean) {
  const TreeReport r = lint_sources(
      {{"src/fab/shard_chain_ok.cpp",
        slurp("callgraph/shard_transitive_allowed.cpp")}});
  EXPECT_EQ(count_rule(r.findings, "shard-ownership"), 0)
      << testing::PrintToString(rules_of(r.findings));
}

// ------------------------------------------------ rule: rng-stream-discipline

TEST(LintTransitive, NamedStreamSplitAcrossSubsystemsIsFlagged) {
  const TreeReport r = lint_sources(
      {{"src/sim/arrivals.cpp", slurp("callgraph/rng_sim_split.cpp")},
       {"src/host/traffic.cpp", slurp("callgraph/rng_host_split.cpp")}});
  std::vector<const Finding*> hits;
  for (const Finding& f : r.findings) {
    if (f.rule == "rng-stream-discipline" &&
        f.message.find("0xbacc0ff5") != std::string::npos) {
      hits.push_back(&f);
    }
  }
  ASSERT_EQ(hits.size(), 1u) << testing::PrintToString(rules_of(r.findings));
  // Ownership goes to the first site in sorted (file, line) order —
  // src/host here — and the non-owning site is the one flagged.
  EXPECT_EQ(hits[0]->file, "src/sim/arrivals.cpp");
  EXPECT_NE(hits[0]->message.find("src/host"), std::string::npos);
  // The small salt (7) never registers as a named stream.
  for (const Finding& f : r.findings) {
    EXPECT_EQ(f.message.find("split(7)"), std::string::npos);
  }
}

TEST(LintTransitive, TwoStreamDrawInOneFunctionIsFlagged) {
  const TreeReport r = lint_sources(
      {{"src/sim/arrivals.cpp", slurp("callgraph/rng_sim_split.cpp")}});
  bool found = false;
  for (const Finding& f : r.findings) {
    if (f.rule == "rng-stream-discipline" &&
        f.message.find("arrival_rng") != std::string::npos &&
        f.message.find("service_rng") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << testing::PrintToString(rules_of(r.findings));
}

TEST(LintTransitive, RngDisciplineSuppressedNegativeLintsClean) {
  const TreeReport r = lint_sources(
      {{"src/sim/rng_ok.cpp", slurp("callgraph/rng_allowed.cpp")}});
  EXPECT_EQ(count_rule(r.findings, "rng-stream-discipline"), 0)
      << testing::PrintToString(rules_of(r.findings));
}

// ----------------------------------------------- rule: float-time-transitive

TEST(LintTransitive, FloatAccumAcrossFunctionBoundaryIsFlagged) {
  const TreeReport r = lint_sources(
      {{"src/fab/window_merge.cpp",
        slurp("callgraph/float_transitive_bad.cpp")}});
  ASSERT_GE(count_rule(r.findings, "float-time-transitive"), 1)
      << testing::PrintToString(rules_of(r.findings));
  const auto it =
      std::find_if(r.findings.begin(), r.findings.end(), [](const Finding& f) {
        return f.rule == "float-time-transitive";
      });
  EXPECT_NE(it->message.find("span_time_of"), std::string::npos);
  EXPECT_NE(it->message.find("fab::Merger::merge_windows"), std::string::npos)
      << it->message;
}

TEST(LintTransitive, FloatTransitiveSuppressedNegativeLintsClean) {
  const TreeReport r = lint_sources(
      {{"src/fab/window_merge_ok.cpp",
        slurp("callgraph/float_transitive_allowed.cpp")}});
  EXPECT_EQ(count_rule(r.findings, "float-time-transitive"), 0)
      << testing::PrintToString(rules_of(r.findings));
}

// ------------------------------------------------------ stale suppressions

TEST(LintSuppressions, StaleMarkerIsReportedLiveMarkerIsNot) {
  const TreeReport r = lint_sources(
      {{"src/core/x.cpp",
        "// dqos-lint: allow(no-wallclock)\n"
        "int t = time(nullptr);\n"
        "// dqos-lint: allow(unordered-iteration)\n"
        "int unrelated;\n"}},
      /*check_suppressions=*/true);
  ASSERT_EQ(r.stale.size(), 1u) << testing::PrintToString(rules_of(r.stale));
  EXPECT_EQ(r.stale[0].rule, "stale-suppression");
  EXPECT_EQ(r.stale[0].line, 3);
  EXPECT_NE(r.stale[0].message.find("unordered-iteration"), std::string::npos);
  // The live marker suppressed its finding: nothing else is reported.
  EXPECT_EQ(count_rule(r.findings, "no-wallclock"), 0);
}

TEST(LintSuppressions, StaleFileScopeMarkerIsReported) {
  const TreeReport r = lint_sources(
      {{"src/core/y.cpp",
        "// dqos-lint: allow-file(float-time-accum)\n"
        "int clean;\n"}},
      /*check_suppressions=*/true);
  ASSERT_EQ(r.stale.size(), 1u);
  EXPECT_NE(r.stale[0].message.find("allow-file(float-time-accum)"),
            std::string::npos);
}

// ----------------------------------------------------------------- SARIF

TEST(LintSarif, SerializesRulesResultsAndEscapes) {
  const std::vector<Finding> fs = {
      {"src/a.cpp", 3, "no-wallclock", "bad \"call\"\nhere"},
      {"src/b.cpp", 7, "shard-ownership", "chain -> x"},
  };
  const std::string s = to_sarif(fs);
  EXPECT_NE(s.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"dqos_lint\""), std::string::npos);
  EXPECT_NE(s.find("{\"id\": \"no-wallclock\"}"), std::string::npos);
  EXPECT_NE(s.find("{\"id\": \"shard-ownership\"}"), std::string::npos);
  EXPECT_NE(s.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(s.find("bad \\\"call\\\"\\nhere"), std::string::npos);
}

TEST(LintSarif, EmptyFindingsStillProduceAValidRun) {
  const std::string s = to_sarif({});
  EXPECT_NE(s.find("\"results\": []"), std::string::npos);
  EXPECT_NE(s.find("\"rules\": []"), std::string::npos);
}

}  // namespace
}  // namespace dqos::lintkit
