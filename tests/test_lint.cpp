// Fixture-based tests for the xcp-lint engine (src/lint). Every rule in
// the registry gets a positive fixture (the violation is found, at the
// right line) and a negative fixture (the idiomatic alternative is not);
// suppression semantics, baseline round-trips and the spawned binary's
// exit-code taxonomy are pinned alongside. The fixtures use a Config
// whose scopes point at fixture paths, so the tests stay valid when the
// real repo layout evolves.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fs = std::filesystem;
using namespace xcp::lint;

namespace {

Config fixture_config() {
  Config c;
  c.determinism_scopes = {"det/"};
  c.iteration_extra_scopes = {"iter/"};
  c.loop_scopes = {"loop/fix.cpp"};
  c.wire_scopes = {"wire/fix.hpp", "wire/fix.cpp"};
  c.kind_switch_extra_scopes = {"kind/extra.cpp"};
  c.hot_functions = {{"hot/fix.cpp", "hot_fn"}};
  return c;
}

RunResult run_one(const Config& c, std::string path, std::string text) {
  std::vector<SourceFile> files;
  files.push_back(make_source(std::move(path), std::move(text)));
  return run_files(c, files);
}

int count_rule(const std::vector<Finding>& fs, std::string_view rule) {
  int n = 0;
  for (const Finding& f : fs) n += static_cast<int>(f.rule == rule);
  return n;
}

bool has_at(const std::vector<Finding>& fs, std::string_view rule, int line) {
  for (const Finding& f : fs) {
    if (f.rule == rule && f.line == line) return true;
  }
  return false;
}

}  // namespace

// --------------------------------------------------- determinism-wall-clock

TEST(LintWallClock, FlagsChronoClockChainsAndCApi) {
  const RunResult r = run_one(fixture_config(), "det/fix.cpp",
                              "#include <chrono>\n"
                              "void f() {\n"
                              "  auto a = std::chrono::steady_clock::now();\n"
                              "  auto b = Clock::now();\n"
                              "  struct timeval tv;\n"
                              "  gettimeofday(&tv, nullptr);\n"
                              "  auto t = std::time(nullptr);\n"
                              "  (void)a; (void)b; (void)t;\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 4);
  EXPECT_TRUE(has_at(r.findings, "determinism-wall-clock", 3));
  EXPECT_TRUE(has_at(r.findings, "determinism-wall-clock", 4));
  EXPECT_TRUE(has_at(r.findings, "determinism-wall-clock", 6));
  EXPECT_TRUE(has_at(r.findings, "determinism-wall-clock", 7));
}

TEST(LintWallClock, VirtualTimeAndOutOfScopeAreClean) {
  const Config c = fixture_config();
  // sim().now() / local_now() / member now() are virtual time, not a
  // machine clock: the chain carries no clock-like qualifier.
  const RunResult in_scope = run_one(c, "det/fix.cpp",
                                     "void f() {\n"
                                     "  auto a = sim().now();\n"
                                     "  auto b = local_now();\n"
                                     "  auto c2 = queue.now();\n"
                                     "  (void)a; (void)b; (void)c2;\n"
                                     "}\n");
  EXPECT_EQ(count_rule(in_scope.findings, "determinism-wall-clock"), 0);
  // Out of the determinism scopes, even a real wall-clock read is fine.
  const RunResult out_scope =
      run_one(c, "other/fix.cpp",
              "void f() { auto t = std::chrono::steady_clock::now(); "
              "(void)t; }\n");
  EXPECT_EQ(count_rule(out_scope.findings, "determinism-wall-clock"), 0);
}

// ------------------------------------------------------ determinism-random

TEST(LintRandom, FlagsAmbientEntropy) {
  const RunResult r = run_one(fixture_config(), "det/fix.cpp",
                              "void f() {\n"
                              "  std::random_device rd;\n"
                              "  int x = rand();\n"
                              "  (void)rd; (void)x;\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-random"), 2);
  EXPECT_TRUE(has_at(r.findings, "determinism-random", 2));
  EXPECT_TRUE(has_at(r.findings, "determinism-random", 3));
}

TEST(LintRandom, MemberCallsAndSeededRngAreClean) {
  const RunResult r = run_one(fixture_config(), "det/fix.cpp",
                              "void f(Rng& rng, Obj& obj) {\n"
                              "  auto a = rng.next_u64();\n"
                              "  auto b = obj.rand();\n"
                              "  (void)a; (void)b;\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-random"), 0);
}

// ----------------------------------------------- determinism-unordered-iter

TEST(LintUnorderedIter, FlagsRangeForAndIteratorWalks) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, int> m_;\n"
      "  int sum() const {\n"
      "    int s = 0;\n"
      "    for (const auto& kv : m_) s += kv.second;\n"
      "    for (auto it = m_.begin(); it != m_.end(); ++it) s += it->second;\n"
      "    return s;\n"
      "  }\n"
      "};\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-unordered-iter"), 2);
  EXPECT_TRUE(has_at(r.findings, "determinism-unordered-iter", 6));
  EXPECT_TRUE(has_at(r.findings, "determinism-unordered-iter", 7));
}

TEST(LintUnorderedIter, ResolvesMembersFromSiblingHeader) {
  const Config c = fixture_config();
  std::vector<SourceFile> files;
  files.push_back(make_source("iter/fix.hpp",
                              "#include <unordered_set>\n"
                              "struct S { std::unordered_set<int> seen_; };\n"));
  files.push_back(make_source("iter/fix.cpp",
                              "#include \"iter/fix.hpp\"\n"
                              "int f(const S& s) {\n"
                              "  int n = 0;\n"
                              "  for (int v : s.seen_) n += v;\n"
                              "  return n;\n"
                              "}\n"));
  const RunResult r = run_files(c, files);
  EXPECT_TRUE(has_at(r.findings, "determinism-unordered-iter", 4));
}

TEST(LintUnorderedIter, OrderedIterationAndLookupsAreClean) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "#include <map>\n"
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::map<int, int> ordered_;\n"
      "  std::unordered_map<int, int> m_;\n"
      "  int f(int k) const {\n"
      "    int s = 0;\n"
      "    for (const auto& kv : ordered_) s += kv.second;\n"
      "    auto it = m_.find(k);\n"
      "    return it == m_.end() ? s : s + it->second;\n"
      "  }\n"
      "};\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-unordered-iter"), 0);
}

// ------------------------------------------------------------ hotpath-alloc

TEST(LintHotpath, FlagsAllocationInRegisteredHotFunction) {
  const RunResult r = run_one(fixture_config(), "hot/fix.cpp",
                              "void hot_fn(std::vector<int>& v) {\n"
                              "  v.push_back(1);\n"
                              "  int* p = new int(3);\n"
                              "  std::string s;\n"
                              "  char* q = (char*)malloc(4);\n"
                              "  (void)p; (void)s; (void)q;\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "hotpath-alloc"), 4);
  EXPECT_TRUE(has_at(r.findings, "hotpath-alloc", 2));
  EXPECT_TRUE(has_at(r.findings, "hotpath-alloc", 3));
  EXPECT_TRUE(has_at(r.findings, "hotpath-alloc", 4));
  EXPECT_TRUE(has_at(r.findings, "hotpath-alloc", 5));
}

TEST(LintHotpath, ColdFunctionsAndNamedHelpersAreClean) {
  const RunResult r = run_one(fixture_config(), "hot/fix.cpp",
                              "void grow();\n"
                              "void hot_fn(std::vector<int>& v) {\n"
                              "  grow();\n"
                              "  v[0] = 1;\n"
                              "}\n"
                              "void cold_fn(std::vector<int>& v) {\n"
                              "  v.push_back(2);\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "hotpath-alloc"), 0);
}

// ------------------------------------------------------------ loop-blocking

TEST(LintLoopBlocking, FlagsBlockingCallsInLoopFiles) {
  const RunResult r = run_one(
      fixture_config(), "loop/fix.cpp",
      "void supervise(int pid, int fd) {\n"
      "  int st = 0;\n"
      "  waitpid(pid, &st, 0);\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "  char buf[16];\n"
      "  read(fd, buf, sizeof buf);\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "loop-blocking"), 3);
  EXPECT_TRUE(has_at(r.findings, "loop-blocking", 3));
  EXPECT_TRUE(has_at(r.findings, "loop-blocking", 4));
  EXPECT_TRUE(has_at(r.findings, "loop-blocking", 6));
}

TEST(LintLoopBlocking, NonBlockingDisciplineIsClean) {
  const Config c = fixture_config();
  const RunResult r = run_one(
      c, "loop/fix.cpp",
      "void supervise(int pid, int fd, char* buf, int n) {\n"
      "  int st = 0;\n"
      "  waitpid(pid, &st, WNOHANG);\n"
      "  fcntl(fd, F_SETFL, O_NONBLOCK);\n"
      "  read(fd, buf, n);\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "loop-blocking"), 0);
  // Outside the registered loop files the rule does not apply at all.
  const RunResult out = run_one(c, "other/fix.cpp",
                                "void f(int pid) {\n"
                                "  int st = 0;\n"
                                "  waitpid(pid, &st, 0);\n"
                                "}\n");
  EXPECT_EQ(count_rule(out.findings, "loop-blocking"), 0);
}

// ---------------------------------------------------------- wire-fixed-width

TEST(LintFixedWidth, FlagsPlatformWidthTypesInCodecBodies) {
  const RunResult r = run_one(
      fixture_config(), "wire/fix.cpp",
      "#include <cstdint>\n"
      "void put_x(std::vector<std::uint8_t>& out) {\n"
      "  int n = 0;\n"
      "  unsigned m = 0;\n"
      "  unsigned char byte = 0;\n"
      "  std::uint32_t ok = 0;\n"
      "  (void)out; (void)n; (void)m; (void)byte; (void)ok;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "wire-fixed-width"), 2);
  EXPECT_TRUE(has_at(r.findings, "wire-fixed-width", 3));
  EXPECT_TRUE(has_at(r.findings, "wire-fixed-width", 4));
}

TEST(LintFixedWidth, NonCodecFunctionsAreClean) {
  const RunResult r = run_one(fixture_config(), "wire/fix.cpp",
                              "int helper() {\n"
                              "  int fine = 1;\n"
                              "  return fine;\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "wire-fixed-width"), 0);
}

// ---------------------------------------------------- wire-exhaustive-switch

TEST(LintExhaustiveSwitch, FlagsSilentDefault) {
  const RunResult r = run_one(fixture_config(), "kind/extra.cpp",
                              "void f(int k) {\n"
                              "  switch (k) {\n"
                              "    case 0: break;\n"
                              "    default: break;\n"
                              "  }\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "wire-exhaustive-switch"), 1);
  EXPECT_TRUE(has_at(r.findings, "wire-exhaustive-switch", 4));
}

TEST(LintExhaustiveSwitch, ExhaustiveOrLoudDefaultsAreClean) {
  const RunResult r = run_one(fixture_config(), "wire/fix.cpp",
                              "void f(int k) {\n"
                              "  switch (k) {\n"
                              "    case 0: break;\n"
                              "    case 1: break;\n"
                              "  }\n"
                              "  switch (k) {\n"
                              "    case 0: break;\n"
                              "    default: throw 1;\n"
                              "  }\n"
                              "  switch (k) {\n"
                              "    case 0: break;\n"
                              "    default: XCP_REQUIRE(false, \"bad kind\");\n"
                              "  }\n"
                              "}\n");
  EXPECT_EQ(count_rule(r.findings, "wire-exhaustive-switch"), 0);
}

// ------------------------------------------------- wire-serialize-parse-pair

TEST(LintSerializeParsePair, FlagsEncoderWithoutDecoder) {
  const RunResult r = run_one(
      fixture_config(), "wire/fix.hpp",
      "#include <cstdint>\n"
      "#include <vector>\n"
      "struct Foo {};\n"
      "void serialize_foo(const Foo& f, std::vector<std::uint8_t>& out);\n");
  EXPECT_EQ(count_rule(r.findings, "wire-serialize-parse-pair"), 1);
  EXPECT_TRUE(has_at(r.findings, "wire-serialize-parse-pair", 4));
}

TEST(LintSerializeParsePair, PairAcrossHeaderAndCppIsClean) {
  const Config c = fixture_config();
  std::vector<SourceFile> files;
  files.push_back(make_source(
      "wire/fix.hpp",
      "struct Foo {};\n"
      "void serialize_foo(const Foo& f, std::vector<std::uint8_t>& out);\n"));
  files.push_back(make_source(
      "wire/fix.cpp",
      "#include \"wire/fix.hpp\"\n"
      "Foo parse_foo(const std::uint8_t* data, std::size_t size);\n"));
  const RunResult r = run_files(c, files);
  EXPECT_EQ(count_rule(r.findings, "wire-serialize-parse-pair"), 0);
}

// -------------------------------------------------------------- suppressions

TEST(LintSuppression, SameLineGrantSuppressesOnlyThatLine) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "void f() {\n"
      "  auto a = Clock::now();  // xcp-lint: allow(determinism-wall-clock) "
      "fixture reason\n"
      "  auto b = Clock::now();\n"
      "  (void)a; (void)b;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 1);
  EXPECT_TRUE(has_at(r.findings, "determinism-wall-clock", 3));
  EXPECT_EQ(count_rule(r.suppressed, "determinism-wall-clock"), 1);
  EXPECT_TRUE(has_at(r.suppressed, "determinism-wall-clock", 2));
}

TEST(LintSuppression, OwnLineBlockGrantsTheLineAfterTheBlock) {
  // The directive may sit anywhere in a contiguous own-line comment
  // block; the grant covers the first code line after it.
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "void f() {\n"
      "  // xcp-lint: allow(determinism-wall-clock) fixture reason\n"
      "  // with a longer explanation that spills onto a second line\n"
      "  auto a = Clock::now();\n"
      "  (void)a;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 0);
  EXPECT_EQ(count_rule(r.suppressed, "determinism-wall-clock"), 1);
}

TEST(LintSuppression, GrantDoesNotReachPastABlankLine) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "void f() {\n"
      "  // xcp-lint: allow(determinism-wall-clock) fixture reason\n"
      "\n"
      "  auto a = Clock::now();\n"
      "  (void)a;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 1);
}

TEST(LintSuppression, FileWideGrantCoversTheWholeFile) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "// xcp-lint: allow-file(determinism-wall-clock) fixture-wide reason\n"
      "void f() {\n"
      "  auto a = Clock::now();\n"
      "  auto b = std::chrono::steady_clock::now();\n"
      "  (void)a; (void)b;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 0);
  EXPECT_EQ(count_rule(r.suppressed, "determinism-wall-clock"), 2);
}

TEST(LintSuppression, GrantForAnotherRuleDoesNotApply) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "void f() {\n"
      "  // xcp-lint: allow(determinism-random) wrong rule for this line\n"
      "  auto a = Clock::now();\n"
      "  (void)a;\n"
      "}\n");
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 1);
}

TEST(LintDirective, ReasonlessAndUnknownRuleDirectivesAreFindings) {
  const RunResult r = run_one(
      fixture_config(), "det/fix.cpp",
      "void f() {\n"
      "  auto a = Clock::now();  // xcp-lint: allow(determinism-wall-clock)\n"
      "  // xcp-lint: allow(no-such-rule) reason text\n"
      "  (void)a;\n"
      "}\n");
  // A reasonless grant is void: the original finding survives, and the
  // directive itself is reported.
  EXPECT_EQ(count_rule(r.findings, "determinism-wall-clock"), 1);
  EXPECT_EQ(count_rule(r.findings, "lint-directive"), 2);
  EXPECT_TRUE(has_at(r.findings, "lint-directive", 2));
  EXPECT_TRUE(has_at(r.findings, "lint-directive", 3));
}

// ------------------------------------------------------------------ baseline

TEST(LintBaseline, RenderParseRoundTripAbsolvesFindings) {
  const Config c = fixture_config();
  RunResult r = run_one(c, "det/fix.cpp",
                        "void f() {\n"
                        "  auto a = Clock::now();\n"
                        "  std::random_device rd;\n"
                        "  (void)a; (void)rd;\n"
                        "}\n");
  ASSERT_EQ(r.findings.size(), 2u);
  const std::string text = Baseline::render(r.findings);
  std::string error;
  const auto baseline = Baseline::parse(text, error);
  ASSERT_TRUE(baseline.has_value()) << error;
  std::vector<Finding> absolved;
  apply_baseline(*baseline, r, absolved);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(absolved.size(), 2u);
}

TEST(LintBaseline, EntriesHaveMultisetBudget) {
  const Config c = fixture_config();
  // The same statement twice: identical (rule, path, excerpt) keys.
  RunResult r = run_one(c, "det/fix.cpp",
                        "void f(Log& log) {\n"
                        "  log.stamp(Clock::now());\n"
                        "  log.stamp(Clock::now());\n"
                        "}\n");
  ASSERT_EQ(r.findings.size(), 2u);
  ASSERT_EQ(Baseline::key(r.findings[0]), Baseline::key(r.findings[1]))
      << "fixture must produce identical keys";
  Baseline one;
  one.entries[Baseline::key(r.findings[0])] = 1;
  std::vector<Finding> absolved;
  apply_baseline(one, r, absolved);
  EXPECT_EQ(absolved.size(), 1u);
  EXPECT_EQ(r.findings.size(), 1u);
}

TEST(LintBaseline, EditedLineResurfacesTheFinding) {
  const Config c = fixture_config();
  RunResult before = run_one(c, "det/fix.cpp",
                             "void f() {\n"
                             "  auto a = Clock::now();\n"
                             "  (void)a;\n"
                             "}\n");
  ASSERT_EQ(before.findings.size(), 1u);
  const std::string text = Baseline::render(before.findings);
  std::string error;
  const auto baseline = Baseline::parse(text, error);
  ASSERT_TRUE(baseline.has_value()) << error;
  // The flagged line changes (new variable name): the excerpt-keyed
  // baseline entry must no longer absolve it.
  RunResult after = run_one(c, "det/fix.cpp",
                            "void f() {\n"
                            "  auto when = Clock::now();\n"
                            "  (void)when;\n"
                            "}\n");
  ASSERT_EQ(after.findings.size(), 1u);
  std::vector<Finding> absolved;
  apply_baseline(*baseline, after, absolved);
  EXPECT_TRUE(absolved.empty());
  EXPECT_EQ(after.findings.size(), 1u);
}

TEST(LintBaseline, MalformedLinesAreRejectedWithLineNumbers) {
  std::string error;
  EXPECT_FALSE(Baseline::parse("# header\nnot-a-valid-line\n", error)
                   .has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(
      Baseline::parse("no-such-rule|some/path.cpp|excerpt\n", error)
          .has_value());
  EXPECT_NE(error.find("unknown rule"), std::string::npos) << error;
}

// ------------------------------------------------------ default scopes
//
// Every path the default Config names must exist in the source tree: a
// renamed or deleted file would otherwise leave its rule silently checking
// nothing. ctest hands the tree's root in via XCP_SOURCE_ROOT.

TEST(LintConfig, DefaultScopesNameExistingPaths) {
  const char* root_env = std::getenv("XCP_SOURCE_ROOT");
  ASSERT_NE(root_env, nullptr) << "XCP_SOURCE_ROOT is unset (ctest sets it)";
  const fs::path root(root_env);
  const Config c;
  const auto expect_scope = [&](const std::string& scope) {
    // A trailing slash marks a directory scope; anything else is a file.
    if (!scope.empty() && scope.back() == '/') {
      EXPECT_TRUE(fs::is_directory(root / scope)) << scope;
    } else {
      EXPECT_TRUE(fs::is_regular_file(root / scope)) << scope;
    }
  };
  for (const auto* scopes :
       {&c.determinism_scopes, &c.iteration_extra_scopes, &c.loop_scopes,
        &c.wire_scopes, &c.kind_switch_extra_scopes}) {
    EXPECT_FALSE(scopes->empty());
    for (const std::string& scope : *scopes) expect_scope(scope);
  }
  for (const HotFunction& hot : c.hot_functions) {
    expect_scope(std::string(hot.file_suffix));
  }
}

// ---------------------------------------------------------------- exit codes
//
// The spawned binary's contract (lint_exit), exercised against throwaway
// fixture trees. ctest hands the binary path in via XCP_LINT_BIN.

#if !defined(_WIN32)

namespace {

int run_cli(const std::string& args) {
  const char* bin = std::getenv("XCP_LINT_BIN");
  const std::string cmd = std::string(bin != nullptr ? bin : "./xcp_lint") +
                          " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A throwaway fixture tree under the system temp dir, removed on exit.
struct TempTree {
  fs::path root;
  TempTree() {
    root = fs::temp_directory_path() /
           ("xcp_lint_fixture_" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~TempTree() { fs::remove_all(root); }
  void write(const std::string& rel, const std::string& text) const {
    const fs::path p = root / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out << text;
  }
};

}  // namespace

TEST(LintCli, ExitCodeTaxonomy) {
  TempTree tree;
  // src/sim/ is in the default determinism scope, so this tree has
  // exactly one finding.
  tree.write("src/sim/bad.cpp",
             "#include <chrono>\n"
             "void f() {\n"
             "  auto t = std::chrono::steady_clock::now();\n"
             "  (void)t;\n"
             "}\n");
  const std::string root_arg = "--root " + tree.root.string();

  EXPECT_EQ(run_cli("--list-rules"), lint_exit::kClean);
  EXPECT_EQ(run_cli(root_arg), lint_exit::kFindings);
  EXPECT_EQ(run_cli("--no-such-flag"), lint_exit::kUsage);
  EXPECT_EQ(run_cli(root_arg + " --rules no-such-rule"), lint_exit::kUsage);
  EXPECT_EQ(run_cli("--root " + (tree.root / "missing").string()),
            lint_exit::kIo);

  // A malformed baseline is its own failure mode, distinct from I/O.
  tree.write("broken_baseline.txt", "garbage without separators\n");
  EXPECT_EQ(run_cli(root_arg + " --baseline " +
                    (tree.root / "broken_baseline.txt").string()),
            lint_exit::kBaseline);
  EXPECT_EQ(run_cli(root_arg + " --baseline " +
                    (tree.root / "no_such_baseline.txt").string()),
            lint_exit::kIo);

  // --write-baseline captures the finding; a rerun against the written
  // baseline is clean, and an unrelated-rule restriction is too.
  const std::string bl = (tree.root / "bl.txt").string();
  EXPECT_EQ(run_cli(root_arg + " --write-baseline " + bl), lint_exit::kClean);
  EXPECT_EQ(run_cli(root_arg + " --baseline " + bl), lint_exit::kClean);
  EXPECT_EQ(run_cli(root_arg + " --rules determinism-random"),
            lint_exit::kClean);

  // Fixing the source makes the tree clean with no baseline at all.
  tree.write("src/sim/bad.cpp",
             "void f(Sim& sim) {\n"
             "  auto t = sim.now();\n"
             "  (void)t;\n"
             "}\n");
  EXPECT_EQ(run_cli(root_arg), lint_exit::kClean);
}

#endif  // !_WIN32
