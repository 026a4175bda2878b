// Tests of the full Fig. 1 compiler chain: stage artifacts, call
// substitution/reinsertion, pragma insertion, and the lowered final source.
#include <gtest/gtest.h>

#include "emit/c_printer.h"
#include "parser/parser.h"
#include "purity/purity_checker.h"
#include "transform/call_substitution.h"
#include "transform/pure_chain.h"
#include "test_sources.h"

namespace purec {
namespace {

TEST(Chain, MatmulRunsCleanly) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
}

TEST(Chain, MatmulMarkedArtifactHasScopPragmas) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.marked.find("#pragma scop"), std::string::npos);
  EXPECT_NE(a.marked.find("#pragma endscop"), std::string::npos);
  // Markers are an intermediate artifact only.
  EXPECT_EQ(a.final_source.find("#pragma scop"), std::string::npos);
}

TEST(Chain, MatmulSubstitutedArtifactHasPlaceholder) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.substituted.find("tmpConst_dot_"), std::string::npos);
  // And the final source must NOT leak placeholders.
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos)
      << a.final_source;
}

TEST(Chain, MatmulFinalSourceIsParallelizedAndLowered) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  // Lowered: no `pure` keyword anywhere, params became const (Listing 8).
  EXPECT_EQ(a.final_source.find("pure "), std::string::npos);
  EXPECT_NE(a.final_source.find("const float* a"), std::string::npos);
  // The reinserted call uses the renamed iterators.
  EXPECT_NE(a.final_source.find("dot("), std::string::npos);
  EXPECT_NE(a.final_source.find("A[t1]"), std::string::npos)
      << a.final_source;
}

TEST(Chain, MatmulScopReport) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  bool main_scop = false;
  for (const ScopReport& r : a.scops) {
    if (r.function == "main") {
      main_scop = true;
      EXPECT_TRUE(r.extracted) << r.failure_reason;
      EXPECT_TRUE(r.transformed);
      EXPECT_TRUE(r.parallelized);
      EXPECT_EQ(r.depth, 2u);
      EXPECT_EQ(r.substituted_calls, 1u);
    }
  }
  EXPECT_TRUE(main_scop);
}

TEST(Chain, PurityErrorStopsChain) {
  ChainArtifacts a = run_pure_chain(
      "int g;\n"
      "pure int f(int a) { g = a; return a; }\n");
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.diagnostics.has_error_containing("global"));
  EXPECT_TRUE(a.final_source.empty());
}

TEST(Chain, Listing5IsRejectedByChain) {
  ChainArtifacts a = run_pure_chain(testsrc::kListing5);
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.diagnostics.has_error_containing("Listing 5"));
}

TEST(Chain, Listing6AliasSlipsThrough) {
  // §3.4: the alias evasion slips through the checker's name-only rule,
  // so the chain succeeds. The loop carries a read-after-write through
  // the alias (iteration i reads array[i - 1]), so it must stay serial.
  ChainArtifacts a = run_pure_chain(testsrc::kListing6);
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.final_source.find("#pragma omp parallel for"),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("alias[i] = func(array, i);"),
            std::string::npos)
      << a.final_source;
}

TEST(Chain, APureCallOnAnUnresolvedLocalPointerStaysSerial) {
  // Pointers the base map cannot resolve may point into the written
  // array: a conditional binding, an escaped address, a view with
  // another element type. None of them is an access the dependence
  // analysis sees, since the pure call hides what it reads.
  for (const char* binding :
       {"int* p = n > 0 ? array : array;",
        "int* p = array; int** pp = &p;",
        "pure char* p = (pure char*)array;"}) {
    const std::string src =
        std::string("pure int func(pure int* a, int idx) {\n"
                    "  return a[idx - 1] + a[idx];\n"
                    "}\n"
                    "pure int first(pure char* a, int idx) {\n"
                    "  return a[idx - 1];\n"
                    "}\n"
                    "void k(int n) {\n"
                    "  int array[100];\n  ") +
        binding +
        "\n"
        "  for (int i = 1; i < 100; i++) {\n" +
        (std::string(binding).find("char") != std::string::npos
             ? "    array[i] = first(p, 4 * i);\n"
             : "    array[i] = func(p, i);\n") +
        "  }\n"
        "}\n";
    ChainArtifacts a = run_pure_chain(src);
    ASSERT_TRUE(a.ok) << binding << "\n" << a.diagnostics.format();
    EXPECT_EQ(a.final_source.find("#pragma omp parallel for"),
              std::string::npos)
        << binding << "\n" << a.final_source;
    ASSERT_EQ(a.scops.size(), 1u) << binding;
    EXPECT_FALSE(a.scops[0].parallelized);
    EXPECT_NE(a.scops[0].failure_reason.find(
                  "local pointer 'p' may point anywhere (bound at line 9)"),
              std::string::npos)
        << binding << ": " << a.scops[0].failure_reason;
  }
}

TEST(Chain, APureCallOnFreshMemoryIsNoAlias) {
  // malloc'ed memory is its own base: writing `out` while passing `p`
  // to the pure call shares nothing, so the loop still parallelizes.
  ChainArtifacts a = run_pure_chain(
      "pure int func(pure int* a, int idx) { return a[idx]; }\n"
      "void k(int* out) {\n"
      "  int* p = malloc(400);\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    out[i] = func(p, i);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos)
      << a.final_source;
}

TEST(Chain, SystemIncludesAreRestored) {
  const std::string src = std::string("#include <stdio.h>\n") +
                          "#include <stdlib.h>\n" + testsrc::kMatmul;
  ChainArtifacts a = run_pure_chain(src);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.stripped.find("<stdio.h>"), std::string::npos);
  EXPECT_NE(a.final_source.find("#include <stdio.h>"), std::string::npos);
  EXPECT_NE(a.final_source.find("#include <stdlib.h>"), std::string::npos);
  // OpenMP header added because a loop was parallelized.
  EXPECT_NE(a.final_source.find("#include <omp.h>"), std::string::npos);
}

TEST(Chain, PreludeMacrosPresent) {
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(a.ok);
  EXPECT_NE(a.final_source.find("#define floord"), std::string::npos);
  EXPECT_NE(a.final_source.find("#define ceild"), std::string::npos);
}

TEST(Chain, MallocInitLoopGetsParallelized) {
  // §4.3.1: the allocation loop is parallelized because malloc is seeded
  // pure — the accidental speedup the paper reports.
  ChainArtifacts a = run_pure_chain(testsrc::kMatmulWithInit);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  EXPECT_NE(a.final_source.find("malloc"), std::string::npos);
}

TEST(Chain, SatelliteUsesScheduleClause) {
  ChainOptions options;
  options.schedule = {OmpScheduleKind::Dynamic, 1};
  ChainArtifacts a = run_pure_chain(testsrc::kSatellite, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find(
                "#pragma omp parallel for schedule(dynamic,1)"),
            std::string::npos);
}

TEST(Chain, GuidedScheduleRoundTripsThroughChain) {
  ChainOptions options;
  options.schedule = *ScheduleSpec::parse("guided,8");
  ChainArtifacts a = run_pure_chain(testsrc::kSatellite, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find(
                "#pragma omp parallel for schedule(guided,8)"),
            std::string::npos);
}

TEST(Chain, SicaModeEmitsSimd) {
  ChainOptions options;
  options.mode = TransformMode::PlutoSica;
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("#pragma omp simd"), std::string::npos);
}

TEST(Chain, EllAndHeatTransform) {
  for (const char* src : {testsrc::kEll, testsrc::kHeat}) {
    ChainArtifacts a = run_pure_chain(src);
    ASSERT_TRUE(a.ok) << a.diagnostics.format();
    EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
              std::string::npos)
        << a.final_source;
  }
}

TEST(Chain, ParallelizationCanBeDisabled) {
  ChainOptions options;
  options.parallelize = false;
  ChainArtifacts a = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.final_source.find("#pragma omp parallel"), std::string::npos);
}

TEST(Chain, VirtualIncludeAndDefines) {
  ChainOptions options;
  options.virtual_includes["size.h"] = "#define N 16\n";
  ChainArtifacts a = run_pure_chain(
      "#include \"size.h\"\n"
      "float* v;\n"
      "void f() { for (int i = 0; i < N; i++) v[i] = 1.0f; }\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.preprocessed.find("i < 16"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Call substitution unit behavior
// ---------------------------------------------------------------------------

struct LoopFixture {
  SourceBuffer buf;
  DiagnosticEngine diags;
  TranslationUnit tu;
  ForStmt* loop = nullptr;

  explicit LoopFixture(const std::string& src)
      : buf(SourceBuffer::from_string(src)), tu(parse(buf, diags)) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->body) continue;
      for (StmtPtr& s : fn->body->stmts) {
        if (auto* f = stmt_cast<ForStmt>(s.get())) loop = f;
      }
    }
  }
};

TEST(CallSubstitution, ReplaceAndRestoreRoundTrip) {
  LoopFixture fx(
      "pure float g(int i);\n"
      "float* v;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = g(i) + g(i + 1); }\n");
  ASSERT_NE(fx.loop, nullptr);
  const std::string before = print_c(*fx.loop);

  std::size_t counter = 0;
  std::set<std::string> pure = {"g"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].placeholder, "tmpConst_g_0");
  EXPECT_EQ(calls[1].placeholder, "tmpConst_g_1");
  const std::string substituted = print_c(*fx.loop);
  EXPECT_NE(substituted.find("tmpConst_g_0"), std::string::npos);
  EXPECT_EQ(substituted.find("g("), std::string::npos);

  const std::size_t restored = reinsert_pure_calls(*fx.loop, calls);
  EXPECT_EQ(restored, 2u);
  EXPECT_EQ(print_c(*fx.loop), before);
}

TEST(CallSubstitution, OnlyPureCallsSubstituted) {
  LoopFixture fx(
      "pure float g(int i);\n"
      "float h(int i);\n"
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = g(i) + h(i); }\n");
  std::size_t counter = 0;
  std::set<std::string> pure = {"g"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  EXPECT_EQ(calls.size(), 1u);
  const std::string text = print_c(*fx.loop);
  EXPECT_NE(text.find("h(i)"), std::string::npos);
  EXPECT_EQ(text.find("g(i)"), std::string::npos);
}

TEST(CallSubstitution, NestedCallSubstitutedAsWhole) {
  LoopFixture fx(
      "pure float g(float x);\n"
      "pure float f(float x);\n"
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = g(f(1.0f)); }\n");
  std::size_t counter = 0;
  std::set<std::string> pure = {"g", "f"};
  auto calls = substitute_pure_calls(*fx.loop, pure, counter);
  // The outer call is replaced wholesale; the inner call travels with it.
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].placeholder, "tmpConst_g_0");
}

// ---------------------------------------------------------------------------
// Region SCoPs through the whole chain
// ---------------------------------------------------------------------------

TEST(Chain, WhileLoopCanonicalizesAndParallelizes) {
  ChainArtifacts a = run_pure_chain(
      "pure float twice(float x) { return 2.0f * x; }\n"
      "float* v;\n"
      "void k(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    v[i] = twice((float)i);\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_EQ(a.canonicalized_whiles, 1u);
  // The canonicalized loop SCoP-marks like a for twin...
  EXPECT_NE(a.marked.find("#pragma scop"), std::string::npos);
  // ...and parallelizes through the classic path.
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("while"), std::string::npos);
}

TEST(Chain, GuardedRegionReinsertsCallsUnderTheirGuards) {
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "pure float shift(float x) { return x - 1.0f; }\n"
      "void k(float* a, float* b, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]);\n"
      "    else\n"
      "      b[i] = shift(x[i]);\n"
      "    c[i] = a[i + m] + b[i];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.transformed) << r.failure_reason;
  EXPECT_TRUE(r.parallelized);
  EXPECT_EQ(r.parallel_loops, 1u);
  EXPECT_EQ(r.substituted_calls, 2u);
  // Substitution hid both calls behind placeholders...
  EXPECT_NE(a.substituted.find("tmpConst_scale_"), std::string::npos);
  // ...and reinsertion put them back under their guards, with no
  // placeholder leaking.
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos);
  EXPECT_NE(a.final_source.find("shift(x[i])"), std::string::npos);
  EXPECT_NE(a.final_source.find("#pragma omp parallel for"),
            std::string::npos);
  EXPECT_NE(a.final_source.find("else"), std::string::npos);
}

TEST(Chain, RegionWithRealConflictDegradesToSerialWithReason) {
  // The two statements form a dependence cycle (a[i] reads c[i-1],
  // c[i] reads a[i]), so fission cannot separate them: the nest must
  // stay untouched and the report must say why.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "void k(float* a, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]) * c[i - 1];\n"
      "    c[i] = a[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_FALSE(a.scops[0].fissioned);
  EXPECT_NE(a.scops[0].failure_reason.find("stays serial"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
  // The undone nest keeps its original calls.
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos);
}

TEST(Chain, RegionPartialConflictFissionsIntoParallelLoops) {
  // Only a loop-independent (crossing) dependence links the two
  // statements: a[i] is produced in one statement and a[i - 1]
  // consumed in the other. Distribution puts each in its own loop and
  // both become parallel.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 3.0f * x; }\n"
      "void k(float* a, float* c, float* x, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = scale(x[i]);\n"
      "    c[i] = a[i - 1];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.transformed) << r.failure_reason;
  EXPECT_TRUE(r.parallelized);
  EXPECT_TRUE(r.fissioned);
  EXPECT_EQ(r.fission_groups, 2u);
  EXPECT_EQ(r.fission_parallel_groups, 2u);
  // Two distributed loops, each with its own pragma, and the pure
  // call reinserted under its guard.
  std::size_t first =
      a.final_source.find("#pragma omp parallel for");
  ASSERT_NE(first, std::string::npos) << a.final_source;
  EXPECT_NE(a.final_source.find("#pragma omp parallel for", first + 1),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale(x[i])"), std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos);
}

TEST(Chain, AdjacentSiblingNestsFuseIntoOneParallelLoop) {
  // Two adjacent loops with identical headers and no crossing
  // dependence: the chain fuses them before extraction, so one pragma
  // covers both statements.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 2.0f * x; }\n"
      "pure float shift(float x) { return x + 3.0f; }\n"
      "void k(float* a, float* b, float* x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = scale(x[i]);\n"
      "  for (int j = 0; j < n; j++)\n"
      "    b[j] = shift(x[j]);\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  EXPECT_EQ(r.fused_loops, 1u);
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_TRUE(a.fusion_decisions[0].fused);
  // One pragma, one loop, both calls reinserted inside it.
  std::size_t first =
      a.final_source.find("#pragma omp parallel for");
  ASSERT_NE(first, std::string::npos) << a.final_source;
  EXPECT_EQ(a.final_source.find("#pragma omp parallel for", first + 1),
            std::string::npos)
      << a.final_source;
  EXPECT_NE(a.final_source.find("scale("), std::string::npos);
  EXPECT_NE(a.final_source.find("shift("), std::string::npos);
}

TEST(Chain, CrossingDependenceBlocksFusionWithReason) {
  // The second loop reads what the first one writes at a shifted
  // index, so fusing would break the producer/consumer order. The
  // decision log must carry the rejection and both loops still
  // parallelize on their own.
  ChainArtifacts a = run_pure_chain(
      "pure float scale(float x) { return 2.0f * x; }\n"
      "void k(float* a, float* b, float* x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = scale(x[i]);\n"
      "  for (int j = 0; j < n; j++)\n"
      "    b[j] = a[j + 1];\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.fusion_decisions.size(), 1u);
  EXPECT_FALSE(a.fusion_decisions[0].fused);
  EXPECT_NE(a.fusion_decisions[0].reason.find("fusion-preventing"),
            std::string::npos)
      << a.fusion_decisions[0].reason;
  ASSERT_EQ(a.scops.size(), 2u);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_TRUE(a.scops[1].parallelized);
  EXPECT_EQ(a.scops[0].fused_loops, 0u);
}

TEST(Chain, WrittenBeforeReadScalarIsPrivatized) {
  // `t` is written before read on every iteration and dead after the
  // nest, so the pragma privatizes it instead of serializing.
  ChainArtifacts a = run_pure_chain(
      "pure float half(float x) { return 0.5f * x; }\n"
      "void k(float** out, float* in, float* w, int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  ASSERT_EQ(r.privatized.size(), 1u);
  EXPECT_EQ(r.privatized[0], "t");
  EXPECT_NE(a.final_source.find("private(t)"), std::string::npos)
      << a.final_source;
}

TEST(Chain, LiveOutScalarIsNotPrivatized) {
  // Same temp-carrying shape, but `t` is read after the nest: its
  // final value must survive, so privatization is off the table. The
  // outer loop stays serial; only the inner loop (where `t` is
  // read-only) may pick up a pragma.
  ChainArtifacts a = run_pure_chain(
      "pure float half(float x) { return 0.5f * x; }\n"
      "float k(float** out, float* in, float* w, int n, int m) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = half(in[i]);\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "  return t;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].privatized.empty());
  EXPECT_EQ(a.final_source.find("private(t)"), std::string::npos)
      << a.final_source;
  // Any pragma must sit on the inner loop, after the serial outer one.
  std::size_t outer = a.final_source.find("for (int i");
  std::size_t pragma = a.final_source.find("#pragma omp");
  ASSERT_NE(outer, std::string::npos);
  if (pragma != std::string::npos) {
    EXPECT_GT(pragma, outer);
  }
}

TEST(Chain, IteratorReadAfterNestDegradesToSerial) {
  // `i` lives outside the nest (`i = 0` for-init — the exact shape
  // while-canonicalization produces) and is read after the loop. The
  // classic path would regenerate the nest over t1 without assigning i,
  // and an annotated loop would privatize it — both lose the final
  // value — so the chain must keep the nest serial and say why.
  ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return x + 1.0f; }\n"
      "float* v; float* w;\n"
      "int k(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++)\n"
      "    w[i] = f(v[i]);\n"
      "  return i;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_NE(a.scops[0].failure_reason.find("read after"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
  // The while twin hits the same guard after canonicalization.
  ChainArtifacts b = run_pure_chain(
      "pure float f(float x) { return x + 1.0f; }\n"
      "float* v; float* w;\n"
      "int k(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    w[i] = f(v[i]);\n"
      "    i++;\n"
      "  }\n"
      "  return i;\n"
      "}\n");
  ASSERT_TRUE(b.ok) << b.diagnostics.format();
  EXPECT_EQ(b.canonicalized_whiles, 1u);
  ASSERT_EQ(b.scops.size(), 1u);
  EXPECT_FALSE(b.scops[0].transformed);
  EXPECT_EQ(b.final_source.find("#pragma omp"), std::string::npos);
}

TEST(Chain, RegionPragmaPrivatizesFunctionScopeInnerIterators) {
  // C89-style iterators: `j` lives at function scope, so the region
  // pragma must carry private(j) — otherwise threads would share one j.
  ChainArtifacts a = run_pure_chain(
      "pure float cell(float v, int j) { return v + (float)j; }\n"
      "float* s; float** g;\n"
      "void k(int n, int m) {\n"
      "  int i; int j;\n"
      "  for (i = 0; i < n; i++) {\n"
      "    s[i] = 0.0f;\n"
      "    for (j = 0; j < m; j++)\n"
      "      s[i] = s[i] + cell(g[i][j], j);\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_NE(
      a.final_source.find("#pragma omp parallel for private(j)"),
      std::string::npos)
      << a.final_source;
}

TEST(Chain, SiblingC89LoopsSharingAnIteratorBothParallelize) {
  // The classic C89 pattern: one `int i;` feeding two sibling loops.
  // The second loop's `i = 0` re-initialization kills the first nest's
  // final value before any read, so neither nest escapes — both must
  // keep their parallelization.
  ChainArtifacts a = run_pure_chain(
      "pure float id(float x) { return x; }\n"
      "float* a; float* b; float* x;\n"
      "void f(int n) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++)\n"
      "    a[i] = id(x[i]) + 1.0f;\n"
      "  for (i = 0; i < n; i++)\n"
      "    b[i] = id(x[i]) + 2.0f;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 2u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  EXPECT_TRUE(a.scops[1].parallelized) << a.scops[1].failure_reason;
}

TEST(Chain, GlobalInductionVariableKeepsNestSerial) {
  // `gi` is file-scope: another function can observe its post-loop
  // value, which the regenerated nest would never write. Must stay
  // serial even though nothing *in this function* reads gi afterwards.
  ChainArtifacts a = run_pure_chain(
      "pure float id(float x) { return x; }\n"
      "float* A; float* B; int gi;\n"
      "float f(int n) {\n"
      "  gi = 0;\n"
      "  while (gi < n) {\n"
      "    A[gi] = id(B[gi]);\n"
      "    gi += 1;\n"
      "  }\n"
      "  return 0.0f;\n"
      "}\n"
      "int reader(void) { return gi; }\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].transformed);
  EXPECT_NE(a.scops[0].failure_reason.find("lives outside the nest"),
            std::string::npos)
      << a.scops[0].failure_reason;
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
}

TEST(Chain, ImperfectNestParallelizesOuterLoopOnly) {
  ChainArtifacts a = run_pure_chain(
      "pure float cell(float v) { return v + 1.0f; }\n"
      "void k(float* s, float** g, int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s[i] = 0.0f;\n"
      "    for (int j = 0; j < m; j++)\n"
      "      s[i] = s[i] + cell(g[i][j]);\n"
      "    s[i] = s[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].region);
  EXPECT_TRUE(a.scops[0].parallelized);
  EXPECT_EQ(a.scops[0].parallel_loops, 1u);
  // Exactly one pragma, on the outer loop (the inner accumulation is
  // carried).
  const std::string needle = "#pragma omp parallel for";
  std::size_t count = 0;
  for (std::size_t pos = a.final_source.find(needle);
       pos != std::string::npos;
       pos = a.final_source.find(needle, pos + needle.size())) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << a.final_source;
}

// ---------------------------------------------------------------------------
// Reductions through the whole chain.
// ---------------------------------------------------------------------------

TEST(Chain, IntegerSumReductionParallelizesWithoutFlag) {
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* out, int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "  out[0] = s;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  ASSERT_EQ(a.scops[0].reductions.size(), 1u);
  EXPECT_EQ(a.scops[0].reductions[0], "+:s");
  EXPECT_NE(a.final_source.find("reduction(+:s)"), std::string::npos)
      << a.final_source;
}

TEST(Chain, FloatSumReductionIsGatedBehindFpReductions) {
  const std::string src =
      "void k(float* a, float* out, int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "  out[0] = s;\n"
      "}\n";
  // Default: OpenMP partials would reassociate the FP sum — demote, note.
  ChainArtifacts strict = run_pure_chain(src);
  ASSERT_TRUE(strict.ok) << strict.diagnostics.format();
  ASSERT_EQ(strict.scops.size(), 1u);
  EXPECT_FALSE(strict.scops[0].parallelized);
  EXPECT_TRUE(strict.scops[0].reductions.empty());
  ASSERT_FALSE(strict.scops[0].reduction_notes.empty());
  EXPECT_NE(strict.scops[0].reduction_notes[0].find("--fp-reductions"),
            std::string::npos);
  EXPECT_EQ(strict.final_source.find("reduction("), std::string::npos);
  // Opt-in: the same loop parallelizes.
  ChainOptions options;
  options.fp_reductions = true;
  ChainArtifacts relaxed = run_pure_chain(src, options);
  ASSERT_TRUE(relaxed.ok) << relaxed.diagnostics.format();
  EXPECT_TRUE(relaxed.scops[0].parallelized)
      << relaxed.scops[0].failure_reason;
  EXPECT_NE(relaxed.final_source.find("reduction(+:s)"),
            std::string::npos);
}

TEST(Chain, MinReductionNeedsNoFlag) {
  // min/max combine bit-exactly in any order: no reassociation concern.
  ChainArtifacts a = run_pure_chain(
      "void k(float* a, float* out, int n) {\n"
      "  float lo = a[0];\n"
      "  for (int i = 0; i < n; i++) lo = fminf(lo, a[i]);\n"
      "  out[0] = lo;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_TRUE(a.scops[0].parallelized) << a.scops[0].failure_reason;
  ASSERT_EQ(a.scops[0].reductions.size(), 1u);
  EXPECT_EQ(a.scops[0].reductions[0], "min:lo");
  // The combiner call itself must survive substitution (replacing it
  // with a tmpConst placeholder would erase the accumulator read).
  EXPECT_NE(a.final_source.find("fminf(lo"), std::string::npos)
      << a.final_source;
}

TEST(Chain, GuardedRegionReductionComposesScheduleAndPrivate) {
  // Imperfect nest + affine guard: the region path must compose the
  // triangular guided default with the reduction clause, and the
  // accumulator must never also appear in private(...) — GCC rejects
  // a variable listed in both.
  ChainArtifacts a = run_pure_chain(
      "pure int weight(int v) { return v * v + 1; }\n"
      "void k(int n, int cut, int g[64][64], int h[64], int* out) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    h[i] = g[i][0];\n"
      "    for (int j = 0; j < n; j++) {\n"
      "      if (j < i + cut) total = total + weight(g[i][j]);\n"
      "    }\n"
      "  }\n"
      "  out[0] = total;\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  const ScopReport& r = a.scops[0];
  EXPECT_TRUE(r.region);
  EXPECT_TRUE(r.parallelized) << r.failure_reason;
  ASSERT_EQ(r.reductions.size(), 1u);
  EXPECT_EQ(r.reductions[0], "+:total");
  EXPECT_NE(a.final_source.find(
                "schedule(guided,4) reduction(+:total)"),
            std::string::npos)
      << a.final_source;
  // No private clause may name the accumulator.
  for (std::size_t pos = a.final_source.find("private(");
       pos != std::string::npos;
       pos = a.final_source.find("private(", pos + 1)) {
    const std::size_t close = a.final_source.find(')', pos);
    const std::string clause = a.final_source.substr(pos, close - pos);
    EXPECT_EQ(clause.find("total"), std::string::npos) << clause;
  }
}

TEST(Chain, MixedReadAccumulationStaysSerialWithReason) {
  // Acceptance gate: `s = s + a[i]; b[i] = s;` exposes every prefix of
  // the sum — no exemption, no pragma, and the report says why.
  ChainArtifacts a = run_pure_chain(
      "void k(int* a, int* b, int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s = s + a[i];\n"
      "    b[i] = s;\n"
      "  }\n"
      "}\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  ASSERT_EQ(a.scops.size(), 1u);
  EXPECT_FALSE(a.scops[0].parallelized);
  EXPECT_TRUE(a.scops[0].reductions.empty());
  ASSERT_FALSE(a.scops[0].reduction_notes.empty());
  EXPECT_NE(a.scops[0].reduction_notes[0].find("read elsewhere"),
            std::string::npos);
  EXPECT_EQ(a.final_source.find("#pragma omp"), std::string::npos);
}

}  // namespace
}  // namespace purec
