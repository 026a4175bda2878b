// Failure injection: the chain must degrade gracefully — bad input stops
// with diagnostics, pathological-but-legal input is left untransformed,
// and nothing crashes or miscompiles.
#include <gtest/gtest.h>

#include "transform/pure_chain.h"

namespace purec {
namespace {

TEST(Robustness, EmptyInput) {
  ChainArtifacts a = run_pure_chain("");
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(a.scops.empty());
}

TEST(Robustness, GarbageInputReportsParserErrors) {
  ChainArtifacts a = run_pure_chain("this is not C at all !!!");
  EXPECT_FALSE(a.ok);
  EXPECT_GT(a.diagnostics.error_count(), 0u);
}

TEST(Robustness, StrayClosingBracesReportedNotHung) {
  // Recovery stops before a depth-0 `}`; the top level must still consume
  // it, or the parser retries the same token forever.
  for (const char* source : {"}", "}}", "int x; }\nint y;"}) {
    SCOPED_TRACE(source);
    ChainArtifacts a = run_pure_chain(source);
    EXPECT_FALSE(a.ok);
    EXPECT_GT(a.diagnostics.error_count(), 0u);
  }
}

TEST(Robustness, UnterminatedCommentReported) {
  ChainArtifacts a = run_pure_chain("int x; /* never closed");
  EXPECT_FALSE(a.ok);
  EXPECT_TRUE(a.diagnostics.has_error_containing("unterminated"));
}

TEST(Robustness, HugeBoundsDoNotCrash) {
  // Bound magnitudes that overflow the exact analysis: the chain must
  // leave the loop alone (reported as overflow), not crash or emit wrong
  // code.
  ChainArtifacts a = run_pure_chain(
      "float* v;\n"
      "void k() {\n"
      "  for (int i = 0; i < 4611686018427387904; i++)\n"
      "    v[4611686018427387903 * i] = 0.0f;\n"
      "}\n");
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  for (const ScopReport& r : a.scops) {
    EXPECT_FALSE(r.transformed);
  }
}

TEST(Robustness, DeepNestIsRejectedNotCrashed) {
  ChainArtifacts a = run_pure_chain(
      "float* v;\n"
      "void k(int n) {\n"
      "  for (int a = 0; a < n; a++)\n"
      "   for (int b = 0; b < n; b++)\n"
      "    for (int c = 0; c < n; c++)\n"
      "     for (int d = 0; d < n; d++)\n"
      "      for (int e = 0; e < n; e++)\n"
      "       v[a + b + c + d + e] = 0.0f;\n"
      "}\n");
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  for (const ScopReport& r : a.scops) {
    EXPECT_FALSE(r.transformed);
    EXPECT_NE(r.failure_reason.find("deeper"), std::string::npos);
  }
}

TEST(Robustness, UntransformableLoopSurvivesVerbatim) {
  // Indirect addressing directly in the loop (not hidden in a pure
  // function): extraction fails, the loop must appear unchanged in the
  // final output, with the call reinserted.
  ChainArtifacts a = run_pure_chain(
      "pure float get(pure float* x, int i) { return x[i]; }\n"
      "float* v; int* idx; float* x;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    v[idx[i]] = get((pure float*)x, i);\n"
      "}\n");
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("v[idx[i]] = get("), std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos);
}

TEST(Robustness, NonAffineConditionLoopLeftAlone) {
  ChainArtifacts a = run_pure_chain(
      "float* v;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n * n; i++)\n"
      "    v[i] = 1.0f;\n"
      "}\n");
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
  EXPECT_NE(a.final_source.find("i < n * n"), std::string::npos);
}

TEST(Robustness, ZeroTileSizeDisablesTiling) {
  ChainOptions options;
  options.tile_size = 0;
  ChainArtifacts a = run_pure_chain(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  // No floord/tile loops in the code after the helper-macro prelude.
  const std::size_t after_prelude = a.final_source.find("#endif");
  ASSERT_NE(after_prelude, std::string::npos);
  EXPECT_EQ(a.final_source.find("floord", after_prelude), std::string::npos);
  for (const ScopReport& r : a.scops) EXPECT_FALSE(r.tiled);
}

TEST(Robustness, MultipleScopsInOneFile) {
  ChainArtifacts a = run_pure_chain(
      "float* v; float* w; float** M;\n"
      "void k1(int n) { for (int i = 0; i < n; i++) v[i] = 1.0f; }\n"
      "void k2(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      M[i][j] = 2.0f;\n"
      "}\n"
      "void k3(int n) { for (int i = 0; i < n; i++) w[i] = v[i]; }\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  std::size_t transformed = 0;
  for (const ScopReport& r : a.scops) {
    if (r.transformed) ++transformed;
  }
  EXPECT_EQ(transformed, 3u);
}

TEST(Robustness, PlaceholderCountersUniqueAcrossScops) {
  ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return x; }\n"
      "float* v; float* w;\n"
      "void k1(int n) { for (int i = 0; i < n; i++) v[i] = f(1.0f); }\n"
      "void k2(int n) { for (int i = 0; i < n; i++) w[i] = f(2.0f); }\n");
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  // Two distinct placeholders in the substituted artifact.
  EXPECT_NE(a.substituted.find("tmpConst_f_0"), std::string::npos);
  EXPECT_NE(a.substituted.find("tmpConst_f_1"), std::string::npos);
  // All placeholders resolved in the final source.
  EXPECT_EQ(a.final_source.find("tmpConst_"), std::string::npos);
}

TEST(Robustness, ChainIsDeterministic) {
  const char* src =
      "pure float f(float x) { return x * 2.0f; }\n"
      "float* v;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = f(1.0f); }\n";
  ChainArtifacts a = run_pure_chain(src);
  ChainArtifacts b = run_pure_chain(src);
  EXPECT_EQ(a.final_source, b.final_source);
  EXPECT_EQ(a.marked, b.marked);
  EXPECT_EQ(a.substituted, b.substituted);
}

TEST(Robustness, ReusedSourceNamesNoCollision) {
  // A user variable named like a generated iterator must not collide.
  ChainArtifacts a = run_pure_chain(
      "float* v; int t1;\n"
      "void k(int n) { for (int i = 0; i < n; i++) v[i] = 0.0f; }\n");
  EXPECT_TRUE(a.ok) << a.diagnostics.format();
}


TEST(GccAttributes, AnnotatesAllocationFreePureFunctions) {
  ChainOptions options;
  options.emit_gcc_attributes = true;
  ChainArtifacts a = run_pure_chain(
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure int* mk(int n) { int* p = (int*)malloc(n); return p; }\n"
      "float* v;\n"
      "void k(int n)\n"
      "{ for (int i = 0; i < n; i++) v[i] = mult(1.0f, 2.0f); }\n",
      options);
  ASSERT_TRUE(a.ok) << a.diagnostics.format();
  // mult: allocation-free -> annotated. mk: calls malloc -> NOT annotated
  // (GCC's pure contract forbids observable state changes).
  EXPECT_NE(a.final_source.find("__attribute__((pure)) float mult"),
            std::string::npos)
      << a.final_source;
  EXPECT_EQ(a.final_source.find("__attribute__((pure)) int* mk"),
            std::string::npos)
      << a.final_source;
}

TEST(GccAttributes, OffByDefault) {
  ChainArtifacts a = run_pure_chain(
      "pure float f(float x) { return x; }\n");
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.final_source.find("__attribute__"), std::string::npos);
}

}  // namespace
}  // namespace purec
