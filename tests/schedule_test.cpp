#include <gtest/gtest.h>

#include "parser/parser.h"
#include "polyhedral/schedule.h"
#include "support/diagnostics.h"

namespace purec::poly {
namespace {

struct Analyzed {
  std::unique_ptr<TranslationUnit> tu;
  Scop scop;
  std::vector<Dependence> deps;
  Transform transform;
};

Analyzed schedule_of(const std::string& src,
                     const std::string& fn_name = "k",
                     const PureCallReads* calls = nullptr) {
  Analyzed out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  out.tu = std::make_unique<TranslationUnit>(parse(buf, diags));
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  const FunctionDecl* fn = out.tu->find_function(fn_name);
  const ForStmt* loop = nullptr;
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) {
      loop = f;
      break;
    }
  }
  ExtractionResult r = extract_scop(*loop, nullptr, calls);
  EXPECT_TRUE(r.ok()) << r.failure_reason;
  out.scop = std::move(*r.scop);
  out.deps = analyze_dependences(out.scop);
  out.transform = compute_schedule(out.scop, out.deps);
  return out;
}

TEST(Schedule, FullyParallelNestGetsIdentityFullBand) {
  auto a = schedule_of(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n");
  EXPECT_TRUE(a.transform.is_identity());
  EXPECT_EQ(a.transform.band_size, 2u);
  EXPECT_TRUE(a.transform.parallel[0]);
  EXPECT_TRUE(a.transform.parallel[1]);
  EXPECT_EQ(a.transform.outermost_parallel(), 0u);
}

TEST(Schedule, TimeStencilGetsSkewed) {
  // Fig. 2: the (1,0)/(1,1) skew makes the band fully permutable, which is
  // what legalizes rectangular tiling. The in-place (Gauss-Seidel-like)
  // update leaves no point-parallel dimension — PluTo exposes parallelism
  // here only at tile level (wavefront), which we document as out of
  // scope; what matters is that the skew is found and tiling is legal.
  auto a = schedule_of(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n");
  EXPECT_FALSE(a.transform.is_identity());
  EXPECT_EQ(a.transform.band_size, 2u);
  // Row 0 = (1, 0), row 1 = (1, 1): the classic skew.
  EXPECT_EQ(a.transform.matrix.at(0, 0), 1);
  EXPECT_EQ(a.transform.matrix.at(0, 1), 0);
  EXPECT_EQ(a.transform.matrix.at(1, 0), 1);
  EXPECT_EQ(a.transform.matrix.at(1, 1), 1);
  EXPECT_FALSE(a.transform.parallel[0]);
  EXPECT_FALSE(a.transform.parallel[1]);
}

TEST(Schedule, SkewRowsWeaklySatisfyAllDeps) {
  auto a = schedule_of(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n");
  for (std::size_t row = 0; row < 2; ++row) {
    const IntVec h = a.transform.matrix.row(row);
    for (const Dependence& dep : a.deps) {
      if (!dep.loop_carried(2)) continue;
      EXPECT_TRUE(weakly_satisfies(h, dep, 2))
          << "row " << row << " violates " << dep.to_string(a.scop);
    }
  }
}

TEST(Schedule, TimeStencilOriginalAxesAreNotPermutable) {
  // Fig. 2's invalid tiling: some carried dependence runs backwards
  // along one of the untransformed axes.
  auto a = schedule_of(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n");
  bool permutable = true;
  for (const Dependence& dep : a.deps) {
    if (!dep.loop_carried(2)) continue;
    permutable = permutable && weakly_satisfies({1, 0}, dep, 2) &&
                 weakly_satisfies({0, 1}, dep, 2);
  }
  EXPECT_FALSE(permutable);
}

TEST(Schedule, APureCallReadIsNeitherSkewedNorTiled) {
  // Fig. 2's stencil with its reads inside a pure call, as substitution
  // leaves it (§3.3). Blind to what the call reads, the model sees only
  // writes and offers a tilable band; with the reads, any element of
  // `a` may be read, which no skew makes permutable.
  const char* src =
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = tmpConst_stencil_0;\n"
      "}\n";
  const Analyzed blind = schedule_of(src);
  EXPECT_EQ(blind.transform.band_size, 2u);

  SourceBuffer buf = SourceBuffer::from_string(
      "float probe(float* a, int i) { return stencil(a, i); }\n");
  DiagnosticEngine diags;
  const TranslationUnit probe = parse(buf, diags);
  const auto* ret = stmt_cast<ReturnStmt>(
      probe.find_function("probe")->body->stmts[0].get());
  ASSERT_NE(ret, nullptr);
  PureCallReads calls;
  calls.calls.emplace("tmpConst_stencil_0", ret->value.get());
  const Analyzed a = schedule_of(src, "k", &calls);
  EXPECT_TRUE(a.transform.is_identity());
  EXPECT_LT(a.transform.band_size, 2u);
  EXPECT_FALSE(a.transform.any_parallel());
}

TEST(Schedule, InnerParallelismDetectedWithoutSkew) {
  // a[i] = a[i-1] + b[j]: carried only at level 1; level 2 parallel.
  auto a = schedule_of(
      "float** a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[i][j] = a[i - 1][j] + b[j];\n"
      "}\n");
  ASSERT_EQ(a.transform.parallel.size(), 2u);
  EXPECT_FALSE(a.transform.parallel[0]);
  EXPECT_TRUE(a.transform.parallel[1]);
}

TEST(Schedule, SequentialChainHasNoParallelDim) {
  auto a = schedule_of(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n; i++) a[i] = a[i - 1]; }\n");
  ASSERT_EQ(a.transform.parallel.size(), 1u);
  EXPECT_FALSE(a.transform.parallel[0]);
  EXPECT_FALSE(a.transform.any_parallel());
  EXPECT_EQ(a.transform.outermost_parallel(), Transform::npos);
}

TEST(Schedule, MatmulKeepsOuterTwoParallel) {
  auto a = schedule_of(
      "float** A; float** B; float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      for (int kk = 0; kk < n; kk++)\n"
      "        C[i][j] += A[i][kk] * B[kk][j];\n"
      "}\n");
  EXPECT_TRUE(a.transform.parallel[0]);
  EXPECT_TRUE(a.transform.parallel[1]);
  EXPECT_FALSE(a.transform.parallel[2]);
  // All three dimensions weakly satisfy everything (reduction is
  // forward-only): full band, tilable.
  EXPECT_EQ(a.transform.band_size, 3u);
}

TEST(Schedule, TransformIsAlwaysUnimodular) {
  for (const char* src : {
           "float* a;\n"
           "void k(int n) { for (int i = 1; i < n; i++) a[i] = a[i-1]; }\n",
           "float** C;\n"
           "void k(int n) {\n"
           "  for (int i = 0; i < n; i++)\n"
           "    for (int j = 0; j < n; j++) C[i][j] = 0.0f;\n"
           "}\n",
           "void k(float* a, int steps, int n) {\n"
           "  for (int t = 0; t < steps; t++)\n"
           "    for (int i = 1; i < n - 1; i++)\n"
           "      a[i] = a[i - 1] + a[i + 1];\n"
           "}\n",
       }) {
    auto a = schedule_of(src);
    const std::int64_t det = a.transform.matrix.determinant();
    EXPECT_TRUE(det == 1 || det == -1) << src;
  }
}

TEST(Schedule, StrongSatisfactionQuery) {
  auto a = schedule_of(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n; i++) a[i] = a[i - 1]; }\n");
  ASSERT_FALSE(a.deps.empty());
  const Dependence* carried = nullptr;
  for (const Dependence& d : a.deps) {
    if (d.loop_carried(1)) carried = &d;
  }
  ASSERT_NE(carried, nullptr);
  EXPECT_TRUE(strongly_satisfies({1}, *carried, 1));
  EXPECT_TRUE(weakly_satisfies({1}, *carried, 1));
  EXPECT_FALSE(weakly_satisfies({-1}, *carried, 1));
}

}  // namespace
}  // namespace purec::poly
