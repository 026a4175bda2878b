#include <gtest/gtest.h>

#include "parser/parser.h"
#include "polyhedral/model.h"
#include "support/diagnostics.h"
#include "transform/loop_canon.h"

namespace purec::poly {
namespace {

/// Parses `src` and extracts the scop of the first for-loop in `fn_name`.
ExtractionResult extract_from(const std::string& src,
                              const std::string& fn_name,
                              const PointerTargets* pointers = nullptr) {
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  const FunctionDecl* fn = tu.find_function(fn_name);
  EXPECT_NE(fn, nullptr);
  const ForStmt* loop = nullptr;
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) {
      loop = f;
      break;
    }
  }
  EXPECT_NE(loop, nullptr);
  static std::vector<std::unique_ptr<TranslationUnit>> keep_alive;
  keep_alive.push_back(std::make_unique<TranslationUnit>(std::move(tu)));
  return extract_scop(*loop, pointers);
}

TEST(ScopExtraction, AnUnresolvedLocalPointerKeepsTheNestOut) {
  const PointerTargets pointers = {
      {"p", {{"a", "b"}, std::nullopt, 2}}};
  auto r = extract_from(
      "void k(int* a, int* b, int n) {\n"
      "  int* p = a;\n"
      "  if (n) p = b;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i] = a[i];\n"
      "}\n",
      "k", &pointers);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure_reason,
            "access through local pointer 'p', which may point into 'a' or "
            "'b' (bound at line 2)");
  EXPECT_EQ(r.failure_loc.line, 5u);
}

TEST(ScopExtraction, APureCallOnAnUnresolvedLocalPointerKeepsTheNestOut) {
  const char* src =
      "void k(int* a, int n) {\n"
      "  int* p = a;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    a[i] = tmpConst_f_0;\n"
      "}\n"
      "int probe(int* p, int i) { return f(p, i); }\n";
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  const TranslationUnit tu = parse(buf, diags);
  const auto* ret =
      stmt_cast<ReturnStmt>(tu.find_function("probe")->body->stmts[0].get());
  ASSERT_NE(ret, nullptr);
  PureCallReads calls;
  calls.calls.emplace("tmpConst_f_0", ret->value.get());
  const PointerTargets pointers = {{"p", {{}, std::nullopt, 2}}};
  ExtractionResult r = extract_scop(
      *stmt_cast<ForStmt>(tu.find_function("k")->body->stmts[1].get()),
      &pointers, &calls);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure_reason,
            "local pointer 'p' may point anywhere (bound at line 2), and "
            "pure function 'f' reads through it");
  EXPECT_EQ(r.failure_loc.line, 4u);
}

TEST(ScopExtraction, APointerIndexedAtAnotherRankThanItsBaseIsRejected) {
  const PointerTargets pointers = {{"p", {{"a"}, 0, 2}}};
  auto r = extract_from(
      "void k(float** a, int n) {\n"
      "  float** p = a;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    p[i][0] = a[i + 1];\n"
      "}\n",
      "k", &pointers);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("different ranks"), std::string::npos)
      << r.failure_reason;
}

TEST(ScopExtraction, RectangularNest) {
  auto r = extract_from(
      "float** C;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < m; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Scop& scop = *r.scop;
  EXPECT_EQ(scop.iterators, (std::vector<std::string>{"i", "j"}));
  EXPECT_EQ(scop.parameters, (std::vector<std::string>{"n", "m"}));
  ASSERT_EQ(scop.statements.size(), 1u);
  ASSERT_EQ(scop.statements[0].accesses.size(), 1u);
  const Access& w = scop.statements[0].accesses[0];
  EXPECT_EQ(w.kind, AccessKind::Write);
  EXPECT_EQ(w.array, "C");
  ASSERT_EQ(w.subscripts.size(), 2u);
  EXPECT_EQ(w.subscripts[0].coeffs[0], 1);  // i
  EXPECT_EQ(w.subscripts[1].coeffs[1], 1);  // j
}

TEST(ScopExtraction, InclusiveBound) {
  auto r = extract_from(
      "float* v;\n"
      "void k(int n) { for (int i = 0; i <= n; i++) v[i] = 1.0f; }\n", "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // Domain must contain i == n: check via emptiness of {i == n}.
  ConstraintSystem sys = r.scop->domain;
  sys.add_equality({1, -1}, 0);  // i - n == 0
  EXPECT_FALSE(sys.is_empty());
}

TEST(ScopExtraction, AffineBoundsWithOffsets) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n - 1; i++) a[i] = a[i]; }\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // i == 0 must be outside the domain.
  ConstraintSystem sys = r.scop->domain;
  sys.add_equality({1, 0}, 0);  // i == 0
  EXPECT_TRUE(sys.is_empty());
}

TEST(ScopExtraction, TriangularDomain) {
  auto r = extract_from(
      "float** L;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j <= i; j++)\n"
      "      L[i][j] = 1.0f;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // (i=0, j=1) outside the triangle.
  ConstraintSystem sys = r.scop->domain;
  sys.add_equality({1, 0, 0}, 0);
  sys.add_equality({0, 1, 0}, -1);
  EXPECT_TRUE(sys.is_empty());
}

TEST(ScopExtraction, ReadsAndWritesClassified) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n)\n"
      "{ for (int i = 1; i < n; i++) a[i] = b[i - 1] + a[i]; }\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const auto& accs = r.scop->statements[0].accesses;
  std::size_t writes = 0;
  std::size_t reads = 0;
  for (const Access& a : accs) {
    (a.kind == AccessKind::Write ? writes : reads)++;
  }
  EXPECT_EQ(writes, 1u);
  EXPECT_EQ(reads, 2u);
  // b[i-1] subscript has constant -1.
  bool found = false;
  for (const Access& a : accs) {
    if (a.array == "b") {
      ASSERT_EQ(a.subscripts.size(), 1u);
      EXPECT_EQ(a.subscripts[0].constant, -1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScopExtraction, SubstitutedPlaceholderIsParameterRead) {
  // `tmpConst_dot_0` (post-substitution shape) must be treated as a
  // constant, not as scalar memory that carries dependences.
  auto r = extract_from(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = tmpConst_dot_0;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements[0].accesses.size(), 1u);  // only the write
}

TEST(ScopExtraction, MultiStatementBody) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    a[i] = 1.0f;\n"
      "    b[i] = a[i];\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements.size(), 2u);
  EXPECT_EQ(r.scop->statements[0].position, 0u);
  EXPECT_EQ(r.scop->statements[1].position, 1u);
}

TEST(ScopExtraction, CompoundAssignAddsReadOfTarget) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[i] += 1.0f; }\n", "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const auto& accs = r.scop->statements[0].accesses;
  ASSERT_EQ(accs.size(), 2u);
  EXPECT_EQ(accs[0].kind, AccessKind::Write);
  EXPECT_EQ(accs[1].kind, AccessKind::Read);
}

TEST(ScopExtraction, LinearizedSubscript) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[i * 64 + j] = 0.0f;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Access& w = r.scop->statements[0].accesses[0];
  ASSERT_EQ(w.subscripts.size(), 1u);
  EXPECT_EQ(w.subscripts[0].coeffs[0], 64);
  EXPECT_EQ(w.subscripts[0].coeffs[1], 1);
}

// --- Rejections ------------------------------------------------------------

TEST(ScopExtraction, NormalizesNonUnitStep) {
  // i += 2 from lower bound 1: the domain variable counts trips (t >= 0,
  // 2t <= n - 2) and the access rewrites to a[2t + 1].
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n; i += 2) a[i] = 0.0f; }\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->strides.size(), 1u);
  EXPECT_EQ(r.scop->strides[0], 2);
  EXPECT_EQ(r.scop->origins[0].constant, 1);
  ASSERT_EQ(r.scop->statements.size(), 1u);
  const Access& write = r.scop->statements[0].accesses[0];
  ASSERT_EQ(write.subscripts.size(), 1u);
  EXPECT_EQ(write.subscripts[0].coeffs[0], 2);
  EXPECT_EQ(write.subscripts[0].constant, 1);
}

TEST(ScopExtraction, RejectsNonConstantStep) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n; i += n) a[i] = 0.0f; }\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("increment"), std::string::npos);
}

TEST(ScopExtraction, RejectsNegativeStep) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = n; i < n; i -= 2) a[i] = 0.0f; }\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("increment"), std::string::npos);
}

TEST(ScopExtraction, StridedLowerBoundOnOuterIteratorIsRegionShaped) {
  // j = i with a non-unit stride normalizes to the trip-count variable
  // t with j = i + 2t. The classic code generator cannot fold that
  // origin back, so the scop is region-shaped (annotate, don't
  // regenerate) — but the domain and accesses are exact.
  auto r = extract_from(
      "float** a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = i; j < n; j += 2) a[i][j] = 0.0f;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Scop& scop = *r.scop;
  EXPECT_TRUE(scop.region_shaped);
  ASSERT_EQ(scop.strides.size(), 2u);
  EXPECT_EQ(scop.strides[1], 2);
  // Origin of level 1 is `i` (coefficient 1 on iterator 0).
  ASSERT_GE(scop.origins[1].coeffs.size(), 1u);
  EXPECT_EQ(scop.origins[1].coeffs[0], 1);
  // The write subscript on the j dimension reads i + 2t.
  ASSERT_EQ(scop.statements.size(), 1u);
  const Access& w = scop.statements[0].accesses[0];
  ASSERT_EQ(w.subscripts.size(), 2u);
  EXPECT_EQ(w.subscripts[1].coeffs[0], 1);  // i
  EXPECT_EQ(w.subscripts[1].coeffs[1], 2);  // 2t
}

TEST(ScopExtraction, RejectsNonAffineSubscript) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[i * i] = 0.0f; }\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("non-affine"), std::string::npos);
}

TEST(ScopExtraction, RejectsIndirectAddressing) {
  auto r = extract_from(
      "float* a; int* idx;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[idx[i]] = 0.0f; }\n",
      "k");
  EXPECT_FALSE(r.ok());
}

TEST(ScopExtraction, RejectsRemainingCall) {
  auto r = extract_from(
      "float* a; float f(int i);\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[i] = f(i); }\n", "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("call"), std::string::npos);
}

TEST(ScopExtraction, RejectsNonAffineBound) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n * n; i++) a[i] = 0.0f; }\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("bound"), std::string::npos);
}

TEST(ScopExtraction, RejectsDecrementLoop) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) { for (int i = n; i > 0; i--) a[i] = 0.0f; }\n", "k");
  EXPECT_FALSE(r.ok());
}

// --- Region extraction -----------------------------------------------------

TEST(RegionExtraction, GuardConstrainsStatementDomain) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = 1.0f;\n"
      "    b[i] = 2.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Scop& scop = *r.scop;
  EXPECT_TRUE(scop.region_shaped);
  ASSERT_EQ(scop.statements.size(), 2u);
  EXPECT_TRUE(scop.statements[0].guarded);
  EXPECT_FALSE(scop.statements[1].guarded);
  // Space is [i, n, m]. The guarded statement's domain must exclude
  // i == m (the guard is i < m)...
  ConstraintSystem guarded = scop.statements[0].domain;
  guarded.add_equality({1, 0, -1}, 0);  // i - m == 0
  EXPECT_TRUE(guarded.is_empty());
  // ...while the unguarded statement still admits it.
  ConstraintSystem unguarded = scop.statements[1].domain;
  unguarded.add_equality({1, 0, -1}, 0);
  unguarded.add_inequality({0, 1, -1}, -1);  // n - m - 1 >= 0 (i=m valid)
  EXPECT_FALSE(unguarded.is_empty());
}

TEST(RegionExtraction, ElseBranchGetsNegatedHalfSpace) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = 1.0f;\n"
      "    else\n"
      "      b[i] = 2.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Scop& scop = *r.scop;
  ASSERT_EQ(scop.statements.size(), 2u);
  // Else statement: i >= m. Adding i < m must make it empty.
  ConstraintSystem else_domain = scop.statements[1].domain;
  else_domain.add_inequality({-1, 0, 1}, -1);  // m - i - 1 >= 0
  EXPECT_TRUE(else_domain.is_empty());
}

TEST(RegionExtraction, NotEqualGuardSplitsThenIntoTwoDisjuncts) {
  // A statement under the *then* of `!=` needs the disjunction i < m or
  // i > m: the extractor now emits one statement copy per disjunct
  // (sharing the source ast — codegen keeps the original `if`), each
  // with a convex domain.
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i != m)\n"
      "      a[i] = 1.0f;\n"
      "    b[i] = 2.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements.size(), 3u);
  EXPECT_EQ(r.scop->statements[0].ast, r.scop->statements[1].ast);
  EXPECT_EQ(r.scop->statements[0].position, r.scop->statements[1].position);
  EXPECT_NE(r.scop->statements[0].ast, r.scop->statements[2].ast);
  // First copy: i < m (i == m empties it, i < m admits points)...
  ConstraintSystem low = r.scop->statements[0].domain;
  low.add_equality({1, 0, -1}, 0);  // i - m == 0
  EXPECT_TRUE(low.is_empty());
  // ...second copy: i > m. The two copies are pairwise disjoint: asking
  // the second for a point with i <= m must fail.
  ConstraintSystem high = r.scop->statements[1].domain;
  high.add_inequality({-1, 0, 1}, 0);  // m - i >= 0
  EXPECT_TRUE(high.is_empty());

  // The *else* of `!=` is the affine equality i == m.
  auto ok = extract_from(
      "float* a; float* b;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i != m)\n"
      "      ;\n"
      "    else\n"
      "      b[i] = 2.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(ok.ok()) << ok.failure_reason;
  ASSERT_EQ(ok.scop->statements.size(), 1u);
  // The else domain pins i == m: i <= m - 1 makes it empty...
  ConstraintSystem else_low = ok.scop->statements[0].domain;
  else_low.add_inequality({-1, 0, 1}, -1);  // m - i - 1 >= 0
  EXPECT_TRUE(else_low.is_empty());
  // ...and so does i >= m + 1.
  ConstraintSystem else_high = ok.scop->statements[0].domain;
  else_high.add_inequality({1, 0, -1}, -1);  // i - m - 1 >= 0
  EXPECT_TRUE(else_high.is_empty());
}

TEST(RegionExtraction, DisjunctiveOrGuardSplitsIntoUnionOfDomains) {
  // `i < m || i > m + 4`: two convex disjuncts, one statement copy each,
  // plus the else statement covering the gap [m, m+4].
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m || i > m + 4)\n"
      "      a[i] = 1.0f;\n"
      "    else\n"
      "      b[i] = 2.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements.size(), 3u);
  EXPECT_EQ(r.scop->statements[0].ast, r.scop->statements[1].ast);
  // Copy 0 admits only i < m...
  ConstraintSystem c0 = r.scop->statements[0].domain;
  c0.add_inequality({1, 0, -1}, 0);  // i - m >= 0
  EXPECT_TRUE(c0.is_empty());
  // ...copy 1 only i > m + 4...
  ConstraintSystem c1 = r.scop->statements[1].domain;
  c1.add_inequality({-1, 0, 1}, 4);  // m + 4 - i >= 0
  EXPECT_TRUE(c1.is_empty());
  // ...and the else statement exactly the negation: m <= i <= m + 4.
  ConstraintSystem e_low = r.scop->statements[2].domain;
  e_low.add_inequality({-1, 0, 1}, -1);  // m - i - 1 >= 0 (i < m)
  EXPECT_TRUE(e_low.is_empty());
  ConstraintSystem e_high = r.scop->statements[2].domain;
  e_high.add_inequality({1, 0, -1}, -5);  // i - m - 5 >= 0 (i > m + 4)
  EXPECT_TRUE(e_high.is_empty());
}

TEST(RegionExtraction, GuardDisjunctCountIsCapped) {
  // Each `!=` doubles the disjunct count; three of them want 8 > 4
  // disjuncts, which the cap rejects with a located reason (quadratic
  // dependence-analysis cost).
  auto r = extract_from(
      "float* a;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i != m && i != m + 2 && i != m + 4)\n"
      "      a[i] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("more than"), std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, NegatedConjunctionLowersToDisjunctionOfNegations) {
  // `!(i >= 2 && i < m)` = i < 2 or i >= m: two copies.
  auto r = extract_from(
      "float* a;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (!(i >= 2 && i < m))\n"
      "      a[i] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements.size(), 2u);
  // Copy 0: i < 2.
  ConstraintSystem c0 = r.scop->statements[0].domain;
  c0.add_inequality({1, 0, 0}, -2);  // i - 2 >= 0
  EXPECT_TRUE(c0.is_empty());
  // Copy 1: i >= m.
  ConstraintSystem c1 = r.scop->statements[1].domain;
  c1.add_inequality({-1, 0, 1}, -1);  // m - i - 1 >= 0
  EXPECT_TRUE(c1.is_empty());
}

TEST(RegionExtraction, CompoundGuardFoldsAsConjunction) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i >= 2 && i < m)\n"
      "      a[i] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ConstraintSystem domain = r.scop->statements[0].domain;
  domain.add_equality({1, 0, 0}, -1);  // i == 1 violates i >= 2
  EXPECT_TRUE(domain.is_empty());
}

TEST(RegionExtraction, MinStyleLoopBoundFoldsIntoDomain) {
  // i < n && i < m: both upper bounds constrain the (classic) domain.
  auto r = extract_from(
      "float* a;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n && i < m; i++)\n"
      "    a[i] = 1.0f;\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_FALSE(r.scop->region_shaped);  // still a perfect band
  ConstraintSystem domain = r.scop->domain;
  // i == m is out even when m < n.
  domain.add_equality({1, 0, -1}, 0);   // i - m == 0
  EXPECT_TRUE(domain.is_empty());
}

TEST(RegionExtraction, SiblingLoopsEachGetTheirOwnIterator) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[j] = a[j] + 1.0f;\n"
      "    for (int j = 0; j < n; j++)\n"
      "      b[j] = b[j] + 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const Scop& scop = *r.scop;
  EXPECT_TRUE(scop.region_shaped);
  EXPECT_EQ(scop.iterators,
            (std::vector<std::string>{"i", "j", "j"}));
  EXPECT_EQ(scop.loop_parents,
            (std::vector<std::size_t>{Scop::npos, 0, 0}));
  ASSERT_EQ(scop.statements.size(), 2u);
  EXPECT_EQ(scop.statements[0].loops, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(scop.statements[1].loops, (std::vector<std::size_t>{0, 2}));
}

TEST(RegionExtraction, RejectsSiblingIteratorEscapingItsLoop) {
  // Reading j after its loop would see the final value — not affine.
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    for (int j = 0; j < n; j++)\n"
      "      a[j] = 1.0f;\n"
      "    b[i] = a[j];\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("outside its loop"), std::string::npos);
}

TEST(RegionExtraction, RejectsWrittenScalarInGuard) {
  // `t` is assigned in the region (under a guard that empties its own
  // carried dependence), so reading it in another guard as if it were a
  // loop-invariant parameter would hide the flow dependence entirely.
  auto r = extract_from(
      "float* a; float* x; int t;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i == 0)\n"
      "      t = 7;\n"
      "    if (t < 5)\n"
      "      a[i] = x[i];\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("written in the region"),
            std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, RejectsWrittenScalarInBound) {
  auto r = extract_from(
      "float* a; int k2;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i == 0)\n"
      "      k2 = 4;\n"
      "    for (int j = 0; j < k2; j++)\n"
      "      a[j] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("written in the region"),
            std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, RejectsWrittenScalarInSubscript) {
  auto r = extract_from(
      "float* a; int off;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i == 0)\n"
      "      off = 3;\n"
      "    a[i + off] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("written in the region"),
            std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, RejectsIteratorWrittenInBody) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      i = 0;\n"
      "    a[i] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("written inside the body"),
            std::string::npos)
      << r.failure_reason;
}

TEST(WhileCanon, NestedDeclInitWhilesBecomeAPerfectNest) {
  // The inner `int j = 0;` declaration folds into the for header (j is
  // not read after its loop), so the canonicalized nest has no
  // declaration statement left in the body and extracts classically.
  const std::string src =
      "float** w; float** r;\n"
      "void k(int n, int m) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    int j = 0;\n"
      "    while (j < m) {\n"
      "      w[i][j] = r[i][j];\n"
      "      j = j + 1;\n"
      "    }\n"
      "    i = i + 1;\n"
      "  }\n"
      "}\n";
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.format(&buf);
  EXPECT_EQ(canonicalize_while_loops(tu), 2u);
  const FunctionDecl* fn = tu.find_function("k");
  const ForStmt* loop = nullptr;
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) loop = f;
  }
  ASSERT_NE(loop, nullptr);
  ExtractionResult r = extract_scop(*loop);
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  EXPECT_FALSE(r.scop->region_shaped);  // perfect band after rewriting
  EXPECT_EQ(r.scop->depth(), 2u);
}

TEST(WhileCanon, DeclStaysOutsideWhenVariableReadAfterLoop) {
  const std::string src =
      "float* v;\n"
      "int k(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    v[i] = 0.0f;\n"
      "    i++;\n"
      "  }\n"
      "  return i;\n"
      "}\n";
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(canonicalize_while_loops(tu), 1u);
  const FunctionDecl* fn = tu.find_function("k");
  // The declaration must survive in the outer scope so `return i` still
  // sees the variable.
  bool decl_outside = false;
  for (const StmtPtr& s : fn->body->stmts) {
    const auto* decl = stmt_cast<DeclStmt>(s.get());
    if (decl != nullptr && decl->decls.size() == 1 &&
        decl->decls[0].name == "i" && !decl->decls[0].init) {
      decl_outside = true;
    }
  }
  EXPECT_TRUE(decl_outside);
}

TEST(RegionExtraction, RejectsSelfReferencingLowerBound) {
  // `for (j = j; j < n; j += 2)`: the incoming value of j is invisible
  // to the model, and the strided normalization would conflate the
  // origin with the loop's own dimension (hiding a distance-1
  // recurrence behind j -> 3t).
  auto r = extract_from(
      "float* a;\n"
      "void k(int j, int n) {\n"
      "  for (j = j; j < n; j += 2)\n"
      "    a[j] = a[j - 2];\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("references the iterator itself"),
            std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, GuardCannotSeeIteratorOfLoopBelowIt) {
  // The guard reads j from the enclosing scope (its stale post-loop
  // value), not the inner loop's iterator — modeling it as the iterator
  // would fabricate the constraint j == i and empty every dependence.
  auto r = extract_from(
      "float* A; float* B;\n"
      "void k(int n) {\n"
      "  int j = 0;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (j == i) {\n"
      "      for (j = 0; j < n; j++)\n"
      "        A[j] = B[j];\n"
      "    }\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("outside its loop"), std::string::npos)
      << r.failure_reason;
}

TEST(RegionExtraction, RejectsDataDependentGuardWithReason) {
  auto r = extract_from(
      "float* a; float* x;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (x[i] > 0.5f)\n"
      "      a[i] = 1.0f;\n"
      "  }\n"
      "}\n",
      "k");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure_reason.find("guard"), std::string::npos);
}

// --- While canonicalization matrix -----------------------------------------

struct WhileCase {
  const char* name;
  const char* body;      // function body text
  bool canonicalizes;
};

class WhileCanonMatrix : public ::testing::TestWithParam<WhileCase> {};

TEST_P(WhileCanonMatrix, MatchesExpectation) {
  const WhileCase& c = GetParam();
  const std::string src =
      "float* v; float* w;\nvoid k(int n) {\n" + std::string(c.body) +
      "\n}\n";
  SourceBuffer buf = SourceBuffer::from_string(src);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.format(&buf);
  const std::size_t count = canonicalize_while_loops(tu);
  if (!c.canonicalizes) {
    EXPECT_EQ(count, 0u) << src;
    return;
  }
  ASSERT_EQ(count, 1u) << src;
  // The rewritten loop must extract as a plain affine scop.
  const FunctionDecl* fn = tu.find_function("k");
  const ForStmt* loop = nullptr;
  for (const StmtPtr& s : fn->body->stmts) {
    if (const auto* f = stmt_cast<ForStmt>(s.get())) {
      loop = f;
      break;
    }
  }
  ASSERT_NE(loop, nullptr) << src;
  ExtractionResult r = extract_scop(*loop);
  EXPECT_TRUE(r.ok()) << r.failure_reason << "\n" << src;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WhileCanonMatrix,
    ::testing::Values(
        WhileCase{"decl_init_postinc",
                  "  int i = 0;\n  while (i < n) { v[i] = 0.0f; i++; }",
                  true},
        WhileCase{"assign_init_preinc",
                  "  int i;\n  i = 1;\n"
                  "  while (i < n) { v[i] = 0.0f; ++i; }",
                  true},
        WhileCase{"add_assign_stride2",
                  "  int i = 0;\n  while (i < n) { v[i] = 0.0f; i += 2; }",
                  true},
        WhileCase{"i_equals_i_plus_one",
                  "  int i = 0;\n"
                  "  while (i < n) { v[i] = 0.0f; i = i + 1; }",
                  true},
        WhileCase{"inclusive_bound",
                  "  int i = 0;\n  while (i <= n) { v[i] = 0.0f; i++; }",
                  true},
        WhileCase{"no_init_before",
                  "  int i = 0;\n  v[0] = 1.0f;\n"
                  "  while (i < n) { v[i] = 0.0f; i++; }",
                  false},
        WhileCase{"continue_binds_to_while",
                  "  int i = 0;\n"
                  "  while (i < n) { if (i > 2) continue; v[i] = 0.0f;"
                  " i++; }",
                  false},
        WhileCase{"iterator_written_twice",
                  "  int i = 0;\n"
                  "  while (i < n) { i = i + 1; v[i] = 0.0f; i++; }",
                  false},
        WhileCase{"increment_not_last",
                  "  int i = 0;\n"
                  "  while (i < n) { i++; v[i] = 0.0f; }",
                  false},
        WhileCase{"cond_ignores_iterator",
                  "  int i = 0;\n  while (n > 0) { v[i] = 0.0f; i++; }",
                  false},
        WhileCase{"address_taken",
                  "  int i = 0;\n"
                  "  while (i < n) { v[i] = (float)(&i != 0); i++; }",
                  false}),
    [](const ::testing::TestParamInfo<WhileCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Reduction recognition: scalar accumulations must extract with the
// operator and accumulator recorded instead of being mis-serialized.
// ---------------------------------------------------------------------------

struct ReductionShape {
  const char* name;
  const char* body;  // one loop-body statement over float s and a[i]
  ReductionOp op;    // expected; None = shape must NOT be recognized
};

class ReductionShapeMatrix
    : public ::testing::TestWithParam<ReductionShape> {};

TEST_P(ReductionShapeMatrix, RecognizesExactlyTheAssociativeShapes) {
  const ReductionShape& c = GetParam();
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 1.0f;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    " + std::string(c.body) + "\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_EQ(r.scop->statements.size(), 1u);
  const ScopStatement& stmt = r.scop->statements[0];
  EXPECT_EQ(stmt.reduction_op, c.op);
  if (c.op != ReductionOp::None) {
    EXPECT_EQ(stmt.reduction_accumulator, "s");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReductionShapeMatrix,
    ::testing::Values(
        ReductionShape{"canonical_sum", "s = s + a[i];", ReductionOp::Add},
        ReductionShape{"commuted_sum", "s = a[i] + s;", ReductionOp::Add},
        ReductionShape{"compound_sum", "s += a[i];", ReductionOp::Add},
        ReductionShape{"canonical_sub", "s = s - a[i];", ReductionOp::Sub},
        ReductionShape{"compound_sub", "s -= a[i];", ReductionOp::Sub},
        ReductionShape{"canonical_mul", "s = s * a[i];", ReductionOp::Mul},
        ReductionShape{"commuted_mul", "s = a[i] * s;", ReductionOp::Mul},
        ReductionShape{"compound_mul", "s *= a[i];", ReductionOp::Mul},
        ReductionShape{"fminf_call", "s = fminf(s, a[i]);",
                       ReductionOp::Min},
        ReductionShape{"fmax_call", "s = fmax(s, a[i]);", ReductionOp::Max},
        // `s = e - s` computes an alternating difference, NOT a
        // subtraction reduction — recognizing it would miscompile.
        ReductionShape{"commuted_sub_rejected", "s = a[i] - s;",
                       ReductionOp::None},
        // The contribution expression may not read the accumulator.
        ReductionShape{"self_referencing_other", "s = s + (s * a[i]);",
                       ReductionOp::None},
        ReductionShape{"division_rejected", "s = s / a[i];",
                       ReductionOp::None}),
    [](const ::testing::TestParamInfo<ReductionShape>& info) {
      return info.param.name;
    });

TEST(ReductionRecognition, UserCombinerRecordedButNotExemptible) {
  auto r = extract_from(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = blend(s, a[i]);\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  const ScopStatement& stmt = r.scop->statements[0];
  EXPECT_EQ(stmt.reduction_op, ReductionOp::Call);
  EXPECT_EQ(stmt.reduction_accumulator, "s");
  EXPECT_EQ(stmt.reduction_callee, "blend");
  EXPECT_FALSE(reduction_exemptible(stmt.reduction_op));
  // The combiner note is informational: no OpenMP clause exists for it.
  ASSERT_FALSE(r.scop->reduction_notes.empty());
  EXPECT_NE(r.scop->reduction_notes[0].find("blend"), std::string::npos);
}

TEST(ReductionRecognition, AccumulatorReadElsewhereDemotes) {
  auto r = extract_from(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s = s + a[i];\n"
      "    b[i] = s;\n"
      "  }\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  // The running value escapes into b: every prefix matters, so the
  // match must be demoted (the nest stays serial) with a note saying why.
  EXPECT_EQ(r.scop->statements[0].reduction_op, ReductionOp::None);
  ASSERT_FALSE(r.scop->reduction_notes.empty());
  EXPECT_NE(r.scop->reduction_notes[0].find("read elsewhere"),
            std::string::npos);
}

TEST(ReductionRecognition, InclusivePrefixScanGetsScanNote) {
  auto r = extract_from(
      "int* a; int* b;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++)\n"
      "    a[i] = a[i - 1] + b[i];\n"
      "}\n",
      "k");
  ASSERT_TRUE(r.ok()) << r.failure_reason;
  ASSERT_FALSE(r.scop->reduction_notes.empty());
  EXPECT_NE(r.scop->reduction_notes[0].find("prefix scan"),
            std::string::npos);
}

TEST(ReductionRecognition, ReductionTokenSpellsOmpOperators) {
  EXPECT_STREQ(reduction_token(ReductionOp::Add), "+");
  EXPECT_STREQ(reduction_token(ReductionOp::Sub), "-");
  EXPECT_STREQ(reduction_token(ReductionOp::Mul), "*");
  EXPECT_STREQ(reduction_token(ReductionOp::Min), "min");
  EXPECT_STREQ(reduction_token(ReductionOp::Max), "max");
  EXPECT_STREQ(reduction_token(ReductionOp::None), "");
  EXPECT_STREQ(reduction_token(ReductionOp::Call), "");
}

TEST(AffineForm, ToString) {
  AffineForm f;
  f.coeffs = {1, -2, 0};
  f.constant = 3;
  EXPECT_EQ(f.to_string({"i", "j", "n"}), "i - 2*j + 3");
  AffineForm zero;
  zero.coeffs = {0};
  EXPECT_EQ(zero.to_string({"i"}), "0");
}

}  // namespace
}  // namespace purec::poly
