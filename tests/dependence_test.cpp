#include <gtest/gtest.h>

#include "parser/parser.h"
#include "polyhedral/dependence.h"
#include "support/diagnostics.h"

namespace purec::poly {
namespace {

struct Extracted {
  std::unique_ptr<TranslationUnit> tu;  // keeps the AST alive
  Scop scop;
  std::vector<Dependence> deps;
};

Extracted analyze(const std::string& src, const std::string& fn_name = "k",
                  const PointerTargets* pointers = nullptr) {
  Extracted out;
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
  ExtractionResult r = extract_scop(*loop, pointers);
  EXPECT_TRUE(r.ok()) << r.failure_reason;
  if (!r.ok()) return out;
  out.scop = std::move(*r.scop);
  out.deps = analyze_dependences(out.scop);
  return out;
}

bool has_carried(const std::vector<Dependence>& deps, std::size_t depth) {
  for (const Dependence& d : deps) {
    if (d.loop_carried(depth)) return true;
  }
  return false;
}

TEST(Dependence, IndependentWritesHaveNoDependences) {
  auto r = analyze(
      "float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n");
  EXPECT_TRUE(r.deps.empty());
}

TEST(Dependence, AWriteThroughALocalAliasMeetsReadsOfItsBase) {
  // Listing 6 inlined: iteration i reads array[i - 1], which iteration
  // i - 1 wrote through the alias.
  const char* src =
      "void k(void) {\n"
      "  int array[100];\n"
      "  int* alias = array;\n"
      "  for (int i = 1; i < 100; i++)\n"
      "    alias[i] = array[i - 1] + array[i];\n"
      "}\n";
  EXPECT_FALSE(has_carried(analyze(src).deps, 1));  // two unrelated names
  const PointerTargets pointers = {{"alias", {"array", 0, ""}}};
  const auto r = analyze(src, "k", &pointers);
  EXPECT_TRUE(has_carried(r.deps, 1));
}

TEST(Dependence, APointerOffsetShiftsTheSubscript) {
  // shifted[i] is array[i + 1]: iteration i reads array[i + 2], which
  // iteration i + 1 then overwrites (a carried anti dependence).
  const char* src =
      "void k(void) {\n"
      "  int array[100];\n"
      "  int* shifted = array + 1;\n"
      "  for (int i = 0; i < 98; i++)\n"
      "    shifted[i] = array[i + 2];\n"
      "}\n";
  const PointerTargets pointers = {{"shifted", {"array", 1, ""}}};
  const auto r = analyze(src, "k", &pointers);
  ASSERT_EQ(r.scop.statements.size(), 1u);
  const Access& write = r.scop.statements[0].accesses[0];
  EXPECT_EQ(write.array, "array");
  EXPECT_EQ(write.subscripts[0].constant, 1);
  EXPECT_TRUE(has_carried(r.deps, 1));
}

TEST(Dependence, StreamCopyIsIndependent) {
  auto r = analyze(
      "float* a; float* b;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[i] = b[i]; }\n");
  EXPECT_FALSE(has_carried(r.deps, r.scop.depth()));
}

TEST(Dependence, FlowDependenceDistanceOne) {
  // a[i] = a[i-1]: flow dependence carried at level 1, distance (1).
  auto r = analyze(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n; i++) a[i] = a[i - 1]; }\n");
  ASSERT_TRUE(has_carried(r.deps, 1));
  bool found = false;
  for (const Dependence& d : r.deps) {
    if (d.kind == DependenceKind::Flow && d.level == 1) {
      ASSERT_EQ(d.distance.size(), 1u);
      ASSERT_TRUE(d.distance[0].has_value());
      EXPECT_EQ(*d.distance[0], 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dependence, AntiDependence) {
  // a[i] = a[i+1]: anti dependence (read before overwrite), distance 1.
  auto r = analyze(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n - 1; i++) a[i] = a[i + 1]; }\n");
  bool anti = false;
  for (const Dependence& d : r.deps) {
    if (d.kind == DependenceKind::Anti && d.level == 1) anti = true;
  }
  EXPECT_TRUE(anti);
}

TEST(Dependence, OutputDependence) {
  // a[0] written every iteration -> output dependence carried at level 1.
  auto r = analyze(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[0] = 1.0f; }\n");
  bool output = false;
  for (const Dependence& d : r.deps) {
    if (d.kind == DependenceKind::Output) output = true;
  }
  EXPECT_TRUE(output);
}

TEST(Dependence, TimeStencilCarriedAtBothLevels) {
  // The Fig. 2 case: a[i] = f(a[i-1], a[i], a[i+1]) under a time loop.
  // Memory-based analysis (as in PluTo/candl): deps carried at the time
  // level (t' > t, distance in t not constant because any later timestep
  // rereads the cell) AND at the space level within one timestep (the
  // in-place update makes i sequential: distance (0, 1)).
  auto r = analyze(
      "void k(float* a, int steps, int n) {\n"
      "  for (int t = 0; t < steps; t++)\n"
      "    for (int i = 1; i < n - 1; i++)\n"
      "      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);\n"
      "}\n");
  bool level1 = false;
  bool level2_dist_01 = false;
  for (const Dependence& d : r.deps) {
    if (!d.loop_carried(2)) continue;
    if (d.level == 1) level1 = true;
    if (d.level == 2 && d.distance.size() == 2 && d.distance[0] &&
        d.distance[1] && *d.distance[0] == 0 && *d.distance[1] == 1) {
      level2_dist_01 = true;
    }
  }
  EXPECT_TRUE(level1) << "missing time-carried dependence";
  EXPECT_TRUE(level2_dist_01) << "missing in-place (0,1) dependence";
}

TEST(Dependence, MatmulAccumulationCarriedAtK) {
  // C[i][j] += A[i][k] * B[k][j]: the accumulation carries at level 3
  // (k), levels 1 and 2 are parallel.
  auto r = analyze(
      "float** A; float** B; float** C;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      for (int kk = 0; kk < n; kk++)\n"
      "        C[i][j] += A[i][kk] * B[kk][j];\n"
      "}\n");
  EXPECT_TRUE(level_is_parallel(r.deps, 1, 3));
  EXPECT_TRUE(level_is_parallel(r.deps, 2, 3));
  EXPECT_FALSE(level_is_parallel(r.deps, 3, 3));
}

TEST(Dependence, LoopIndependentDependenceBetweenStatements) {
  // S0: a[i] = ...; S1: b[i] = a[i]; -> loop-independent flow dep.
  auto r = analyze(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    a[i] = 1.0f;\n"
      "    b[i] = a[i];\n"
      "  }\n"
      "}\n");
  bool independent_flow = false;
  for (const Dependence& d : r.deps) {
    if (d.kind == DependenceKind::Flow && d.level == r.scop.depth() + 1 &&
        d.src_stmt == 0 && d.dst_stmt == 1) {
      independent_flow = true;
    }
  }
  EXPECT_TRUE(independent_flow);
}

TEST(Dependence, NoFalseDependenceBetweenDisjointRegions) {
  // a[i] and a[i + n] never overlap when 0 <= i < n.
  auto r = analyze(
      "float* a;\n"
      "void k(int n) { for (int i = 0; i < n; i++) a[i] = a[i + n]; }\n");
  EXPECT_FALSE(has_carried(r.deps, 1));
}

TEST(Dependence, GcdFilterKillsParityMismatch) {
  // write a[2i], read a[2i+1]: even vs odd indices never meet.
  auto r = analyze(
      "float* a;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) a[2 * i] = a[2 * i + 1];\n"
      "}\n");
  EXPECT_FALSE(has_carried(r.deps, 1));
}

TEST(Dependence, ScalarAccumulatorCarries) {
  // s += a[i] carries a dependence on s at level 1 (both read and write).
  auto r = analyze(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s += a[i];\n"
      "}\n");
  EXPECT_TRUE(has_carried(r.deps, 1));
}

// ---------------------------------------------------------------------------
// Per-statement domains: affine guards enter the dependence polyhedra.
// ---------------------------------------------------------------------------

TEST(Dependence, GuardRemovesOnlyConflictingPair) {
  // The write a[i] is guarded by i < m; the read a[i + m] covers
  // [m, n + m). Subscript equality forces i_w = i_r + m >= m, which
  // contradicts the guard — the would-be carried dependence is empty and
  // the loop is parallel. Without the guard in the domain this loop is
  // serial (see GuardDoesNotRemoveConflict below for the counterpart).
  auto r = analyze(
      "float* a; float* c; float* x;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = x[i];\n"
      "    c[i] = a[i + m];\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.scop.region_shaped);
  EXPECT_TRUE(r.scop.statements[0].guarded);
  EXPECT_FALSE(has_carried(r.deps, r.scop.depth()));
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, GuardDoesNotRemoveConflict) {
  // Same shape, but the read a[i - 1] intersects the guarded write range
  // ([0, m) vs [-1, n-1)): the flow dependence survives and the loop
  // stays serial.
  auto r = analyze(
      "float* a; float* c; float* x;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = x[i];\n"
      "    c[i] = a[i - 1];\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.scop.region_shaped);
  EXPECT_TRUE(has_carried(r.deps, r.scop.depth()));
  EXPECT_FALSE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, ElseBranchNegationDisjointFromThen) {
  // then writes a[i] for i < m, else reads a[i] for i >= m: the negated
  // half-space makes every pairing empty — no dependences at all.
  auto r = analyze(
      "float* a; float* c; float* x;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      a[i] = x[i];\n"
      "    else\n"
      "      c[i] = a[i];\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.deps.empty());
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, ImperfectNestInnerCarriesOuterParallel) {
  // s[i] accumulates across j (inner loop serial) but every statement is
  // indexed by i — the outer loop carries nothing.
  auto r = analyze(
      "float* s; float** g;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    s[i] = 0.0f;\n"
      "    for (int j = 0; j < m; j++)\n"
      "      s[i] = s[i] + g[i][j];\n"
      "    s[i] = s[i] * 0.25f;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.scop.region_shaped);
  ASSERT_EQ(r.scop.statements.size(), 3u);
  EXPECT_EQ(r.scop.statements[0].loops, (std::vector<std::size_t>{0}));
  EXPECT_EQ(r.scop.statements[1].loops, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.scop.statements[2].loops, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
  EXPECT_FALSE(loop_is_parallel(r.deps, 1));
}

TEST(Dependence, StatementAfterInnerLoopOrdersByPosition) {
  // S2 (after the inner loop) reads what S1 wrote in the same i
  // iteration: the dependence is loop-independent, not carried by i.
  auto r = analyze(
      "float* s; float* t; float** g;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    for (int j = 0; j < m; j++)\n"
      "      s[i] = s[i] + g[i][j];\n"
      "    t[i] = s[i];\n"
      "  }\n"
      "}\n");
  bool independent_flow = false;
  for (const Dependence& d : r.deps) {
    if (d.kind == DependenceKind::Flow &&
        d.carrier_loop == Scop::npos && d.src_stmt == 0 &&
        d.dst_stmt == 1) {
      independent_flow = true;
    }
  }
  EXPECT_TRUE(independent_flow);
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, StridedLowerBoundAnalyzesExactly) {
  // for (j = i; j < n; j += 2): w[i][i + 2t] never collides across i,
  // so both loops are dependence-free.
  auto r = analyze(
      "float** w; float** r;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = i; j < n; j += 2)\n"
      "      w[i][j] = r[i][j];\n"
      "}\n");
  EXPECT_TRUE(r.deps.empty());
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
  EXPECT_TRUE(loop_is_parallel(r.deps, 1));
}

TEST(Dependence, ReductionSelfDependenceIsExempt) {
  // `s = s + a[i]` carries a flow dependence on s at level 0, but it is
  // the accumulator's own update: the deps are tagged is_reduction and
  // the loop still counts as parallel (OpenMP's reduction clause
  // privatizes the carry).
  auto r = analyze(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "}\n");
  ASSERT_FALSE(r.deps.empty());
  for (const Dependence& d : r.deps) {
    EXPECT_TRUE(d.is_reduction) << d.to_string(r.scop);
  }
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, MinReductionIsExempt) {
  auto r = analyze(
      "float* a;\n"
      "void k(int n) {\n"
      "  float lo = 0.0f;\n"
      "  for (int i = 0; i < n; i++) lo = fminf(lo, a[i]);\n"
      "}\n");
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, AccumulatorReadElsewhereIsNotExempt) {
  // The exemption must NOT fire when the running value escapes: b[i]
  // observes every prefix of the sum, so the loop stays serial.
  auto r = analyze(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) { s = s + a[i]; b[i] = s; }\n"
      "}\n");
  ASSERT_FALSE(r.deps.empty());
  for (const Dependence& d : r.deps) {
    EXPECT_FALSE(d.is_reduction) << d.to_string(r.scop);
  }
  EXPECT_FALSE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, UserCombinerIsNotExempt) {
  // `s = blend(s, a[i])` is recognized (reported upstream) but there is
  // no OpenMP reduction clause for user functions — no exemption.
  auto r = analyze(
      "float* a;\n"
      "void k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++) s = blend(s, a[i]);\n"
      "}\n");
  ASSERT_FALSE(r.deps.empty());
  for (const Dependence& d : r.deps) {
    EXPECT_FALSE(d.is_reduction) << d.to_string(r.scop);
  }
  EXPECT_FALSE(loop_is_parallel(r.deps, 0));
}

TEST(Dependence, ToStringIsInformative) {
  auto r = analyze(
      "float* a;\n"
      "void k(int n) { for (int i = 1; i < n; i++) a[i] = a[i - 1]; }\n");
  ASSERT_FALSE(r.deps.empty());
  const std::string s = r.deps[0].to_string(r.scop);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("level"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Loop fission (distribution by dependence SCC)
// ---------------------------------------------------------------------------

TEST(Fission, SerialScanSplitsFromParallelStatement) {
  // S0 is a prefix scan (carried self-dependence), S1 is independent:
  // two groups, the scan's serial and the map's parallel.
  auto r = analyze(
      "float* acc; float* in; float* out;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    acc[i] = acc[i - 1] + in[i];\n"
      "    out[i] = in[i] * 2.0f;\n"
      "  }\n"
      "}\n");
  const std::vector<FissionGroup> groups =
      fission_groups(r.scop, r.deps, {});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].statements, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(groups[0].parallel);
  EXPECT_EQ(groups[1].statements, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(groups[1].parallel);
}

TEST(Fission, CyclicStatementsStayInOneGroup) {
  // S0 reads c[i-1] (written by S1), S1 reads a[i] (written by S0): one
  // SCC, fission cannot separate anything.
  auto r = analyze(
      "float* a; float* c; float* x;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    a[i] = x[i] * c[i - 1];\n"
      "    c[i] = a[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  const std::vector<FissionGroup> groups =
      fission_groups(r.scop, r.deps, {});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].statements.size(), 2u);
  EXPECT_FALSE(groups[0].parallel);
}

TEST(Fission, IndependentParallelStatementsMergeIntoOneGroup) {
  // No dependence links the two statements and both are parallel: the
  // greedy merge keeps them in one loop (no pointless distribution).
  auto r = analyze(
      "float* a; float* b; float* x;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    a[i] = x[i] * 2.0f;\n"
      "    b[i] = x[i] + 3.0f;\n"
      "  }\n"
      "}\n");
  const std::vector<FissionGroup> groups =
      fission_groups(r.scop, r.deps, {});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].statements.size(), 2u);
  EXPECT_TRUE(groups[0].parallel);
}

TEST(Fission, LoopIndependentProducerConsumerSplitsIntoTwoParallelLoops) {
  // S1 reads what S0 wrote one iteration earlier. The crossing flow
  // dependence is root-carried, so the loops cannot merge — but each
  // half on its own is parallel (distribution runs all writes first).
  auto r = analyze(
      "float* a; float* c; float* x;\n"
      "void k(int n, int m) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    a[i] = x[i] * 2.0f;\n"
      "    c[i] = a[i - 1];\n"
      "  }\n"
      "}\n");
  const std::vector<FissionGroup> groups =
      fission_groups(r.scop, r.deps, {});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0].parallel);
  EXPECT_TRUE(groups[1].parallel);
}

TEST(Fission, GroupRestrictedParallelismIgnoresOtherGroups) {
  auto r = analyze(
      "float* acc; float* in; float* out;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    acc[i] = acc[i - 1] + in[i];\n"
      "    out[i] = in[i] * 2.0f;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(r.scop.statements.size(), 2u);
  // Whole nest: the scan serializes loop 0.
  EXPECT_FALSE(loop_is_parallel_for_group(
      r.deps, 0, std::vector<bool>{true, true}, {}));
  // Restricted to the map statement alone: parallel.
  EXPECT_TRUE(loop_is_parallel_for_group(
      r.deps, 0, std::vector<bool>{false, true}, {}));
}

// ---------------------------------------------------------------------------
// Scalar privatization
// ---------------------------------------------------------------------------

TEST(Privatization, WrittenBeforeReadScalarIsPrivatizable) {
  // `t` is assigned (no read) at the top of every iteration of i, then
  // read by the inner loop: a per-thread copy carries no value across
  // iterations of i.
  auto r = analyze(
      "float** out; float* in; float* w;\n"
      "void k(int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    t = in[i] * 0.5f;\n"
      "    for (int j = 0; j < m; j++)\n"
      "      out[i][j] = t * w[j];\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(privatizable_scalars(r.scop, 0),
            (std::vector<std::string>{"t"}));
  // The scalar's carried dependences are what serialize the loop; once
  // marked private, the loop is parallel.
  EXPECT_FALSE(loop_is_parallel(r.deps, 0));
  EXPECT_TRUE(loop_is_parallel_for_group(
      r.deps, 0, std::vector<bool>(r.scop.statements.size(), true),
      {"t"}));
  mark_private_dependences(r.deps, {"t"});
  EXPECT_TRUE(loop_is_parallel(r.deps, 0));
}

TEST(Privatization, ReadBeforeWriteScalarIsNot) {
  // `t` carries a real recurrence (read of the previous iteration's
  // value before the write): not privatizable.
  auto r = analyze(
      "float* out; float* in;\n"
      "void k(int n) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    out[i] = t + in[i];\n"
      "    t = in[i] * 0.5f;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(privatizable_scalars(r.scop, 0).empty());
}

TEST(Privatization, GuardedFirstWriteIsNot) {
  // The write only happens under a guard, so some iterations read a
  // stale value: not privatizable.
  auto r = analyze(
      "float* out; float* in;\n"
      "void k(int n, int m) {\n"
      "  float t;\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i < m)\n"
      "      t = in[i];\n"
      "    out[i] = t;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(privatizable_scalars(r.scop, 0).empty());
}

TEST(Privatization, ReductionAccumulatorIsExcluded) {
  // `s += ...` is a recognized reduction: the accumulator belongs to the
  // reduction clause, never to private(...).
  auto r = analyze(
      "float* in;\n"
      "float k(int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + in[i];\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(privatizable_scalars(r.scop, 0).empty());
}

// ---------------------------------------------------------------------------
// Fusion legality (over a trial-merged scop)
// ---------------------------------------------------------------------------

TEST(Fusion, BlockerDistinguishesCrossingFromLocalDependences) {
  // Fused body shape: S0 writes a[i], S1 reads a[i+1] — a root-carried
  // anti dependence crossing the (position) boundary between the
  // original loops. fusion_blocker must flag it as crossing.
  auto crossing_case = analyze(
      "float* a; float* b;\n"
      "void k(int n) {\n"
      "  for (int i = 0; i < n - 1; i++) {\n"
      "    a[i] = b[i];\n"
      "    b[i] = a[i + 1];\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(loop_is_parallel(crossing_case.deps, 0));
  bool crossing = false;
  const Dependence* blocker = fusion_blocker(
      crossing_case.scop, crossing_case.deps, 1, &crossing);
  ASSERT_NE(blocker, nullptr);
  EXPECT_TRUE(crossing);

  // One half already serial on its own (scan in the first loop): the
  // blocker sits within positions < boundary, not across it.
  auto local_case = analyze(
      "float* a; float* b; float* x;\n"
      "void k(int n) {\n"
      "  for (int i = 1; i < n; i++) {\n"
      "    a[i] = a[i - 1] + x[i];\n"
      "    b[i] = x[i];\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(loop_is_parallel(local_case.deps, 0));
  crossing = true;
  blocker = fusion_blocker(local_case.scop, local_case.deps, 1, &crossing);
  ASSERT_NE(blocker, nullptr);
  EXPECT_FALSE(crossing);
  EXPECT_EQ(blocker->array, "a");
}

}  // namespace
}  // namespace purec::poly
