// Tests of the memoization subsystem: the memoizability analysis
// (src/memo/memoizable.*), the thunk codegen (src/memo/memo_codegen.*),
// and the chain wiring behind ChainOptions::memoize. The emitted table
// itself (src/runtime/c/purec_rt.h) is tested in runtime_test.
#include <gtest/gtest.h>

#include <set>

#include "memo/memo_codegen.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "sema/symbols.h"
#include "support/diagnostics.h"
#include "test_sources.h"
#include "transform/pure_chain.h"

namespace purec {
namespace {

// ---------------------------------------------------------------------------
// Memoizability analysis
// ---------------------------------------------------------------------------

struct ClassifyOutcome {
  DiagnosticEngine diags;
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<SymbolTable> symbols;
  MemoizableResult result;
};

/// Parses `src`, derives the pure set via the checker (plus `extra_pure`
/// names assumed without verification), and classifies.
ClassifyOutcome classify(const std::string& src,
                         std::set<std::string> extra_pure = {},
                         bool cost_gate = false,
                         const MemoProfile* profile = nullptr) {
  ClassifyOutcome out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors())
      << "fixture must parse: " << out.diags.format(&buf);
  out.symbols =
      std::make_unique<SymbolTable>(SymbolTable::build(*out.tu, out.diags));
  PurityOptions options;
  options.assume_pure = std::move(extra_pure);
  PurityChecker checker(*out.tu, *out.symbols, out.diags, options);
  const PurityResult purity = checker.check();
  out.result = classify_memoizable(*out.tu, *out.symbols,
                                   purity.pure_functions, options,
                                   cost_gate, profile);
  return out;
}

const MemoFunctionInfo& info_of(const ClassifyOutcome& out,
                                const std::string& name) {
  const auto it = out.result.functions.find(name);
  EXPECT_NE(it, out.result.functions.end()) << "no verdict for " << name;
  return it->second;
}

TEST(Memoizable, ScalarParamsYesPointerParamsNo) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  EXPECT_TRUE(info_of(out, "mult").memoizable);
  ASSERT_EQ(info_of(out, "mult").param_types.size(), 2u);
  const MemoFunctionInfo& dot = info_of(out, "dot");
  EXPECT_FALSE(dot.memoizable);
  EXPECT_NE(dot.reason.find("read extent not statically known"),
            std::string::npos)
      << dot.reason;
}

TEST(Memoizable, VoidReturnRejected) {
  const ClassifyOutcome out = classify(
      "pure void nop(int a) { int b; b = a; }\n");
  const MemoFunctionInfo& info = info_of(out, "nop");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("returns void"), std::string::npos);
}

TEST(Memoizable, GlobalScalarJoinsSnapshot) {
  const ClassifyOutcome out = classify(
      "float gain;\n"
      "pure float shade(int v) { return (float)v * gain; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "gain");
}

TEST(Memoizable, GlobalArrayRejected) {
  const ClassifyOutcome out = classify(
      "float lut[64];\n"
      "pure float shade(int v) { return lut[v]; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot would be unbounded"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, TransitiveGlobalReadsFlowThroughCallees) {
  const ClassifyOutcome out = classify(
      "int bias;\n"
      "pure int inner(int v) { return v + bias; }\n"
      "pure int outer(int v) { return inner(v) * 2; }\n");
  const MemoFunctionInfo& info = info_of(out, "outer");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "bias");
}

TEST(Memoizable, AllocationRejected) {
  const ClassifyOutcome out = classify(
      "pure int probe(int n) {\n"
      "  int* p = (int*)malloc(n * sizeof(int));\n"
      "  p[0] = n;\n"
      "  int r = p[0];\n"
      "  free(p);\n"
      "  return r;\n"
      "}\n");
  const MemoFunctionInfo& info = info_of(out, "probe");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("allocates"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, ExternPureProtoRejectedViaCallee) {
  const ClassifyOutcome out = classify(
      "pure int mystery(int v);\n"
      "pure int wrap(int v) { return mystery(v) + 1; }\n");
  const MemoFunctionInfo& info = info_of(out, "wrap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("definition unavailable"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, FpEnvironmentSensitiveCalleeRejected) {
  // `rint` observes the dynamic rounding mode; assume it pure to get past
  // the checker and pin that memoization still refuses.
  const ClassifyOutcome out = classify(
      "pure double snap(double v) { return rint(v); }\n", {"rint"});
  const MemoFunctionInfo& info = info_of(out, "snap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("floating-point-environment"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveSnprintfRejected) {
  // Pure enough for parallelization (bounded local write), but the
  // formatted bytes depend on the dynamic locale — caching them would
  // serve stale results across setlocale.
  const ClassifyOutcome out = classify(
      "int fmt(int v) {\n"
      "  char buf[16];\n"
      "  snprintf(buf, 16, \"%d\", v);\n"
      "  return buf[0];\n"
      "}\n",
      {"fmt"});
  const MemoFunctionInfo& info = info_of(out, "fmt");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveStrtodRejected) {
  // The mirror hazard of snprintf: C11 lets other locales accept
  // additional subject-sequence forms, so identical argument bytes can
  // parse differently across setlocale calls. Pure (the &local endptr
  // write is thread-invisible) but not cacheable.
  const ClassifyOutcome out = classify(
      "double parse(int digit) {\n"
      "  char buf[2];\n"
      "  char* end;\n"
      "  buf[0] = 48 + digit;\n"
      "  buf[1] = 0;\n"
      "  return strtod(buf, &end);\n"
      "}\n",
      {"parse"});
  const MemoFunctionInfo& info = info_of(out, "parse");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive parsing"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, StandardMathCalleesAreFine) {
  const ClassifyOutcome out = classify(
      "pure double wave(double x) { return sin(x) * cos(x); }\n");
  EXPECT_TRUE(info_of(out, "wave").memoizable)
      << info_of(out, "wave").reason;
}

TEST(Memoizable, SnapshotBoundRejectsWideGlobalSets) {
  std::string src;
  std::string body = "pure int sum(int v) { return v";
  for (int i = 0; i < 9; ++i) {
    src += "int g" + std::to_string(i) + ";\n";
    body += " + g" + std::to_string(i);
  }
  src += body + "; }\n";
  const ClassifyOutcome out = classify(src);
  const MemoFunctionInfo& info = info_of(out, "sum");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot bound"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, SummaryNamesBothSides) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  const std::string summary = out.result.summary();
  EXPECT_NE(summary.find("memoizable: mult"), std::string::npos) << summary;
  EXPECT_NE(summary.find("rejected: dot"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Profile-informed cost gate (--memoize-profile)
// ---------------------------------------------------------------------------

constexpr const char* kProfileFixture =
    "pure float heavy(float a, float b) {\n"
    "  float acc = a * b + a;\n"
    "  acc = acc * acc + b * b;\n"
    "  acc = acc * 0.5f + a * b;\n"
    "  return acc * acc + 1.0f;\n"
    "}\n"
    "pure float cold(float a, float b) {\n"
    "  float acc = a * b + a;\n"
    "  acc = acc * acc + b * b;\n"
    "  return acc;\n"
    "}\n"
    "pure float unseen(float a) { return a * 2.0f; }\n";

TEST(MemoProfile, ParseSumsFleetDumps) {
  // One PUREC_MEMO_STATS dump per process in a fleet: entries for the
  // same thunk sum; anything that is not a stats line is ignored.
  const MemoProfile profile = parse_memo_profile(
      "purec-memo[heavy] hits=10 misses=2 evictions=0\n"
      "some unrelated program output\n"
      "purec-memo[heavy] hits=5 misses=1 evictions=3\n"
      "purec-memo[cold] hits=0 misses=7 evictions=0\n"
      "purec-memo[broken] hits=oops\n");
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.at("heavy").hits, 15u);
  EXPECT_EQ(profile.at("heavy").misses, 3u);
  EXPECT_EQ(profile.at("heavy").evictions, 3u);
  EXPECT_EQ(profile.at("cold").misses, 7u);
}

TEST(Memoizable, ProfileGateKeepsDemonstratedReuseOnly) {
  MemoProfile profile;
  profile["heavy"] = {900, 100, 0};  // reuse 9x: survives
  profile["cold"] = {0, 500, 0};     // traffic but zero reuse: rejected
  // "unseen" absent: the thunk was never exercised.
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/true, &profile);

  const MemoFunctionInfo& heavy = info_of(out, "heavy");
  EXPECT_TRUE(heavy.memoizable) << heavy.reason;
  EXPECT_TRUE(heavy.profiled);
  EXPECT_EQ(heavy.profile_hits, 900u);
  EXPECT_GT(heavy.cost_nodes, 0u);
  EXPECT_GE(heavy.profile_score, kMemoProfileScoreMin);

  const MemoFunctionInfo& cold = info_of(out, "cold");
  EXPECT_FALSE(cold.memoizable);
  EXPECT_NE(cold.reason.find("profile shows no reuse"), std::string::npos)
      << cold.reason;

  const MemoFunctionInfo& unseen = info_of(out, "unseen");
  EXPECT_FALSE(unseen.memoizable);
  EXPECT_NE(unseen.reason.find("no observed traffic"), std::string::npos)
      << unseen.reason;
}

TEST(Memoizable, ProfileScoreBelowGateRejectsThinReuse) {
  MemoProfile profile;
  profile["heavy"] = {1, 1000, 0};  // reuse 0.001x: score under the gate
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/true, &profile);
  const MemoFunctionInfo& heavy = info_of(out, "heavy");
  EXPECT_FALSE(heavy.memoizable);
  EXPECT_NE(heavy.reason.find("profile score"), std::string::npos)
      << heavy.reason;
}

TEST(Memoizable, MemoizeAllKeepsProfileAnnotationsWithoutRejecting) {
  // --memoize=all (cost_gate off) still records the profile verdicts —
  // the report shows the scores — but nothing is rejected by them.
  MemoProfile profile;
  profile["cold"] = {0, 500, 0};
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/false, &profile);
  const MemoFunctionInfo& cold = info_of(out, "cold");
  EXPECT_TRUE(cold.memoizable) << cold.reason;
  EXPECT_TRUE(cold.profiled);
  EXPECT_EQ(cold.profile_hits, 0u);
  const MemoFunctionInfo& unseen = info_of(out, "unseen");
  EXPECT_TRUE(unseen.memoizable) << unseen.reason;
  EXPECT_FALSE(unseen.profiled);
}

// ---------------------------------------------------------------------------
// Thunk codegen
// ---------------------------------------------------------------------------

TEST(MemoCodegen, ThunkPrototypeShape) {
  MemoFunctionInfo info;
  info.name = "mult";
  info.return_type = Type::make_builtin(BuiltinKind::Float);
  info.param_types = {Type::make_builtin(BuiltinKind::Float),
                      Type::make_builtin(BuiltinKind::Float)};
  EXPECT_EQ(memo_thunk_prototype(info),
            "static float purec_memo_mult(float purec_a0, "
            "float purec_a1);\n");
  const std::string def = memo_thunk_definition(info);
  EXPECT_NE(
      def.find("PUREC_MEMO_KEY_F32(purec_key, purec_kw, purec_kn, "
               "purec_a0);"),
      std::string::npos)
      << def;
  EXPECT_NE(def.find("purec_result = mult(purec_a0, purec_a1);"),
            std::string::npos)
      << def;
}

TEST(MemoCodegen, FunctionIdsDiffer) {
  EXPECT_NE(memo_function_id("mult"), memo_function_id("dot"));
  EXPECT_EQ(memo_function_id("mult"), memo_function_id("mult"));
}

TEST(MemoCodegen, IntegerAndDoubleKeyLines) {
  MemoFunctionInfo info;
  info.name = "f";
  info.return_type = Type::make_builtin(BuiltinKind::Double);
  info.param_types = {Type::make_builtin(BuiltinKind::Int)};
  info.global_snapshot.emplace_back(
      "g", Type::make_builtin(BuiltinKind::Double));
  const std::string def = memo_thunk_definition(info);
  EXPECT_NE(
      def.find("PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, "
               "purec_a0);"),
      std::string::npos)
      << def;
  EXPECT_NE(def.find("PUREC_MEMO_KEY_F64(purec_key, purec_kw, purec_kn, "
                     "g);"),
            std::string::npos)
      << def;
  EXPECT_NE(def.find("PUREC_MEMO_UNPACK_F64"), std::string::npos) << def;
}

// ---------------------------------------------------------------------------
// Chain wiring
// ---------------------------------------------------------------------------

TEST(MemoChain, CostGateSkipsTrivialLeavesByDefault) {
  // `mult` is a 3-node single-expression leaf: the default --memoize
  // cost-gates it (the table trip costs more than the recompute — the
  // honest 0.1x matmul-twin negative in BENCH_memoize.json), so the
  // output stays memo-free.
  ChainOptions options;
  options.memoize = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_TRUE(artifacts.memoization.memoizable.empty());
  EXPECT_EQ(artifacts.memoized_calls, 0u);
  const auto mult = artifacts.memoization.functions.find("mult");
  ASSERT_NE(mult, artifacts.memoization.functions.end());
  EXPECT_NE(mult->second.reason.find("cost gate"), std::string::npos)
      << mult->second.reason;
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, MemoizeAllRewritesCallSitesAndEmitsRuntime) {
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_EQ(artifacts.memoization.memoizable,
            (std::set<std::string>{"mult"}));
  EXPECT_GE(artifacts.memoized_calls, 1u);
  EXPECT_NE(artifacts.final_source.find("/* purec-rt:begin memo */"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("purec_memo_mult("),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("#include <stdlib.h>"),
            std::string::npos);
  // The PUREC_MEMO_STATS instrumentation rides along: per-thunk counter
  // registration plus the atexit dump in the emitted runtime.
  EXPECT_NE(artifacts.final_source.find("purec_memo_stats_mult"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("purec_memo_stats_dump"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("#include <stdio.h>"),
            std::string::npos);
  // Intermediate stages stay memo-free (the rewrite is a PosPro concern).
  EXPECT_EQ(artifacts.transformed.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, NoMemoizableFunctionsIsByteLevelNoop) {
  ChainOptions plain;
  ChainOptions memo;
  memo.memoize = true;
  const ChainArtifacts a = run_pure_chain(testsrc::kSatellite, plain);
  const ChainArtifacts b = run_pure_chain(testsrc::kSatellite, memo);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.final_source, b.final_source);
  EXPECT_EQ(b.memoized_calls, 0u);
  EXPECT_TRUE(b.memoization.memoizable.empty());
}

TEST(MemoChain, OffByDefaultLeavesNoTrace) {
  const ChainArtifacts artifacts = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(artifacts.ok);
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
  EXPECT_TRUE(artifacts.memoization.functions.empty());
}

}  // namespace
}  // namespace purec
