// Rule-by-rule tests of the purity verifier (paper §3.1-§3.4).
#include <gtest/gtest.h>

#include "parser/parser.h"
#include "purity/purity_checker.h"
#include "support/diagnostics.h"

namespace purec {
namespace {

struct CheckOutcome {
  DiagnosticEngine diags;
  PurityResult result;
  // The result's ScopCandidates point into the AST, so the outcome owns it.
  std::unique_ptr<TranslationUnit> tu;
};

CheckOutcome check(const std::string& src, PurityOptions options = {}) {
  CheckOutcome out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors())
      << "fixture must parse: " << out.diags.format(&buf);
  out.result = check_purity(*out.tu, out.diags, options);
  return out;
}

// ---------------------------------------------------------------------------
// Call rules
// ---------------------------------------------------------------------------

TEST(Purity, PureFunctionMayCallPureFunction) {
  auto out = check(
      "pure int inner(int a) { return a + 1; }\n"
      "pure int outer(int a) { return inner(a) * 2; }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, Listing5RuleSeesIncrementWrites) {
  // a[i]++ counts as "written in the same loop nest" (§3.4) exactly like
  // a[i] = a[i] + 1 — the default chain rejects both.
  auto out = check(
      "pure int f(pure int* a, int i) { return a[i]; }\n"
      "int k(int* a, int* b) {\n"
      "  for (int i = 1; i < 64; i++) { a[i]++; b[i] = f(a, i); }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("Listing 5"))
      << out.diags.format();
}

TEST(Purity, PureFunctionMayNotKeepStaticLocalState) {
  auto out = check(
      "pure int next(int a) { static int c = 0; c = c + a; return c; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("static local 'c'"))
      << out.diags.format();
}

TEST(Purity, PureFunctionMayNotCallImpureFunction) {
  auto out = check(
      "void sideeffect();\n"
      "pure int f(int a) { sideeffect(); return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("impure function 'sideeffect'"));
}

TEST(Purity, StandardMathFunctionsAreSeededPure) {
  auto out = check(
      "pure float f(float x) { return sin(x) + cos(x) * sqrt(x); }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
  EXPECT_TRUE(out.result.is_pure("sin"));
  EXPECT_TRUE(out.result.is_pure("log"));
}

TEST(Purity, MallocAndFreeAreSeededPure) {
  auto out = check("pure int f(int a) { return a; }\n");
  EXPECT_TRUE(out.result.is_pure("malloc"));
  EXPECT_TRUE(out.result.is_pure("free"));
}

TEST(Purity, MallocFreeCanBeDisallowed) {
  PurityOptions options;
  options.allow_malloc_free = false;
  auto out = check(
      "pure int* f(int n) { int* p = (int*)malloc(n); return p; }\n",
      options);
  EXPECT_TRUE(out.diags.has_error_containing("impure function 'malloc'"));
}

TEST(Purity, RecursionIsAllowed) {
  auto out = check(
      "pure int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, MutualRecursionIsAllowed) {
  auto out = check(
      "pure int is_odd(int n);\n"
      "pure int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }\n"
      "pure int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, DeclaredPurePrototypeIsTrusted) {
  // Library functions marked pure join the hashset without a body (§3.1,
  // "the pure keyword can also be used in libraries").
  auto out = check(
      "pure float library_fn(pure float* x, int n);\n"
      "pure float user(pure float* x, int n) { return library_fn(x, n); }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
  EXPECT_TRUE(out.result.is_pure("library_fn"));
}

// ---------------------------------------------------------------------------
// Write rules
// ---------------------------------------------------------------------------

TEST(Purity, LocalVariablesMayBeModified) {
  auto out = check(
      "pure int f(int a) { int x = 0; x = a; x += 2; x++; return x; }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, WriteThroughParamPointerRejected) {
  auto out = check(
      "pure int f(pure int* p) { p[0] = 1; return 0; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("write through"));
}

TEST(Purity, DerefWriteThroughParamRejected) {
  auto out = check("pure int f(pure int* p) { *p = 1; return 0; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("write through"));
}

TEST(Purity, GlobalScalarWriteRejected) {
  auto out = check(
      "int counter;\n"
      "pure int f(int a) { counter = a; return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("global"));
}

TEST(Purity, GlobalIncrementRejected) {
  auto out = check(
      "int counter;\n"
      "pure int f(int a) { counter++; return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("global"));
}

TEST(Purity, GlobalScalarReadAllowed) {
  auto out = check(
      "int limit;\n"
      "pure int f(int a) { return a < limit ? a : limit; }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, ScalarParamReassignmentAllowed) {
  // Parameters are copies; overwriting them has no external effect.
  auto out = check("pure int f(int a) { a = a + 1; return a; }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PointerParamMustBeDeclaredPure) {
  auto out = check("pure int f(int* p) { return p[0]; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("must be declared pure"));
}

TEST(Purity, WriteToUndeclaredExternalRejected) {
  auto out = check("pure int f(int a) { mystery = a; return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("undeclared/external"));
}

TEST(Purity, LocalStructMemberWriteAllowed) {
  // Listing 4: storage declared in scope can be modified.
  auto out = check(
      "struct datatype { int storage; };\n"
      "pure int f(int data) {\n"
      "  struct datatype intStruct;\n"
      "  intStruct.storage = data;\n"
      "  return intStruct.storage;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

// ---------------------------------------------------------------------------
// Pure pointer rules (§3.1: single assignment, never written through)
// ---------------------------------------------------------------------------

TEST(Purity, PurePointerSingleAssignmentViaInit) {
  auto out = check(
      "pure int f(pure int* p1) { pure int* ptr = p1; return ptr[0]; }\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PurePointerDeclareThenAssignOnceAllowed) {
  auto out = check(
      "int* g;\n"
      "pure int f(int a) {\n"
      "  pure int* p;\n"
      "  p = (pure int*)g;\n"
      "  return p[0] + a;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PurePointerSecondAssignmentRejected) {
  auto out = check(
      "int* g;\n"
      "pure int f(pure int* p1) {\n"
      "  pure int* p = p1;\n"
      "  p = (pure int*)g;\n"
      "  return p[0];\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("assigned more than once"));
}

TEST(Purity, WriteThroughPureLocalPointerRejected) {
  auto out = check(
      "pure int f(pure int* p1) {\n"
      "  pure int* p = p1;\n"
      "  p[0] = 5;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("write through pure pointer"));
}

TEST(Purity, PurePointerParamReassignmentRejected) {
  auto out = check(
      "int* g;\n"
      "pure int f(pure int* p) { p = (pure int*)g; return 0; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("single assignment"));
}

// ---------------------------------------------------------------------------
// External capture rules (Listing 3 / Listing 4)
// ---------------------------------------------------------------------------

TEST(Purity, GlobalPointerToPlainLocalRejected) {
  // Listing 2, extPtr1.
  auto out = check(
      "int* globalPtr;\n"
      "pure int f(int a) { int* extPtr1 = globalPtr; return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("Listing 3 rule"));
}

TEST(Purity, GlobalPointerWithPureCastToPureLocalAllowed) {
  // Listing 2, extPtr2.
  auto out = check(
      "int* globalPtr;\n"
      "pure int f(int a) {\n"
      "  pure int* extPtr2;\n"
      "  extPtr2 = (pure int*)globalPtr;\n"
      "  return extPtr2[0] + a;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, GlobalPointerWithoutCastToPureLocalRejected) {
  auto out = check(
      "int* globalPtr;\n"
      "pure int f(int a) { pure int* p = globalPtr; return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("Listing 3 rule"));
}

TEST(Purity, ParamToNonPureLocalRejected) {
  auto out = check(
      "pure int f(pure int* p1) { int* alias = p1; return alias[0]; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("captured by a pure pointer"));
}

TEST(Purity, PureCallResultNeedsPureCapture) {
  // Listing 2, extPtr3 (positive) and the negative variant.
  auto ok = check(
      "pure int* mk(int n);\n"
      "pure int f(int n) {\n"
      "  pure int* p;\n"
      "  p = (pure int*)mk(n);\n"
      "  return p[0];\n"
      "}\n");
  EXPECT_FALSE(ok.diags.has_errors()) << ok.diags.format();

  auto bad = check(
      "pure int* mk(int n);\n"
      "pure int f(int n) { int* p = mk(n); return p[0]; }\n");
  EXPECT_TRUE(bad.diags.has_error_containing("must be captured"));
}

// ---------------------------------------------------------------------------
// malloc / free rules (§3.2)
// ---------------------------------------------------------------------------

TEST(Purity, MallocAssignedToLocalAllowed) {
  auto out = check(
      "pure int* f(int n) {\n"
      "  int* c = (int*)malloc(3 * sizeof(int));\n"
      "  c[0] = n;\n"
      "  return c;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, FreeOfOwnMallocAllowed) {
  auto out = check(
      "pure int f(int n) {\n"
      "  int* tmp = (int*)malloc(n * sizeof(int));\n"
      "  tmp[0] = 1;\n"
      "  int r = tmp[0];\n"
      "  free(tmp);\n"
      "  return r;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, FreeOfParameterRejected) {
  auto out = check(
      "pure int f(pure int* p) { free(p); return 0; }\n");
  EXPECT_TRUE(out.diags.has_error_containing(
      "may only release memory allocated by malloc"));
}

TEST(Purity, FreeOfGlobalRejected) {
  auto out = check(
      "int* g;\n"
      "pure int f(int a) { free(g); return a; }\n");
  EXPECT_TRUE(out.diags.has_error_containing("may only release"));
}

TEST(Purity, FreeOfMallocAliasAllowed) {
  auto out = check(
      "pure int f(int n) {\n"
      "  int* a = (int*)malloc(n);\n"
      "  int* b = a;\n"
      "  free(b);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

// ---------------------------------------------------------------------------
// SCoP detection + Listing 5 rule
// ---------------------------------------------------------------------------

TEST(Purity, LoopWithOnlyPureCallsIsScop) {
  auto out = check(
      "float** C; float** A;\n"
      "pure float get(pure float* row, int j) { return row[j]; }\n"
      "void kernel(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = get((pure float*)A[i], j);\n"
      "}\n");
  ASSERT_FALSE(out.diags.has_errors()) << out.diags.format();
  ASSERT_EQ(out.result.scop_loops.size(), 1u);
  EXPECT_TRUE(out.result.scop_loops[0].contains_calls);
  EXPECT_EQ(out.result.scop_loops[0].function->name, "kernel");
}

TEST(Purity, LoopWithoutCallsIsAlsoScop) {
  auto out = check(
      "float** C;\n"
      "void zero(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "}\n");
  ASSERT_EQ(out.result.scop_loops.size(), 1u);
  EXPECT_FALSE(out.result.scop_loops[0].contains_calls);
}

TEST(Purity, LoopWithImpureCallIsNotScop) {
  auto out = check(
      "void log_progress(int i);\n"
      "float* v;\n"
      "void kernel(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    log_progress(i);\n"
      "    v[i] = 0.0f;\n"
      "  }\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
  EXPECT_TRUE(out.result.scop_loops.empty());
}

TEST(Purity, InnerLoopMarkedWhenOuterHasImpureCall) {
  auto out = check(
      "void log_progress(int i);\n"
      "float** C;\n"
      "void kernel(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    log_progress(i);\n"
      "    for (int j = 0; j < n; j++)\n"
      "      C[i][j] = 0.0f;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(out.result.scop_loops.size(), 1u);
  // The marked loop is the inner j-loop.
  EXPECT_EQ(out.result.scop_loops[0].loop->loc.line, 6u);
}

TEST(Purity, MallocLoopIsScop) {
  // §4.3.1: the allocation loop is (accidentally) a scop because malloc is
  // in the hashset — this is the effect that made `pure` beat plain PluTo.
  auto out = check(
      "float** A;\n"
      "void init(int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    A[i] = (float*)malloc(n * sizeof(float));\n"
      "}\n");
  ASSERT_FALSE(out.diags.has_errors()) << out.diags.format();
  ASSERT_EQ(out.result.scop_loops.size(), 1u);
  EXPECT_TRUE(out.result.scop_loops[0].contains_calls);
}

TEST(Purity, Listing5RuleIsHardErrorByDefault) {
  auto out = check(
      "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n"
      "void kernel(int* array) {\n"
      "  for (int i = 1; i < 100; i++)\n"
      "    array[i] = func((pure int*)array, i);\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("Listing 5"));
}

TEST(Purity, Listing5RuleSeesNoErrorThroughAnAlias) {
  // Listing 6's shape in both directions: the rule compares names, so a
  // write through an alias raises no error and the nest stays a
  // candidate (§3.4). Its roots carry both names and the pure callee,
  // for the chain to match through the alias.
  for (const char* body : {"    alias[i] = func(array, i);\n",
                           "    array[i] = func(alias, i);\n"}) {
    auto out = check(
        std::string("pure int func(pure int* a, int idx) { return a[idx]; "
                    "}\n"
                    "void kernel(void) {\n"
                    "  int array[100];\n"
                    "  int* alias = array + 1;\n"
                    "  for (int i = 1; i < 98; i++)\n") +
        body + "}\n");
    ASSERT_FALSE(out.diags.has_errors()) << body << out.diags.format();
    ASSERT_EQ(out.result.scop_loops.size(), 1u) << body;
    const NestRoots& roots = out.result.scop_loops[0].roots;
    EXPECT_TRUE(listing5_conflicts(roots).empty()) << body;
    EXPECT_EQ(roots.writes.size(), 1u);
    EXPECT_EQ(roots.call_args.size(), 1u);
    EXPECT_NE(roots.writes, roots.call_args);
    EXPECT_EQ(roots.callees.at(*roots.call_args.begin()), "func");
  }
}

TEST(Purity, Listing5RuleCanBeWarning) {
  PurityOptions options;
  options.listing5_violation_is_error = false;
  auto out = check(
      "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n"
      "void kernel(int* array) {\n"
      "  for (int i = 1; i < 100; i++)\n"
      "    array[i] = func((pure int*)array, i);\n"
      "}\n",
      options);
  EXPECT_FALSE(out.diags.has_errors());
  EXPECT_EQ(out.diags.warning_count(), 1u);
  EXPECT_TRUE(out.result.scop_loops.empty());
}

TEST(Purity, UncanonicalizedWhileLoopsAreNotScops) {
  // The bare checker only marks for-loops; affine while loops reach it
  // already canonicalized by the chain (transform/loop_canon), which is
  // pinned by the while_loop e2e fixture and Chain.WhileLoopParallelizes.
  auto out = check(
      "float* v;\n"
      "void f(int n) { int i = 0; while (i < n) { v[i] = 0.0f; i++; } }\n");
  EXPECT_TRUE(out.result.scop_loops.empty());
}

// ---------------------------------------------------------------------------
// Extern effect database in the declared-pure verifier
// ---------------------------------------------------------------------------

TEST(Purity, PureFunctionMayCallReadOnlyExtern) {
  // strchr is not in the seed hashset but the extern effect database
  // models it ReadOnly — a verified-pure body may call it.
  auto out = check(
      "pure int has_dot(pure char* s) {\n"
      "  return strchr(s, 46) != 0;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayNotCallWritesArg0Extern) {
  // memcpy is modeled WritesArg0: through a parameter it reaches caller
  // memory, so the verifier keeps rejecting it — now with the same
  // provenance-based reason inference reports.
  auto out = check(
      "pure int copy(pure char* d, pure char* s, int n) {\n"
      "  memcpy(d, s, n);\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("memcpy"))
      << out.diags.format();
  EXPECT_TRUE(out.diags.has_error_containing("caller or global"))
      << out.diags.format();
}

TEST(Purity, PureFunctionMayCallStringScanners) {
  // strstr/strcspn/strspn joined the extern effect database as ReadOnly:
  // a verified-pure body may call them without pessimization.
  auto out = check(
      "pure int score(pure char* s, pure char* set) {\n"
      "  if (strstr(s, set) != 0) return 2;\n"
      "  return strspn(s, set) + strcspn(s, set);\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayCallCtypeAndAtoi) {
  // ctype.h classifiers/converters and atoi/atol joined the extern
  // effect database as ReadOnly: a declared-pure body may call them and
  // still verify.
  auto out = check(
      "pure int classify(pure char* s) {\n"
      "  if (isspace(s[0])) return 0;\n"
      "  if (isalpha(s[0])) return tolower(s[0]) - toupper(s[0]);\n"
      "  if (isdigit(s[0])) return atoi(s) + (int)atol(s);\n"
      "  return 1;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayCallStrtolWithNullEndptr) {
  // strtol is modeled WritesArg1: with a null endptr there is no write
  // at all, so the declared-pure body verifies.
  auto out = check(
      "pure long parse(pure char* s) {\n"
      "  return strtol(s, 0, 10);\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayCallStrtodIntoLocalEndptr) {
  // &local endptr: the out-parameter store lands in function-local
  // storage — same provenance standard inference applies, so annotated
  // and keyword-free twins agree.
  auto out = check(
      "pure double parse(pure char* s) {\n"
      "  char* end;\n"
      "  double v = strtod(s, &end);\n"
      "  if (end == s) return 0.0;\n"
      "  return v;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayNotLeakTheEndPointer) {
  // A caller-supplied char** receives the end pointer: that store is
  // observable outside the call, so the verifier rejects it.
  auto out = check(
      "pure long parse(pure char* s, pure char** end) {\n"
      "  return strtol(s, end, 10);\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("strtol"))
      << out.diags.format();
  EXPECT_TRUE(out.diags.has_error_containing("end pointer"))
      << out.diags.format();
}

TEST(Purity, PureFunctionMayCallMemchrAndStrncatIntoLocals) {
  auto out = check(
      "pure int scan(pure char* s, int n) {\n"
      "  char buf[16];\n"
      "  buf[0] = 0;\n"
      "  strncat(buf, s, 8);\n"
      "  return memchr(buf, 46, n) != 0;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, PureFunctionMayNotStrcpyIntoParameter) {
  // strcpy/strncpy/strcat are WritesArg0: through a parameter the write
  // reaches caller memory, so the verifier rejects it with the same
  // provenance-based reason as inference.
  auto out = check(
      "pure int copy(pure char* d, pure char* s) {\n"
      "  strcpy(d, s);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("strcpy"))
      << out.diags.format();
  EXPECT_TRUE(out.diags.has_error_containing("caller or global"))
      << out.diags.format();
}

// The WritesArg0 asymmetry fix: the declared-pure verifier consults the
// same provenance reasoning as inference, so each modeled extern writing
// into provably function-local storage verifies in a `pure` body too.

TEST(Purity, MemcpyIntoLocalBufferVerifiesInPureBody) {
  auto out = check(
      "pure int f(pure int* src, int n) {\n"
      "  int buf[16];\n"
      "  memcpy(buf, src, 16 * sizeof(int));\n"
      "  return buf[0] + n;\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, MemmoveWithinLocalBufferVerifiesInPureBody) {
  auto out = check(
      "pure int f(int n) {\n"
      "  int buf[8];\n"
      "  buf[0] = n;\n"
      "  memmove(buf + 1, buf, 4 * sizeof(int));\n"
      "  return buf[1];\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, MemsetIntoLocalBufferVerifiesInPureBody) {
  auto out = check(
      "pure int f(int n) {\n"
      "  int buf[8];\n"
      "  memset(buf, 0, sizeof(buf));\n"
      "  return buf[n % 8];\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, MemsetOnGlobalStillRejectedInPureBody) {
  auto out = check(
      "int shared[8];\n"
      "pure int f(int n) {\n"
      "  memset(shared, 0, sizeof(shared));\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("memset"))
      << out.diags.format();
}

TEST(Purity, SnprintfIntoLocalBufferVerifiesInPureBody) {
  auto out = check(
      "pure int f(int v) {\n"
      "  char buf[32];\n"
      "  snprintf(buf, 32, \"%d\", v);\n"
      "  return buf[0];\n"
      "}\n");
  EXPECT_FALSE(out.diags.has_errors()) << out.diags.format();
}

TEST(Purity, SnprintfPercentNStillRejectedInPureBody) {
  auto out = check(
      "pure int f(pure int* p) {\n"
      "  char buf[8];\n"
      "  snprintf(buf, 8, \"%n\", p);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(out.diags.has_error_containing("%n")) << out.diags.format();
}

}  // namespace
}  // namespace purec
