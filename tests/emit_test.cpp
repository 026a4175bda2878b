#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>

#include "emit/c_printer.h"
#include "emit/runtime_sections.h"
#include "parser/parser.h"
#include "support/diagnostics.h"
#include "test_sources.h"
#include "transform/pure_chain.h"

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace purec {
namespace {

std::string reprint(const std::string& source,
                    PureHandling handling = PureHandling::Keep) {
  SourceBuffer buf = SourceBuffer::from_string(source);
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.format(&buf);
  PrintOptions options;
  options.pure_handling = handling;
  return print_c(tu, options);
}

TEST(Emit, SimpleFunction) {
  const std::string out = reprint("int add(int a, int b) { return a + b; }");
  EXPECT_NE(out.find("int add(int a, int b)"), std::string::npos);
  EXPECT_NE(out.find("return a + b;"), std::string::npos);
}

TEST(Emit, KeepModePreservesPure) {
  const std::string out =
      reprint("pure int* f(pure int* p, int n);", PureHandling::Keep);
  EXPECT_NE(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("pure int* p"), std::string::npos);
}

TEST(Emit, LowerModeDropsFunctionPure) {
  const std::string out =
      reprint("pure float dot(pure float* a, int n) { return a[0]; }",
              PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  // Paper Listing 8: pure pointer params become pointer-to-const.
  EXPECT_NE(out.find("const float* a"), std::string::npos);
}

TEST(Emit, LowerModeRewritesPureCasts) {
  const std::string out = reprint(
      "float** A;\n"
      "void f(int i) { float* x = (pure float*)A[i]; }",
      PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("(const float*)"), std::string::npos);
}

TEST(Emit, LoweredOutputIsPlainC) {
  // The lowered output of the paper's Listing 7 shape must not contain the
  // keyword at all — that is the whole point of PC-PosPro.
  const std::string out = reprint(
      "pure float mult(float a, float b) { return a * b; }\n"
      "pure float dot(pure float* a, pure float* b, int n) {\n"
      "  float res = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) res += mult(a[i], b[i]);\n"
      "  return res;\n"
      "}\n",
      PureHandling::Lower);
  EXPECT_EQ(out.find("pure"), std::string::npos);
  EXPECT_NE(out.find("const float* a"), std::string::npos);
  EXPECT_NE(out.find("const float* b"), std::string::npos);
}

TEST(Emit, PrecedenceParenthesization) {
  // (a + b) * c must not print as a + b * c.
  SourceBuffer buf = SourceBuffer::from_string("int f(int a, int b, int c) "
                                               "{ return (a + b) * c; }");
  DiagnosticEngine diags;
  TranslationUnit tu = parse(buf, diags);
  const std::string out = print_c(tu);
  EXPECT_NE(out.find("(a + b) * c"), std::string::npos);
}

TEST(Emit, RightAssociativeMinusNeedsParens) {
  // a - (b - c) must keep its parentheses.
  const std::string out =
      reprint("int f(int a, int b, int c) { return a - (b - c); }");
  EXPECT_NE(out.find("a - (b - c)"), std::string::npos);
}

TEST(Emit, UnaryMinusChain) {
  const std::string out = reprint("int f(int a) { return - -a; }");
  EXPECT_EQ(out.find("--"), std::string::npos) << out;
}

TEST(Emit, PragmasFlushLeft) {
  const std::string out = reprint(
      "void f(int n) {\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < n; i++) ;\n"
      "}");
  EXPECT_NE(out.find("\n#pragma omp parallel for\n"), std::string::npos);
}

TEST(Emit, ArrayDeclaration) {
  const std::string out = reprint("void f() { int a[100]; float b[4][8]; }");
  EXPECT_NE(out.find("int a[100];"), std::string::npos);
  EXPECT_NE(out.find("float b[4][8];"), std::string::npos);
}

TEST(Emit, PointerDeclarationSpacing) {
  const std::string out = reprint("float **A;");
  EXPECT_NE(out.find("float** A;"), std::string::npos);
}

TEST(Emit, ForWithSharedSpecifier) {
  const std::string out =
      reprint("void f() { for (int i = 0, j = 9; i < j; i++) ; }");
  EXPECT_NE(out.find("for (int i = 0, j = 9; i < j; i++)"),
            std::string::npos);
}

TEST(Emit, StructAndTypedef) {
  const std::string out = reprint(
      "struct point { int x; int y; };\n"
      "typedef struct point pt;\n");
  EXPECT_NE(out.find("struct point {"), std::string::npos);
  EXPECT_NE(out.find("typedef struct point pt;"), std::string::npos);
}

TEST(Emit, CharAndStringLiteralsVerbatim) {
  const std::string out =
      reprint("void f() { char c = 'x'; const char* s = \"a\\nb\"; }");
  EXPECT_NE(out.find("'x'"), std::string::npos);
  EXPECT_NE(out.find("\"a\\nb\""), std::string::npos);
}

TEST(Emit, FormatDeclarationHelper) {
  TypePtr t = Type::make_pointer(Type::make_builtin(BuiltinKind::Float),
                                 false, true);
  EXPECT_EQ(format_declaration(t, "a", PureHandling::Keep), "pure float* a");
  EXPECT_EQ(format_declaration(t, "a", PureHandling::Lower),
            "const float* a");
}

// ---------------------------------------------------------------------------
// The embedded runtime: sections of src/runtime/c/purec_rt.h
// ---------------------------------------------------------------------------

constexpr const char* kRuntimeSections[] = {
    "stats", "hist", "trace", "memo", "memo_program", "instrument"};

TEST(RuntimeSections, EmbeddedTextIsTheHeaderBytes) {
  std::ifstream in(std::string(PUREC_REPO_DIR) + "/src/runtime/c/purec_rt.h");
  ASSERT_TRUE(in.good());
  std::ostringstream header;
  header << in.rdbuf();
  EXPECT_EQ(runtime_header_text(), header.str());
  for (const char* name : kRuntimeSections) {
    SCOPED_TRACE(name);
    const std::string& section = runtime_section(name);
    const std::string begin = "/* purec-rt:begin " + std::string(name);
    EXPECT_EQ(section.rfind(begin, 0), 0u);
    EXPECT_NE(header.str().find(section), std::string::npos);
  }
  EXPECT_TRUE(runtime_section("no_such_section").empty());
}

TEST(RuntimeSections, EmittedProgramCarriesEachSectionVerbatim) {
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  options.instrument = true;
  const ChainArtifacts artifacts = run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  for (const char* name : kRuntimeSections) {
    SCOPED_TRACE(name);
    const std::string& section = runtime_section(name);
    const std::size_t at = artifacts.final_source.find(section);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(artifacts.final_source.find(section, at + 1), std::string::npos)
        << "section embedded twice";
  }
}

// ---------------------------------------------------------------------------
// --instrument on a collapse(k) nest
// ---------------------------------------------------------------------------

std::string run_shell(const std::string& cmd, int* status = nullptr) {
  std::string output;
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return output;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), p) != nullptr) output += buf.data();
  const int rc = pclose(p);
  if (status != nullptr) *status = rc;
  return output;
}

// 100 x 70 under 32 x 32 tiles: 4 x 3 = 12 (t1t, t2t) pairs per call.
constexpr const char* kCollapsedScale = R"(
#include <stdio.h>
#include <stdlib.h>

float** grid;

void scale(int n, int m) {
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      grid[i][j] = grid[i][j] * 0.5f + (float)(i - j);
}

int main() {
  int n = 100;
  int m = 70;
  grid = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++)
    grid[i] = (float*)malloc(m * sizeof(float));
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      grid[i][j] = (float)((i * 3 + j) % 7);
  for (int r = 0; r < 3; r++) scale(n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < m; j++)
      checksum += (double)grid[i][j] * ((i + j) % 5 + 1);
  printf("checksum %.6f\n", checksum);
  return 0;
}
)";

TEST(InstrumentCollapse, TalliesEveryTilePairOfACollapsedNest) {
  if (run_shell("gcc --version").find("gcc") == std::string::npos) {
    GTEST_SKIP() << "no system gcc";
  }
  ChainOptions options;
  options.instrument = true;
  const ChainArtifacts artifacts = run_pure_chain(kCollapsedScale, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const std::string& source = artifacts.final_source;
  // The tally lives in the body of t2t, the last collapsed loop: the
  // pragma'd t1t must be followed directly by the t2t header.
  const std::regex collapsed(
      "#pragma omp parallel for collapse\\(2\\)\\n *for \\(int t1t[^\\n]*\\n"
      " *for \\(int t2t[^\\n]*\\n *\\{\\n *purec_instr_chunk\\(");
  ASSERT_TRUE(std::regex_search(source, collapsed)) << source;

  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  const ChainArtifacts serial =
      run_pure_chain(kCollapsedScale, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();

  const std::string dir = ::testing::TempDir();
  const auto build = [&](const std::string& text, const std::string& stem) {
    const std::string c_path = dir + "/" + stem + ".c";
    std::ofstream(c_path) << text;
    const std::string bin = dir + "/" + stem + ".bin";
    int rc = -1;
    const std::string log =
        run_shell("gcc -O2 -fopenmp -o " + bin + " " + c_path + " -lm", &rc);
    EXPECT_EQ(rc, 0) << log;
    return bin;
  };
  const std::string serial_bin = build(serial.final_source, "collapse_ser");
  const std::string instr_bin = build(source, "collapse_instr");

  const std::string reference = run_shell(serial_bin);
  ASSERT_NE(reference.find("checksum"), std::string::npos) << reference;
  int rc = -1;
  // The summary must reach stderr: no stats file, no trace file.
  const std::string env = "OMP_NUM_THREADS=4 PUREC_STATS_FILE= PUREC_TRACE= ";
  const std::string output = run_shell(env + instr_bin, &rc);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_NE(output.find(reference), std::string::npos) << output;

  std::string line;
  std::istringstream lines(output);
  std::string row;
  while (std::getline(lines, row)) {
    if (row.rfind("purec-instr[scale:", 0) == 0) line = row;
  }
  ASSERT_FALSE(line.empty()) << output;
  // One region execution per call, exactly as without the collapse.
  EXPECT_NE(line.find(" invocations=3 "), std::string::npos) << line;
  long long tallied = 0;
  int workers = 0;
  const std::regex worker(" w[0-9]+=([0-9]+)");
  for (auto it = std::sregex_iterator(line.begin(), line.end(), worker);
       it != std::sregex_iterator(); ++it) {
    tallied += std::stoll((*it)[1].str());
    ++workers;
  }
  EXPECT_EQ(tallied, 3 * 12) << line;
  EXPECT_GE(workers, 2) << line;  // the tuples spread past one worker
}

}  // namespace
}  // namespace purec
