// Exit-status and usage coverage for the purecc command-line driver. The
// binary under test is passed in via the PURECC_BIN environment variable
// (set by CTest); the test skips when it is absent so the suite can run
// even if the examples are not built.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

const char* kInputProgram = R"(
float* v;

pure float twice(float x) {
  return x + x;
}

void fill(int n) {
  for (int i = 0; i < n; i++) {
    v[i] = twice((float)i);
  }
}
)";

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

std::string purecc_bin() {
  const char* env = std::getenv("PURECC_BIN");
  return env != nullptr ? env : "";
}

/// Single-quotes a path for safe interpolation into the shell command
/// (TempDir may contain spaces or shell metacharacters).
std::string shell_quote(const std::string& path) {
  return "'" + path + "'";
}

/// Runs `purecc <args>` through the shell; returns exit code and output.
RunResult run_purecc(const std::string& args) {
  RunResult result;
  const std::string cmd = shell_quote(purecc_bin()) + " " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return result;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), p) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(p);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class PureccCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (purecc_bin().empty()) {
      GTEST_SKIP() << "PURECC_BIN not set (examples not built?)";
    }
    input_path_ = ::testing::TempDir() + "/purecc_cli_input.c";
    std::ofstream out(input_path_);
    out << kInputProgram;
  }

  std::string input_path_;
};

TEST_F(PureccCliTest, NoArgumentsPrintsUsage) {
  const RunResult r = run_purecc("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, UnknownFlagPrintsUsage) {
  const RunResult r = run_purecc("--bogus " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, FlagMissingValuePrintsUsage) {
  for (const char* flag : {"-o", "--mode", "--tile", "--schedule",
                           "--stage"}) {
    const RunResult r = run_purecc(flag);
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << flag;
  }
}

TEST_F(PureccCliTest, BadModePrintsUsage) {
  const RunResult r = run_purecc("--mode polly " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(PureccCliTest, MissingInputFileFailsCleanly) {
  const RunResult r = run_purecc("/nonexistent/input.c");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, SecondPositionalArgumentPrintsUsage) {
  const RunResult r =
      run_purecc(shell_quote(input_path_) + " " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(PureccCliTest, VerificationFailureExitsOne) {
  const std::string bad_path = ::testing::TempDir() + "/purecc_cli_bad.c";
  {
    std::ofstream out(bad_path);
    out << "int g;\npure int f(int a) { g = a; return a; }\n";
  }
  const RunResult r = run_purecc(shell_quote(bad_path));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_FALSE(r.output.empty());
}

TEST_F(PureccCliTest, DefaultRunEmitsParallelC) {
  const RunResult r = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("pure "), std::string::npos)
      << "output must be lowered to plain C:\n"
      << r.output;
}

TEST_F(PureccCliTest, EveryStageNameIsAccepted) {
  for (const char* stage : {"stripped", "preprocessed", "marked",
                            "substituted", "transformed"}) {
    const RunResult r =
        run_purecc(std::string("--stage ") + stage + " " +
                   shell_quote(input_path_));
    EXPECT_EQ(r.exit_code, 0) << stage << ": " << r.output;
    EXPECT_FALSE(r.output.empty()) << stage;
  }
}

TEST_F(PureccCliTest, UnknownStageNamePrintsUsage) {
  const RunResult r =
      run_purecc("--stage lowered " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, OutputFileRoundTrip) {
  const std::string out_path = ::testing::TempDir() + "/purecc_cli_out.c";
  std::remove(out_path.c_str());

  const RunResult direct = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(direct.exit_code, 0);

  const RunResult filed =
      run_purecc("-o " + shell_quote(out_path) + " " +
                 shell_quote(input_path_));
  ASSERT_EQ(filed.exit_code, 0) << filed.output;
  EXPECT_TRUE(filed.output.empty()) << "with -o, stdout must stay clean";

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good()) << "-o did not create " << out_path;
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, direct.output)
      << "-o file must hold exactly what stdout prints";
}

TEST_F(PureccCliTest, UnwritableOutputFailsCleanly) {
  const RunResult r =
      run_purecc("-o /nonexistent/dir/out.c " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot write"), std::string::npos);
}

TEST_F(PureccCliTest, ReportGoesToStderr) {
  const RunResult r = run_purecc("--report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("purecc:"), std::string::npos) << r.output;
}

TEST_F(PureccCliTest, ReportJsonGoesToStderrOrFile) {
  // To stderr: a JSON document instead of the classic text lines.
  const RunResult r =
      run_purecc("--report=json -o /dev/null " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"report_version\": 5"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"purity\""), std::string::npos) << r.output;

  // To a file: stderr stays clean, the file holds the same document.
  const std::string json_path =
      ::testing::TempDir() + "/purecc_cli_report.json";
  std::remove(json_path.c_str());
  const RunResult filed =
      run_purecc("--report=json:" + shell_quote(json_path) +
                 " -o /dev/null " + shell_quote(input_path_));
  ASSERT_EQ(filed.exit_code, 0) << filed.output;
  EXPECT_TRUE(filed.output.empty()) << filed.output;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "--report=json:FILE did not create " << json_path;
  std::string written((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, r.output)
      << "file report must hold exactly what stderr prints";
}

TEST_F(PureccCliTest, MalformedReportJsonSuffixPrintsUsage) {
  const RunResult r =
      run_purecc("--report=jsonx " + shell_quote(input_path_));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(PureccCliTest, InstrumentInjectsCountersOnlyWhenAsked) {
  const RunResult plain = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_EQ(plain.output.find("purec_instr"), std::string::npos)
      << "instrumentation must be opt-in";

  const RunResult instr =
      run_purecc("--instrument " + shell_quote(input_path_));
  ASSERT_EQ(instr.exit_code, 0) << instr.output;
  EXPECT_NE(instr.output.find("purec_instr_region_t"), std::string::npos)
      << instr.output;
  EXPECT_NE(instr.output.find("PUREC_TRACE"), std::string::npos)
      << instr.output;
  EXPECT_NE(instr.output.find("purec_stats_out"), std::string::npos)
      << instr.output;
}

TEST_F(PureccCliTest, ScheduleSpecRoundTripsIntoPragma) {
  const RunResult r =
      run_purecc("--schedule guided,8 " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for schedule(guided,8)"),
            std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, FullClauseSpellingStillAccepted) {
  // The seed's verbatim-clause spelling keeps working, normalized.
  const RunResult r = run_purecc("--schedule 'schedule(dynamic,1)' " +
                                 shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#pragma omp parallel for schedule(dynamic,1)"),
            std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MalformedScheduleRejectedWithDiagnostic) {
  // The seed pasted any string verbatim into the pragma — "--schedule
  // bogus" produced uncompilable C with exit 0. Now it must fail fast
  // and say why.
  for (const char* bad : {"bogus", "dynamic,0", "guided,-1", "dynamic,x"}) {
    const RunResult r = run_purecc(std::string("--schedule '") + bad +
                                   "' " + shell_quote(input_path_));
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.output.find("invalid --schedule"), std::string::npos)
        << bad << ": " << r.output;
  }
}

TEST_F(PureccCliTest, InferPureParallelizesKeywordFreeInput) {
  const std::string plain_path =
      ::testing::TempDir() + "/purecc_cli_plain.c";
  {
    std::ofstream out(plain_path);
    out << "float* v;\n"
           "float twice(float x) {\n"
           "  return x + x;\n"
           "}\n"
           "void fill(int n) {\n"
           "  for (int i = 0; i < n; i++) {\n"
           "    v[i] = twice((float)i);\n"
           "  }\n"
           "}\n";
  }
  // Without the flag the call is opaque: no OpenMP in the output.
  const RunResult plain = run_purecc(shell_quote(plain_path));
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("#pragma omp"), std::string::npos);

  // With --infer-pure the loop parallelizes and the report names the
  // inference provenance.
  const RunResult inferred =
      run_purecc("--infer-pure --report " + shell_quote(plain_path));
  ASSERT_EQ(inferred.exit_code, 0) << inferred.output;
  EXPECT_NE(inferred.output.find("#pragma omp parallel for"),
            std::string::npos)
      << inferred.output;
  EXPECT_NE(inferred.output.find("inferred pure: twice"), std::string::npos)
      << inferred.output;
  EXPECT_NE(inferred.output.find("inferred=1"), std::string::npos)
      << inferred.output;
}

TEST_F(PureccCliTest, MemoizeCostGatesTrivialLeavesByDefault) {
  // twice(float) is a single-expression leaf: plain --memoize cost-gates
  // it (recompute beats the table trip) and reports why.
  const RunResult r =
      run_purecc("--memoize --report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("/* purec-rt:begin memo */"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cost gate"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("memoized 0 call site(s)"), std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MemoizeAllRewritesCallSitesAndReports) {
  // --memoize=all overrides the gate: the output gains the thunk, its
  // table, and the rewritten call site; the report carries the
  // provenance.
  const RunResult r =
      run_purecc("--memoize=all --report " + shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("/* purec-rt:begin memo */"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("purec_memo_twice("), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("memoizable: twice"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("memoized 1 call site(s)"), std::string::npos)
      << r.output;

  // Without the flag nothing memo-related may leak into the output.
  const RunResult plain = run_purecc(shell_quote(input_path_));
  ASSERT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("purec_memo"), std::string::npos);
}

TEST_F(PureccCliTest, MemoizeVerifyCompilesTheFullKeyDefaultIn) {
  // --memoize=verify flips the compiled-in verification default in the
  // emitted prelude and is echoed in the report options.
  const RunResult r = run_purecc(
      "--memoize=all --memoize=verify --report=json " +
      shell_quote(input_path_));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("#define PUREC_MEMO_VERIFY_DEFAULT 1"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"memoize_verify\": true"), std::string::npos)
      << r.output;
}

TEST_F(PureccCliTest, MemoizeProfileGatesOnObservedTraffic) {
  // A PUREC_MEMO_STATS dump fed back via --memoize-profile supersedes
  // the shape-based cost gate: demonstrated reuse keeps the thunk, a
  // traffic-free profile rejects it with the measured counts.
  const std::string hot_path = ::testing::TempDir() + "/purecc_cli_hot.prof";
  {
    std::ofstream out(hot_path);
    out << "purec-memo[twice] hits=900 misses=10 evictions=0\n";
  }
  const RunResult hot = run_purecc("--memoize-profile=" +
                                   shell_quote(hot_path) +
                                   " --report=json " +
                                   shell_quote(input_path_));
  ASSERT_EQ(hot.exit_code, 0) << hot.output;
  EXPECT_NE(hot.output.find("purec_memo_twice("), std::string::npos)
      << "demonstrated reuse must keep the thunk:\n"
      << hot.output;
  EXPECT_NE(hot.output.find("\"memoize_profile\": true"), std::string::npos)
      << hot.output;

  const std::string cold_path =
      ::testing::TempDir() + "/purecc_cli_cold.prof";
  {
    std::ofstream out(cold_path);
    out << "purec-memo[twice] hits=0 misses=500 evictions=0\n";
  }
  const RunResult cold = run_purecc("--memoize-profile=" +
                                    shell_quote(cold_path) + " --report " +
                                    shell_quote(input_path_));
  ASSERT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("profile shows no reuse"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("memoized 0 call site(s)"), std::string::npos)
      << cold.output;
}

TEST_F(PureccCliTest, FpReductionsGatesTheFloatAccumulation) {
  const std::string red_path = ::testing::TempDir() + "/purecc_cli_red.c";
  {
    std::ofstream out(red_path);
    out << "void dot(float* a, float* b, float* out, int n) {\n"
           "  float sum = 0.0f;\n"
           "  for (int i = 0; i < n; i++) {\n"
           "    sum = sum + a[i] * b[i];\n"
           "  }\n"
           "  out[0] = sum;\n"
           "}\n";
  }
  // Default: the FP sum is demoted — serial output, and the report
  // carries the note pointing at the flag.
  const RunResult strict =
      run_purecc("--report " + shell_quote(red_path));
  ASSERT_EQ(strict.exit_code, 0) << strict.output;
  EXPECT_EQ(strict.output.find("#pragma omp"), std::string::npos);
  EXPECT_NE(strict.output.find("--fp-reductions"), std::string::npos)
      << strict.output;

  // Opt-in: the pragma appears and the report names the reduction.
  const RunResult relaxed =
      run_purecc("--fp-reductions --report " + shell_quote(red_path));
  ASSERT_EQ(relaxed.exit_code, 0) << relaxed.output;
  EXPECT_NE(relaxed.output.find(
                "#pragma omp parallel for reduction(+:sum)"),
            std::string::npos)
      << relaxed.output;
  EXPECT_NE(relaxed.output.find("reduction=+:sum"), std::string::npos)
      << relaxed.output;
}

}  // namespace
