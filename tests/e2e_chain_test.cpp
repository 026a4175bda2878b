// End-to-end differential harness over the full purecc chain.
//
// For every fixture in tests/test_sources.h and every paper listing in
// assets/c/, and for every transform configuration (pluto|sica × tiling
// on/off × --inline-pure on/off):
//
//   1. Golden: the emitted C is byte-compared against a checked-in file
//      under tests/e2e/golden/, with each embedded runtime section folded
//      to one hash line (pin_runtime_sections). Regenerate with
//      PUREC_UPDATE_GOLDEN=1.
//   2. Differential: runnable fixtures are compiled with the host gcc
//      (-fopenmp; skipped when gcc is unavailable) in a serial reference
//      configuration and in every parallel configuration, and the printed
//      checksums must match exactly, at one thread and at one thread per
//      core.
//
// Fixtures the chain must reject (Listing 2's invalid operations, Listing
// 5's write-target argument) pin the rejection in every configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "e2e/e2e_fixtures.h"
#include "transform/pure_chain.h"

#ifndef PUREC_REPO_DIR
#error "build must define PUREC_REPO_DIR (the repository root)"
#endif

namespace purec::e2e {
namespace {

struct Config {
  const char* name;
  TransformMode mode;
  bool tile;
  bool inline_pure;
};

constexpr std::array<Config, 8> kConfigs = {{
    {"pluto_tile", TransformMode::Pluto, true, false},
    {"pluto_notile", TransformMode::Pluto, false, false},
    {"pluto_tile_inline", TransformMode::Pluto, true, true},
    {"pluto_notile_inline", TransformMode::Pluto, false, true},
    {"sica_tile", TransformMode::PlutoSica, true, false},
    {"sica_notile", TransformMode::PlutoSica, false, false},
    {"sica_tile_inline", TransformMode::PlutoSica, true, true},
    {"sica_notile_inline", TransformMode::PlutoSica, false, true},
}};

ChainOptions options_for(const Config& config, const Fixture& fixture) {
  ChainOptions options;
  options.mode = config.mode;
  options.tile = config.tile;
  options.inline_pure_expressions = config.inline_pure;
  options.infer_purity = fixture.infer;
  options.memoize = fixture.memoize;
  options.fp_reductions = fixture.fp_reductions;
  if (fixture.schedule != nullptr) {
    const std::optional<ScheduleSpec> spec =
        ScheduleSpec::parse(fixture.schedule);
    EXPECT_TRUE(spec.has_value()) << fixture.schedule;
    if (spec) options.schedule = *spec;
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::string chain_source_of(const Fixture& fixture) {
  if (!fixture.chain_source_is_path) return fixture.chain_source;
  const std::string path =
      std::string(PUREC_REPO_DIR) + "/" + fixture.chain_source;
  std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "cannot read asset " << path;
  return text;
}

std::string golden_path(const Fixture& fixture, const Config& config) {
  return std::string(PUREC_REPO_DIR) + "/tests/e2e/golden/" + fixture.name +
         "__" + config.name + ".c";
}

/// Replaces each embedded runtime section (the text from its
/// `/* purec-rt:begin NAME */` line through its `/* purec-rt:end NAME */`
/// line) with one line carrying the section's FNV-1a 64 hash. Goldens
/// then pin the thunks and the lowered program verbatim and the runtime
/// by hash: any change to the runtime text still fails, as a one-line
/// diff, instead of re-pinning the runtime in every memo golden.
std::string pin_runtime_sections(const std::string& source) {
  const std::string begin = "/* purec-rt:begin ";
  std::string out;
  std::size_t at = 0;
  for (;;) {
    const std::size_t start = source.find(begin, at);
    if (start == std::string::npos) break;
    const std::size_t name_end = source.find(" */", start);
    const std::string name =
        source.substr(start + begin.size(), name_end - start - begin.size());
    const std::string end_marker = "/* purec-rt:end " + name + " */\n";
    const std::size_t end = source.find(end_marker, name_end);
    if (end == std::string::npos) break;
    const std::size_t stop = end + end_marker.size();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = start; i < stop; ++i) {
      hash ^= static_cast<unsigned char>(source[i]);
      hash *= 0x100000001b3ULL;
    }
    char line[80];
    std::snprintf(line, sizeof(line), "/* purec-rt:%s fnv64=%016llx */\n",
                  name.c_str(), static_cast<unsigned long long>(hash));
    out.append(source, at, start - at);
    out += line;
    at = stop;
  }
  out.append(source, at, std::string::npos);
  return out;
}

bool update_golden() {
  const char* env = std::getenv("PUREC_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

/// Single-quotes a path for safe interpolation into a popen command line
/// (TempDir may contain spaces or shell metacharacters).
std::string shell_quote(const std::string& path) {
  return "'" + path + "'";
}

bool gcc_available() {
  FILE* p = popen("gcc --version > /dev/null 2>&1 && echo yes", "r");
  if (p == nullptr) return false;
  std::array<char, 16> buf{};
  const bool ok = fgets(buf.data(), buf.size(), p) != nullptr &&
                  std::string(buf.data()).find("yes") == 0;
  pclose(p);
  return ok;
}

/// Binaries and run outputs keyed by the exact emitted C (outputs also by
/// the run's environment). Many configurations emit byte-identical
/// programs (tiling that does not apply, --inline-pure with nothing to
/// inline, the shared serial reference), and every chain run is
/// deterministic — so one gcc compile per distinct source suffices.
/// Cuts the harness's gcc invocations roughly in half as the corpus grows.
struct RunCache {
  std::map<std::string, std::string> binaries;
  std::map<std::string, std::string> outputs;
};

RunCache& run_cache() {
  static auto* cache = new RunCache();
  return *cache;
}

/// Runs `cmd` through the shell; returns stdout+stderr and sets *rc.
std::string capture(const std::string& cmd, int* rc) {
  *rc = -1;
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return {};
  std::string output;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), buf.size(), p) != nullptr) {
    output += buf.data();
  }
  *rc = pclose(p);
  return output;
}

/// Runs `cmd`, expecting exit status 0; returns stdout+stderr.
std::string run_ok(const std::string& cmd) {
  int rc = 0;
  const std::string output = capture(cmd, &rc);
  EXPECT_EQ(rc, 0) << cmd << "\n" << output;
  return output;
}

/// Compiles `source` with gcc -fopenmp (once per distinct source) and
/// runs it with `env` (e.g. "OMP_NUM_THREADS=1 ") in front of the command;
/// returns stdout+stderr. Returns an empty string (with test failures
/// recorded) when the compile or run fails.
std::string compile_and_run(const std::string& source, const std::string& tag,
                            const std::string& env = "") {
  RunCache& cache = run_cache();
  const std::string key = env + "\n" + source;
  const auto cached = cache.outputs.find(key);
  if (cached != cache.outputs.end()) return cached->second;
  auto bin = cache.binaries.find(source);
  if (bin == cache.binaries.end()) {
    const std::string dir = ::testing::TempDir();
    const std::string c_path = dir + "/purec_e2e_" + tag + ".c";
    const std::string bin_path = dir + "/purec_e2e_" + tag + ".bin";
    {
      std::ofstream out(c_path);
      out << source;
    }
    int compile_rc = 0;
    const std::string compile_output =
        capture("gcc -O2 -fopenmp -o " + shell_quote(bin_path) + " " +
                    shell_quote(c_path) + " -lm",
                &compile_rc);
    EXPECT_EQ(compile_rc, 0) << "gcc failed:\n"
                             << compile_output << "\nsource:\n"
                             << source;
    if (compile_rc != 0) return {};
    bin = cache.binaries.emplace(source, bin_path).first;
  }

  int run_rc = 0;
  const std::string output = capture(env + shell_quote(bin->second), &run_rc);
  EXPECT_EQ(run_rc, 0) << "binary failed (" << env << "):\n" << output;
  // Only successful runs are cacheable: a crashed binary must fail the
  // exit-status assertion again in every configuration that hits it.
  if (run_rc == 0) cache.outputs[key] = output;
  return output;
}

class E2EChainTest : public ::testing::TestWithParam<Fixture> {};

TEST_P(E2EChainTest, GoldenEmittedC) {
  const Fixture& fixture = GetParam();
  const std::string source = chain_source_of(fixture);
  ASSERT_FALSE(source.empty());

  for (const Config& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const ChainArtifacts artifacts =
        run_pure_chain(source, options_for(config, fixture));
    if (!fixture.ok_with(config.inline_pure)) {
      EXPECT_FALSE(artifacts.ok)
          << fixture.name << " must be rejected in this configuration";
      EXPECT_TRUE(artifacts.diagnostics.has_errors());
      continue;
    }
    ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
    ASSERT_FALSE(artifacts.final_source.empty());

    const std::string path = golden_path(fixture, config);
    const std::string pinned = pin_runtime_sections(artifacts.final_source);
    if (update_golden()) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << pinned;
      continue;
    }
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << " — regenerate with PUREC_UPDATE_GOLDEN=1 ctest -R e2e";
    EXPECT_EQ(pinned, golden)
        << "emitted C drifted from " << path
        << " — if intentional, regenerate with PUREC_UPDATE_GOLDEN=1";
  }
}

TEST_P(E2EChainTest, SerialVsParallelDifferential) {
  const Fixture& fixture = GetParam();
  if (fixture.runnable == nullptr) {
    if (!fixture.expect_ok) {
      // The rejection (pinned per config above) is this fixture's whole
      // end-to-end contract: no parallel binary may exist.
      const ChainArtifacts artifacts =
          run_pure_chain(chain_source_of(fixture));
      EXPECT_FALSE(artifacts.ok);
      return;
    }
    GTEST_SKIP() << fixture.name << " has no runnable variant";
  }
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";

  // Serial reference: no parallelization, no tiling. Fixtures the default
  // chain rejects (Listing 5) only have an inlined serial form.
  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  serial_options.inline_pure_expressions = !fixture.expect_ok;
  serial_options.infer_purity = fixture.infer;
  const ChainArtifacts serial =
      run_pure_chain(fixture.runnable, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source,
                      std::string(fixture.name) + "_ref");
  ASSERT_FALSE(reference.empty()) << "serial reference produced no output";

  for (const Config& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const ChainArtifacts parallel =
        run_pure_chain(fixture.runnable, options_for(config, fixture));
    if (!fixture.ok_with(config.inline_pure)) {
      EXPECT_FALSE(parallel.ok)
          << fixture.name << " must be rejected in this configuration";
      continue;
    }
    ASSERT_TRUE(parallel.ok) << parallel.diagnostics.format();
    // One thread shows a wrong transformation (an illegal fusion, say)
    // without any race; the OpenMP default, one thread per core, shows
    // the races too.
    for (const char* threads : {"OMP_NUM_THREADS=1 ", ""}) {
      SCOPED_TRACE(*threads != 0 ? threads : "one thread per core");
      const std::string output = compile_and_run(
          parallel.final_source,
          std::string(fixture.name) + "_" + config.name, threads);
      EXPECT_EQ(output, reference)
          << "parallel binary diverged from serial reference\n"
          << parallel.final_source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFixtures, E2EChainTest, ::testing::ValuesIn(all_fixtures()),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return std::string(info.param.name);
    });

// --instrument end to end: the counters must not perturb the computation,
// the exit dump must name every parallel region, and PUREC_TRACE must
// produce a Chrome-loadable trace-event file instead of the human summary.
TEST(E2EInstrument, InstrumentedDifferentialAndChromeTrace) {
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";
  const std::vector<Fixture> fixtures = all_fixtures();
  const auto it = std::find_if(
      fixtures.begin(), fixtures.end(),
      [](const Fixture& f) { return std::string(f.name) == "satellite"; });
  ASSERT_NE(it, fixtures.end());

  // Serial reference, uninstrumented.
  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  const ChainArtifacts serial =
      run_pure_chain(it->runnable, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source, "instr_ref");
  ASSERT_NE(reference.find("checksum"), std::string::npos);

  // Parallel + instrumented.
  ChainOptions options;
  options.instrument = true;
  const ChainArtifacts instrumented =
      run_pure_chain(it->runnable, options);
  ASSERT_TRUE(instrumented.ok) << instrumented.diagnostics.format();
  ASSERT_FALSE(instrumented.instrumented_regions.empty());

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_instr.c";
  const std::string bin_path = dir + "/purec_e2e_instr.bin";
  const std::string trace_path = dir + "/purec_e2e_instr_trace.json";
  {
    std::ofstream out(c_path);
    out << instrumented.final_source;
  }
  run_ok("gcc -O2 -fopenmp -o " + shell_quote(bin_path) + " " +
         shell_quote(c_path) + " -lm");

  // Plain run: human counter summary on stderr + the untouched checksum.
  const std::string summary_run = run_ok(shell_quote(bin_path));
  EXPECT_NE(summary_run.find(reference), std::string::npos) << summary_run;
  EXPECT_NE(summary_run.find("purec-instr["), std::string::npos)
      << summary_run;
  for (const std::string& region : instrumented.instrumented_regions) {
    EXPECT_NE(summary_run.find("purec-instr[" + region + "]"),
              std::string::npos)
        << summary_run;
  }

  // Traced run: the summary is replaced by a Chrome trace-event file.
  std::remove(trace_path.c_str());
  const std::string traced_run = run_ok(
      "PUREC_TRACE=" + shell_quote(trace_path) + " " +
      shell_quote(bin_path));
  EXPECT_EQ(traced_run, reference) << traced_run;
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty()) << "PUREC_TRACE wrote nothing";
  // Cooperative array format: a bare JSON array of events, opened with
  // '[' and closed with ']' after every dump, so a second instrumented
  // run can splice its events in.
  EXPECT_EQ(trace.rfind("[", 0), 0u) << trace.substr(0, 120);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos)
      << "no metadata events in the trace";
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos)
      << "no duration events in the trace";
  EXPECT_NE(trace.find("\"region_id\":"), std::string::npos)
      << "duration events carry no region_id join key";
  const auto last_bracket = trace.find_last_not_of(" \n\r\t");
  ASSERT_NE(last_bracket, std::string::npos);
  EXPECT_EQ(trace[last_bracket], ']')
      << "trace is not a closed JSON array";

  // A second traced run against the SAME path must append cooperatively:
  // still one valid array, now with both runs' events.
  const std::string twice_run = run_ok(
      "PUREC_TRACE=" + shell_quote(trace_path) + " " +
      shell_quote(bin_path));
  EXPECT_EQ(twice_run, reference) << twice_run;
  const std::string merged = read_file(trace_path);
  EXPECT_GT(merged.size(), trace.size());
  EXPECT_EQ(merged.rfind("[", 0), 0u);
  const auto merged_last = merged.find_last_not_of(" \n\r\t");
  ASSERT_NE(merged_last, std::string::npos);
  EXPECT_EQ(merged[merged_last], ']')
      << "second dump corrupted the cooperative array";
  // Two dumps -> two process_name metadata events.
  std::size_t meta_count = 0;
  for (std::size_t at = merged.find("\"process_name\"");
       at != std::string::npos;
       at = merged.find("\"process_name\"", at + 1)) {
    ++meta_count;
  }
  EXPECT_EQ(meta_count, 2u);

  // PUREC_STATS_FILE is an append-mode sink: two runs dumping into one
  // file must interleave as whole summaries (every region line present
  // twice), so a batch of experiments can share one log.
  const std::string stats_path = dir + "/purec_e2e_instr_stats.log";
  std::remove(stats_path.c_str());
  for (int run = 0; run < 2; ++run) {
    const std::string stats_run = run_ok(
        "PUREC_STATS_FILE=" + shell_quote(stats_path) + " " +
        shell_quote(bin_path));
    EXPECT_EQ(stats_run, reference) << stats_run;
  }
  const std::string stats_log = read_file(stats_path);
  ASSERT_FALSE(stats_log.empty()) << "PUREC_STATS_FILE wrote nothing";
  for (const std::string& region : instrumented.instrumented_regions) {
    const std::string needle = "purec-instr[" + region + "]";
    std::size_t line_count = 0;
    for (std::size_t at = stats_log.find(needle); at != std::string::npos;
         at = stats_log.find(needle, at + 1)) {
      ++line_count;
    }
    EXPECT_EQ(line_count, 2u) << needle << " in:\n" << stats_log;
  }
  // The histogram percentiles ride along in the summary lines.
  EXPECT_NE(stats_log.find("p99_ns="), std::string::npos) << stats_log;
}

// Process-shared persistent memoization end to end: two concurrent
// processes of the emitted tabulate_memo binary attach one
// PUREC_MEMO_PATH file, and each must print exactly the unmemoized
// serial checksum (the acceptance bar for the shared cache). A third
// run against the now-warm file must serve pure hits, and a corrupted
// file must degrade to a private table — never to wrong results.
TEST(E2EMemoShared, TwoProcessesShareOnePersistentCacheExactly) {
  if (!gcc_available()) GTEST_SKIP() << "no system gcc";

  // Unmemoized serial reference.
  ChainOptions serial_options;
  serial_options.parallelize = false;
  serial_options.tile = false;
  const ChainArtifacts serial = run_pure_chain(kRunTabulate, serial_options);
  ASSERT_TRUE(serial.ok) << serial.diagnostics.format();
  const std::string reference =
      compile_and_run(serial.final_source, "memo_shared_ref");
  ASSERT_NE(reference.find("checksum"), std::string::npos);

  // Memoized parallel binary.
  ChainOptions memo_options;
  memo_options.memoize = true;
  const ChainArtifacts memo = run_pure_chain(kRunTabulate, memo_options);
  ASSERT_TRUE(memo.ok) << memo.diagnostics.format();

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/purec_e2e_memo_shared.c";
  const std::string bin_path = dir + "/purec_e2e_memo_shared.bin";
  const std::string cache_path = dir + "/purec_e2e_memo_shared.cache";
  const std::string out_a = dir + "/purec_e2e_memo_shared_a.txt";
  const std::string out_b = dir + "/purec_e2e_memo_shared_b.txt";
  {
    std::ofstream out(c_path);
    out << memo.final_source;
  }
  run_ok("gcc -O2 -fopenmp -o " + shell_quote(bin_path) + " " +
         shell_quote(c_path) + " -lm");

  // Two concurrent attachers racing on a fresh file: whoever wins the
  // flock initializes it, the other validates and joins. The compound
  // command lives in a script file so the paths stay safely quoted.
  std::remove(cache_path.c_str());
  const std::string env = "PUREC_MEMO_PATH=" + shell_quote(cache_path);
  const std::string script_path = dir + "/purec_e2e_memo_shared.sh";
  {
    std::ofstream out(script_path);
    const std::string one = env + " " + shell_quote(bin_path);
    out << one << " > " << shell_quote(out_a) << " 2>&1 &\n"
        << one << " > " << shell_quote(out_b) << " 2>&1 &\n"
        << "wait\n";
  }
  run_ok("sh " + shell_quote(script_path));
  std::remove(script_path.c_str());
  EXPECT_EQ(read_file(out_a), reference)
      << "first shared-cache process diverged from the serial reference";
  EXPECT_EQ(read_file(out_b), reference)
      << "second shared-cache process diverged from the serial reference";

  // The file now holds every distinct key: a third process must match
  // the reference AND report zero misses in its stats dump.
  const std::string warm = run_ok(
      env + " PUREC_MEMO_STATS=1 " + shell_quote(bin_path));
  EXPECT_NE(warm.find(reference), std::string::npos) << warm;
  EXPECT_NE(warm.find("purec-memo[shade] hits=4096 misses=0"),
            std::string::npos)
      << "warm shared file did not serve pure hits:\n"
      << warm;

  // Corrupt the header: attach must fall back to a private table and
  // still produce the exact result.
  {
    std::ofstream out(cache_path, std::ios::binary | std::ios::trunc);
    out << "not a purec memo cache";
  }
  const std::string corrupt_run = run_ok(env + " " + shell_quote(bin_path));
  EXPECT_EQ(corrupt_run, reference)
      << "corrupt cache file must degrade to a private table";
  std::remove(cache_path.c_str());
}

// tier1 smoke guard: the region-SCoP fixtures must stay in the corpus as
// *runnable* differentials — if one loses its runnable variant (or gets
// dropped from the table), the checksum-identity contract above would
// silently stop being checked for it.
TEST(E2ECorpus, RegionFixturesKeepRunnableDifferentials) {
  const std::vector<Fixture> fixtures = all_fixtures();
  for (const char* name :
       {"guarded_update", "while_loop", "imperfect_nest", "strided_lower",
        "dot_reduce", "min_reduce", "guarded_reduce", "fission_split",
        "fused_siblings", "private_tmp", "disjunctive_guard",
        "pure_reader_after_writer", "matmul_row_setup",
        "global_reader_after_writer"}) {
    const auto it = std::find_if(
        fixtures.begin(), fixtures.end(),
        [&](const Fixture& f) { return std::string(f.name) == name; });
    ASSERT_NE(it, fixtures.end()) << name << " missing from the corpus";
    EXPECT_TRUE(it->expect_ok) << name;
    EXPECT_NE(it->runnable, nullptr)
        << name << " must keep a serial-vs-parallel differential";
  }
}

}  // namespace
}  // namespace purec::e2e
