// Pool-overhead microbenchmark (the runtime substrate's region-launch
// contract), emitting machine-readable BENCH_schedule_sweep.json.
//
// Region-launch latency — an empty parallel region, fork + join — of the
// spin-then-park FunctionRef pool at 1/2/4/8 workers, once under its
// default policy (OS threads capped at the hardware concurrency, surplus
// worker indices folded in — see thread_pool.h) and once with
// PUREC_OVERSUBSCRIBE=1 forcing one OS thread per worker.
//
// JSON schema: see EXPERIMENTS.md ("Schedule sweep"). Output path:
// $PUREC_BENCH_JSON or ./BENCH_schedule_sweep.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/thread_pool.h"

namespace {

using purec::bench::json_number;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ns per empty fork/join region, best of `reps` batches. Pool
/// construction and teardown are excluded; a short warmup gets every
/// worker through its first park.
double measure_region_ns(purec::rt::ThreadPool& pool, int regions,
                         int reps) {
  for (int r = 0; r < 200; ++r) pool.run_on_all([](std::size_t) {});
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < regions; ++r) pool.run_on_all([](std::size_t) {});
    const double ns = seconds_since(start) * 1e9 / regions;
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

struct OverheadRow {
  const char* pool;
  int threads;
  int os_threads;
  double ns_per_region;
};

}  // namespace

int main() {
  const bool smoke = purec::bench::smoke_scale();
  const int regions = smoke ? 2000 : 20000;
  const int reps = purec::bench::repetitions();

  std::vector<OverheadRow> overhead;
  std::printf("pool overhead: %d empty regions/config, best of %d\n",
              regions, reps);
  std::printf("%-10s%16s%18s\n", "threads", "spin+park", "spin+park oversub");
  for (const int threads : {1, 2, 4, 8}) {
    double current_ns = 0.0;
    int current_os_threads = 0;
    {
      purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
      current_os_threads = static_cast<int>(pool.os_thread_count());
      current_ns = measure_region_ns(pool, regions, reps);
    }
    double oversub_ns = 0.0;
    {
      setenv("PUREC_OVERSUBSCRIBE", "1", 1);
      purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
      unsetenv("PUREC_OVERSUBSCRIBE");
      oversub_ns = measure_region_ns(pool, regions, reps);
    }
    overhead.push_back(
        {"spin_park", threads, current_os_threads, current_ns});
    overhead.push_back({"spin_park_oversub", threads, threads, oversub_ns});
    std::printf("%-10d%13.0f ns%15.0f ns\n", threads, current_ns, oversub_ns);
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_schedule_sweep.json";
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "schedule_sweep: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"schedule_sweep\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"regions\": %d,\n", regions);
  std::fprintf(out, "  \"repetitions\": %d,\n", reps);
  std::fprintf(out, "  \"pool_overhead\": [\n");
  for (std::size_t i = 0; i < overhead.size(); ++i) {
    const OverheadRow& row = overhead[i];
    std::fprintf(out,
                 "    {\"pool\": \"%s\", \"threads\": %d, "
                 "\"os_threads\": %d, \"ns_per_region\": %s}%s\n",
                 row.pool, row.threads, row.os_threads,
                 json_number(row.ns_per_region).c_str(),
                 i + 1 < overhead.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
