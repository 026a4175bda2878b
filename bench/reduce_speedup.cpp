// Scalar-reduction speedup harness (the reduction-recognition perf
// contract), emitting machine-readable BENCH_reduce.json.
//
// Two kernels the chain now parallelizes via reduction clauses instead of
// mis-serializing:
//   dot  — float dot product folded with `+` (the dot_reduce fixture's
//          runtime twin: parallel_reduce over a pure combiner)
//   min  — float minimum folded with fminf-style min
// Each runs serially and through parallel_reduce at 1/2/4/8 threads
// (clamped by PUREC_MAX_THREADS) under the static, guided and stealing
// schedules. Inputs are integer-valued floats with totals far below 2^24,
// so + is exact in any association order and every parallel checksum must
// equal the serial one bit for bit — a mismatch is a reduction-combine
// bug and the harness exits nonzero.
//
// JSON schema: see EXPERIMENTS.md ("Reduction speedup"). Output path:
// $PUREC_BENCH_JSON or ./BENCH_reduce.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace {

using purec::bench::json_number;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string kernel;
  std::string schedule;
  int threads;  // 0 = the serial reference
  double seconds;
  double checksum;
};

/// Best-of-PUREC_REPS wall time for one run of `work()`, which returns
/// the checksum (also verified to be identical across repetitions).
template <class Work>
Row time_best(const std::string& kernel, const std::string& schedule,
              int threads, Work&& work) {
  const int reps = purec::bench::repetitions();
  double best = 0.0;
  double checksum = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const double value = work();
    const double elapsed = seconds_since(start);
    if (r == 0 || elapsed < best) best = elapsed;
    checksum = value;
  }
  return {kernel, schedule, threads, best, checksum};
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const bool smoke = purec::bench::smoke_scale();
  const std::int64_t n = purec::bench::scaled_size(1 << 26, 1 << 24, 1 << 16);

  // Integer-valued inputs: products stay <= 120, and n * 120 < 2^33 fits a
  // double-precision accumulator exactly, so the float partials combined
  // into double totals are order-independent.
  std::vector<float> a(static_cast<std::size_t>(n));
  std::vector<float> b(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>((i * 7 + 3) % 11);
    b[static_cast<std::size_t>(i)] = static_cast<float>((i * 5 + 2) % 13);
  }

  const auto dot_body = [&](std::int64_t i) {
    return static_cast<double>(a[static_cast<std::size_t>(i)]) *
           static_cast<double>(b[static_cast<std::size_t>(i)]);
  };
  const auto min_body = [&](std::int64_t i) {
    return static_cast<double>(a[static_cast<std::size_t>(i)]) -
           static_cast<double>(b[static_cast<std::size_t>(i)]);
  };
  const auto plus = [](double x, double y) { return x + y; };
  const auto min = [](double x, double y) { return x < y ? x : y; };

  std::vector<Row> rows;

  // Serial references: plain accumulation loops, no pool.
  rows.push_back(time_best("dot", "serial", 0, [&] {
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) sum += dot_body(i);
    return sum;
  }));
  rows.push_back(time_best("min", "serial", 0, [&] {
    double lo = min_body(0);
    for (std::int64_t i = 1; i < n; ++i) lo = min(lo, min_body(i));
    return lo;
  }));
  const double dot_serial = rows[0].checksum;
  const double min_serial = rows[1].checksum;
  const double dot_serial_s = rows[0].seconds;
  const double min_serial_s = rows[1].seconds;

  struct Sched {
    const char* name;
    purec::rt::ForOptions options;
  };
  const Sched schedules[] = {
      {"static", {purec::rt::Schedule::Static, 1}},
      {"guided4", {purec::rt::Schedule::Guided, 4}},
      {"stealing", {purec::rt::Schedule::Dynamic, 1024, /*stealing=*/true}},
  };

  std::printf("reduce speedup: n=%lld, best of %d rep(s)\n",
              static_cast<long long>(n), purec::bench::repetitions());
  std::printf("%-8s%-10s%8s%12s%10s\n", "kernel", "schedule", "threads",
              "ms", "speedup");
  std::printf("%-8s%-10s%8s%12.1f%10s\n", "dot", "serial", "-",
              dot_serial_s * 1e3, "1.00x");
  std::printf("%-8s%-10s%8s%12.1f%10s\n", "min", "serial", "-",
              min_serial_s * 1e3, "1.00x");

  for (const int threads : purec::bench::thread_ladder(8)) {
    purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
    for (const Sched& sched : schedules) {
      const Row dot_row = time_best("dot", sched.name, threads, [&] {
        return purec::rt::parallel_reduce(pool, 0, n, 0.0, plus, dot_body,
                                          sched.options);
      });
      const Row min_row = time_best("min", sched.name, threads, [&] {
        return purec::rt::parallel_reduce(pool, 0, n, min_body(0), min,
                                          min_body, sched.options);
      });
      std::printf("%-8s%-10s%8d%12.1f%9.2fx\n", "dot", sched.name, threads,
                  dot_row.seconds * 1e3, dot_serial_s / dot_row.seconds);
      std::printf("%-8s%-10s%8d%12.1f%9.2fx\n", "min", sched.name, threads,
                  min_row.seconds * 1e3, min_serial_s / min_row.seconds);
      rows.push_back(dot_row);
      rows.push_back(min_row);
    }
  }

  // Exact cross-validation: every parallel fold must reproduce the serial
  // checksum bit for bit (the data makes + order-independent; min always
  // is). A drift is a combine bug, not noise.
  bool checksums_ok = true;
  for (const Row& row : rows) {
    const double expected = row.kernel == "dot" ? dot_serial : min_serial;
    if (row.checksum != expected) {
      std::fprintf(stderr,
                   "reduce_speedup: checksum mismatch for %s/%s@%d "
                   "(%.6f vs %.6f)\n",
                   row.kernel.c_str(), row.schedule.c_str(), row.threads,
                   row.checksum, expected);
      checksums_ok = false;
    }
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_reduce.json";
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "reduce_speedup: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"reduce_speedup\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"n\": %lld,\n", static_cast<long long>(n));
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"schedule\": \"%s\", "
                 "\"threads\": %d, \"seconds\": %s, \"checksum\": %s}%s\n",
                 row.kernel.c_str(), row.schedule.c_str(), row.threads,
                 json_number(row.seconds).c_str(),
                 json_number(row.checksum).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  return checksums_ok ? 0 : 1;
}
