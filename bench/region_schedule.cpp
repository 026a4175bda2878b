// Region-scheduling A/B harness (the fission / fusion / privatization
// perf contract), emitting machine-readable BENCH_region_schedule.json.
//
// Three kernels, each timed in the shape the chain used to emit (the
// "before" variant) and the shape the region scheduler now emits:
//   fusion  — two adjacent maps over one input: two parallel passes
//             ("unfused") vs one fused pass ("fused")
//   fission — a prefix scan plus an independent map in one loop: the
//             whole nest serial ("serialized", the pre-distribution
//             outcome) vs serial scan + parallel map ("fissioned")
//   private — a temp-carrying imperfect nest: serial outer loop
//             ("serialized") vs parallel outer loop with a per-iteration
//             private temporary ("privatized")
// Inputs are integer-valued floats and no variant reassociates a
// floating-point fold, so every variant at every thread count must
// reproduce the serial checksum bit for bit — a mismatch is a scheduling
// bug and the harness exits nonzero.
//
// JSON schema: see EXPERIMENTS.md ("Region scheduling"). Output path:
// $PUREC_BENCH_JSON or ./BENCH_region_schedule.json.
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
  std::string variant;
  int threads;  // 0 = the serial reference / before-shape
  double seconds;
  double checksum;
};

/// Best-of-PUREC_REPS wall time for `work()` (the kernel only); the
/// checksum fold runs after the clock stops so the measured region is
/// exactly what the chain's scheduling decision changes.
template <class Work, class Sum>
Row time_best(const std::string& kernel, const std::string& variant,
              int threads, Work&& work, Sum&& sum) {
  const int reps = purec::bench::repetitions();
  double best = 0.0;
  double checksum = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    work();
    const double elapsed = seconds_since(start);
    if (r == 0 || elapsed < best) best = elapsed;
    checksum = sum();
  }
  return {kernel, variant, threads, best, checksum};
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const bool smoke = purec::bench::smoke_scale();
  const std::int64_t n =
      purec::bench::scaled_size(1 << 25, 1 << 23, 1 << 15);
  const std::int64_t m = 64;  // inner extent of the private-temp nest
  const std::int64_t rows_n = n / m;

  std::vector<float> x(static_cast<std::size_t>(n));
  std::vector<float> a(static_cast<std::size_t>(n));
  std::vector<float> b(static_cast<std::size_t>(n));
  std::vector<float> acc(static_cast<std::size_t>(n));
  std::vector<float> out(static_cast<std::size_t>(n));
  std::vector<float> w(static_cast<std::size_t>(m));
  std::vector<float> grid(static_cast<std::size_t>(rows_n * m));
  for (std::int64_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = static_cast<float>((i * 7 + 3) % 23);
  for (std::int64_t j = 0; j < m; ++j)
    w[static_cast<std::size_t>(j)] = static_cast<float>((j * 5 + 2) % 13);

  // Checksums fold into doubles with a position weight so a variant that
  // scrambles *where* values land (not just what they are) also trips.
  const auto sum_fusion = [&] {
    double c = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      c += static_cast<double>(a[static_cast<std::size_t>(i)]) * (i % 5) +
           static_cast<double>(b[static_cast<std::size_t>(i)]);
    return c;
  };
  const auto sum_fission = [&] {
    double c = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      c += static_cast<double>(acc[static_cast<std::size_t>(i)]) * (i % 3) +
           static_cast<double>(out[static_cast<std::size_t>(i)]);
    return c;
  };
  const auto sum_private = [&] {
    double c = 0.0;
    for (std::int64_t i = 0; i < rows_n * m; ++i)
      c += static_cast<double>(grid[static_cast<std::size_t>(i)]) *
           (i % 7 + 1);
    return c;
  };

  // The scan seed must be identical across variants.
  const auto reset_scan = [&] {
    acc[0] = x[0];
  };

  std::vector<Row> rows;

  // -- Serial references (also the "before" shapes at threads=0) -----------
  rows.push_back(time_best(
      "fusion", "serial", 0,
      [&] {
        for (std::int64_t i = 0; i < n; ++i) {
          const std::size_t s = static_cast<std::size_t>(i);
          a[s] = 2.0f * x[s];
          b[s] = x[s] + 3.0f;
        }
      },
      sum_fusion));
  rows.push_back(time_best(
      "fission", "serialized", 0,
      [&] {
        reset_scan();
        for (std::int64_t i = 0; i < n; ++i) {
          const std::size_t s = static_cast<std::size_t>(i);
          if (i > 0) acc[s] = acc[s - 1] + x[s];
          out[s] = 2.0f * x[s];
        }
      },
      sum_fission));
  rows.push_back(time_best(
      "private", "serialized", 0,
      [&] {
        for (std::int64_t i = 0; i < rows_n; ++i) {
          const float t = 0.5f * x[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < m; ++j)
            grid[static_cast<std::size_t>(i * m + j)] =
                t * w[static_cast<std::size_t>(j)];
        }
      },
      sum_private));
  const double fusion_ref = rows[0].checksum;
  const double fission_ref = rows[1].checksum;
  const double private_ref = rows[2].checksum;
  const double fusion_ref_s = rows[0].seconds;
  const double fission_ref_s = rows[1].seconds;
  const double private_ref_s = rows[2].seconds;

  std::printf("region schedule: n=%lld, best of %d rep(s)\n",
              static_cast<long long>(n), purec::bench::repetitions());
  std::printf("%-10s%-12s%8s%12s%10s\n", "kernel", "variant", "threads",
              "ms", "speedup");
  for (const Row& row : rows)
    std::printf("%-10s%-12s%8s%12.1f%10s\n", row.kernel.c_str(),
                row.variant.c_str(), "-", row.seconds * 1e3, "1.00x");

  for (const int threads : purec::bench::thread_ladder(8)) {
    purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));

    // fusion: two parallel passes (what separate nests cost) vs the one
    // fused pass the chain now emits.
    const Row unfused = time_best(
        "fusion", "unfused", threads,
        [&] {
          purec::rt::parallel_for(pool, 0, n, [&](std::int64_t i) {
            const std::size_t s = static_cast<std::size_t>(i);
            a[s] = 2.0f * x[s];
          });
          purec::rt::parallel_for(pool, 0, n, [&](std::int64_t i) {
            const std::size_t s = static_cast<std::size_t>(i);
            b[s] = x[s] + 3.0f;
          });
        },
        sum_fusion);
    const Row fused = time_best(
        "fusion", "fused", threads,
        [&] {
          purec::rt::parallel_for(pool, 0, n, [&](std::int64_t i) {
            const std::size_t s = static_cast<std::size_t>(i);
            a[s] = 2.0f * x[s];
            b[s] = x[s] + 3.0f;
          });
        },
        sum_fusion);

    // fission: distribution leaves the scan serial but frees the map.
    const Row fissioned = time_best(
        "fission", "fissioned", threads,
        [&] {
          reset_scan();
          for (std::int64_t i = 1; i < n; ++i) {
            const std::size_t s = static_cast<std::size_t>(i);
            acc[s] = acc[s - 1] + x[s];
          }
          purec::rt::parallel_for(pool, 0, n, [&](std::int64_t i) {
            const std::size_t s = static_cast<std::size_t>(i);
            out[s] = 2.0f * x[s];
          });
        },
        sum_fission);

    // private: the outer loop parallelizes once the temp is private.
    const Row privatized = time_best(
        "private", "privatized", threads,
        [&] {
          purec::rt::parallel_for(pool, 0, rows_n, [&](std::int64_t i) {
            const float t = 0.5f * x[static_cast<std::size_t>(i)];
            for (std::int64_t j = 0; j < m; ++j)
              grid[static_cast<std::size_t>(i * m + j)] =
                  t * w[static_cast<std::size_t>(j)];
          });
        },
        sum_private);

    for (const Row* row : {&unfused, &fused, &fissioned, &privatized}) {
      const double ref_s = row->kernel == "fusion"    ? fusion_ref_s
                           : row->kernel == "fission" ? fission_ref_s
                                                      : private_ref_s;
      std::printf("%-10s%-12s%8d%12.1f%9.2fx\n", row->kernel.c_str(),
                  row->variant.c_str(), row->threads, row->seconds * 1e3,
                  ref_s / row->seconds);
      rows.push_back(*row);
    }
  }

  // Exact cross-validation: each kernel's outputs are order-independent
  // (every element written exactly once, no reassociated folds), so any
  // checksum drift is a scheduling bug, not noise.
  bool checksums_ok = true;
  for (const Row& row : rows) {
    const double expected = row.kernel == "fusion"    ? fusion_ref
                            : row.kernel == "fission" ? fission_ref
                                                      : private_ref;
    if (row.checksum != expected) {
      std::fprintf(stderr,
                   "region_schedule: checksum mismatch for %s/%s@%d "
                   "(%.6f vs %.6f)\n",
                   row.kernel.c_str(), row.variant.c_str(), row.threads,
                   row.checksum, expected);
      checksums_ok = false;
    }
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_region_schedule.json";
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "region_schedule: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmark\": \"region_schedule\",\n");
  purec::bench::write_json_host_fields(json);
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"n\": %lld,\n", static_cast<long long>(n));
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                 "\"threads\": %d, \"seconds\": %s, \"checksum\": %s}%s\n",
                 row.kernel.c_str(), row.variant.c_str(), row.threads,
                 json_number(row.seconds).c_str(),
                 json_number(row.checksum).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  return checksums_ok ? 0 : 1;
}
