// The tracing tax, measured in three lanes (ROADMAP: observability must
// be opt-in and free when off):
//
//   compiled_out         this file built WITHOUT -DPUREC_RT_TRACE (the
//                        production configuration; hooks are if-constexpr
//                        dead code)
//   compiled_in_disabled built with -DPUREC_RT_TRACE=1 but no trace path
//                        set: the per-chunk cost is one branch on a
//                        cached activation flag
//   enabled              actively recording chunk/region events into the
//                        per-worker rings (no file I/O — dumps happen at
//                        exit, outside the timed region)
//
// The same source produces two binaries (bench/CMakeLists.txt):
// `trace_overhead` measures the first lane, `trace_overhead_traced` the
// other two. Both write the SAME BENCH_trace_overhead.json via
// merge-on-write — each run re-reads the file and replaces only its own
// lanes — so running both binaries back to back yields the committed
// three-lane document.
//
// The workload is deliberately trace-hostile: many tiny dynamic chunks,
// so the per-chunk hook cost is as large a fraction of the region as it
// ever gets. Real kernels see a smaller relative tax.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "support/json.h"

namespace {

using Clock = std::chrono::steady_clock;
using purec::rt::ForOptions;
using purec::rt::Schedule;
using purec::rt::ThreadPool;
namespace trace = purec::rt::trace;

struct Row {
  std::string variant;
  int threads = 0;
  double ns_per_region = 0.0;
};

/// Rank for stable row order in the merged JSON (compiled_out first).
int variant_rank(const std::string& variant) {
  if (variant == "compiled_out") return 0;
  if (variant == "compiled_in_disabled") return 1;
  if (variant == "enabled") return 2;
  return 3;
}

/// One timed pass: `regions` launches of a 1024-iteration dynamic
/// chunk=16 loop (64 claims per region). Returns ns per region. When
/// tracing is live the rings are drained every 32 regions so the whole
/// run measures the record path, never the saturated drop path.
double measure(ThreadPool& pool, int regions, bool drain) {
  ForOptions options;
  options.schedule = Schedule::Dynamic;
  options.chunk = 16;
  options.region_id = 1;
  volatile std::int64_t sink = 0;
  const auto start = Clock::now();
  for (int r = 0; r < regions; ++r) {
    if (drain && (r & 31) == 0) trace::reset();
    purec::rt::parallel_for(
        pool, 0, 1024,
        [&](std::int64_t i) { sink = sink + (i & 7); }, options);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start)
          .count();
  return ns / regions;
}

double best_of(ThreadPool& pool, int reps, int regions, bool drain) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ns = measure(pool, regions, drain);
    if (best == 0.0 || ns < best) best = ns;
  }
  return best;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.5f", v);
  return buf;
}

/// Merge-on-write: keep rows from an existing trace_overhead document
/// whose variant this binary does not re-measure.
std::vector<Row> retained_rows(const std::string& path,
                               const std::vector<Row>& fresh) {
  std::vector<Row> kept;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return kept;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  const auto doc = purec::json::parse(text);
  if (!doc.has_value() || doc->find("benchmark") == nullptr ||
      doc->find("benchmark")->as_string() != "trace_overhead") {
    return kept;
  }
  const purec::json::Value* results = doc->find("results");
  const auto* rows = results != nullptr ? results->as_array() : nullptr;
  if (rows == nullptr) return kept;
  for (const purec::json::Value& row : *rows) {
    Row r;
    if (const auto* v = row.find("variant")) r.variant = v->as_string();
    if (const auto* v = row.find("threads")) {
      r.threads = static_cast<int>(v->as_int());
    }
    if (const auto* v = row.find("ns_per_region")) {
      r.ns_per_region = v->as_double();
    }
    bool replaced = false;
    for (const Row& f_row : fresh) {
      if (f_row.variant == r.variant && f_row.threads == r.threads) {
        replaced = true;
        break;
      }
    }
    if (!replaced && variant_rank(r.variant) < 3) kept.push_back(r);
  }
  return kept;
}

}  // namespace

int main() {
  const bool smoke = purec::bench::smoke_scale();
  const int regions = smoke ? 64 : 4096;
  const int reps = purec::bench::repetitions() > 1
                       ? purec::bench::repetitions()
                       : (smoke ? 1 : 5);

  std::vector<Row> rows;
  // The committed ladder is 1/2/4/8.
  for (const std::int64_t threads : purec::bench::thread_ladder(8)) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    // Warm the pool (thread spawn + first-touch) outside the timing.
    measure(pool, 8, false);
    if constexpr (!trace::kEnabled) {
      rows.push_back({"compiled_out", static_cast<int>(threads),
                      best_of(pool, reps, regions, false)});
      std::printf("trace_overhead: compiled_out threads=%lld "
                  "ns_per_region=%.1f\n",
                  static_cast<long long>(threads), rows.back().ns_per_region);
    } else {
      trace::set_path_for_testing(nullptr);
      rows.push_back({"compiled_in_disabled", static_cast<int>(threads),
                      best_of(pool, reps, regions, false)});
      std::printf("trace_overhead: compiled_in_disabled threads=%lld "
                  "ns_per_region=%.1f\n",
                  static_cast<long long>(threads), rows.back().ns_per_region);
      // Activate with a scratch destination; events stay in the rings
      // (no dump inside the timed loop) and are discarded afterwards.
      trace::set_path_for_testing("purec_trace_overhead_scratch.json");
      rows.push_back({"enabled", static_cast<int>(threads),
                      best_of(pool, reps, regions, true)});
      trace::set_path_for_testing(nullptr);
      trace::reset();
      std::printf("trace_overhead: enabled threads=%lld "
                  "ns_per_region=%.1f\n",
                  static_cast<long long>(threads), rows.back().ns_per_region);
    }
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_trace_overhead.json";
  std::vector<Row> all = retained_rows(json_path, rows);
  all.insert(all.end(), rows.begin(), rows.end());
  std::sort(all.begin(), all.end(), [](const Row& a, const Row& b) {
    if (variant_rank(a.variant) != variant_rank(b.variant)) {
      return variant_rank(a.variant) < variant_rank(b.variant);
    }
    return a.threads < b.threads;
  });

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "trace_overhead: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"trace_overhead\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out,
               "  \"workload\": {\"iterations\": 1024, \"chunk\": 16, "
               "\"schedule\": \"dynamic\", \"regions\": %d},\n",
               regions);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::fprintf(out,
                 "    {\"variant\": \"%s\", \"threads\": %d, "
                 "\"ns_per_region\": %s}%s\n",
                 all[i].variant.c_str(), all[i].threads,
                 json_number(all[i].ns_per_region).c_str(),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
