// Served-traffic memoization benchmark (standalone main, like the other
// perf-contract harnesses), emitting machine-readable
// BENCH_memoize_served.json.
//
// Models a service: W worker threads each drain a request stream drawn
// from a finite key universe and answer every request by evaluating a
// pure handler — exactly the traffic shape PUREC_MEMO_PATH exists for.
// Three cache configurations per worker count:
//
//   private           each worker owns a cold in-process MemoCache (the
//                     per-process-cache status quo: no sharing, every
//                     worker repays the full key universe in misses)
//   shared_cold       every worker attaches its own MemoCache to ONE
//                     fresh PUREC_MEMO_PATH file — multi-attach within a
//                     process maps the same pages the fleet case maps
//                     across processes, so first-toucher misses are paid
//                     once for the whole fleet
//   shared_prewarmed  same file, but a warmup pass populated it first
//                     (the restart/redeploy case: the table outlives the
//                     workers)
//
// each crossed with full-key verification off/on, so the artifact shows
// what the 2^-25-aliasing opt-out costs on the hit path. Per config:
// hit ratio, p50/p99 request latency (log-bucketed HdrHistogram cells,
// merged across workers), throughput, and a checksum match against the
// unmemoized serial run (the correctness half of the contract).
//
// Knobs: PUREC_SMOKE/PUREC_FULL scale the stream; PUREC_MAX_THREADS
// clamps the worker ladder; output lands in $PUREC_BENCH_JSON or
// ./BENCH_memoize_served.json; the shared files live under $TMPDIR.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/memo_cache.h"
#include "runtime/stats.h"

namespace {

using purec::rt::MemoCache;
using purec::rt::MemoConfig;
using purec::rt::MemoKey;
using purec::rt::MemoStats;

constexpr std::uint64_t kHandlerFnId = 0x5345525645ULL;  // "SERVE"

int g_handler_iters = 512;

/// The pure handler every request evaluates on a miss: a deterministic
/// few-hundred-ns computation of its key (an LCG-driven sqrt sum), heavy
/// enough that a table hit is the cheap path.
[[nodiscard]] double handler(std::uint64_t key) {
  std::uint64_t state = key * 0x9e3779b97f4a7c15ULL + 1;
  double acc = 0.0;
  for (int i = 0; i < g_handler_iters; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += std::sqrt(static_cast<double>((state >> 11) & 0xffff) + 1.0);
  }
  return acc;
}

/// Request r of worker w asks for this key (fixed per (w, r), independent
/// of cache mode, so every configuration serves the identical stream).
[[nodiscard]] std::uint64_t request_key(int worker, int request,
                                        int distinct) {
  const std::uint64_t r =
      (static_cast<std::uint64_t>(worker) << 32) ^
      static_cast<std::uint64_t>(request);
  return (r * 2654435761ULL) % static_cast<std::uint64_t>(distinct);
}

[[nodiscard]] std::uint64_t bits_of(double v) {
  std::uint64_t word = 0;
  std::memcpy(&word, &v, sizeof(word));
  return word;
}

[[nodiscard]] double double_of(std::uint64_t word) {
  double v = 0.0;
  std::memcpy(&v, &word, sizeof(v));
  return v;
}

struct WorkerResult {
  double checksum = 0.0;
  std::uint64_t cells[purec::rt::stats::kHistCells] = {};
  std::uint64_t recorded = 0;
};

/// One worker's request loop: probe (when a cache is given), recompute on
/// a miss, record per-request latency into the worker-local histogram.
void serve(int worker, int requests, int distinct, MemoCache* cache,
           WorkerResult* result) {
  using Clock = std::chrono::steady_clock;
  for (int r = 0; r < requests; ++r) {
    const std::uint64_t key = request_key(worker, r, distinct);
    const Clock::time_point start = Clock::now();
    double value;
    if (cache != nullptr) {
      MemoKey mk(kHandlerFnId);
      mk.add(key);
      const std::uint64_t fp = mk.hash();
      std::uint64_t word = 0;
      if (cache->lookup(fp, mk.words(), mk.word_count(), &word)) {
        value = double_of(word);
      } else {
        value = handler(key);
        cache->store(fp, mk.words(), mk.word_count(), bits_of(value));
      }
    } else {
      value = handler(key);
    }
    const std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    result->cells[purec::rt::stats::hist_index(ns)] += 1;
    result->recorded += 1;
    result->checksum += value;
  }
}

struct ConfigRow {
  int workers = 0;
  std::string mode;
  bool verify = false;
  bool shared_attached = false;
  double seconds = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  bool checksum_match = false;
};

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  // %g can emit bare "1e+06"-style text, which is valid JSON; infinities
  // are caught above.
  return buf;
}

}  // namespace

int main() {
  const bool smoke = purec::bench::smoke_scale();
  const int requests =
      purec::bench::scaled_size(/*full=*/200000, /*normal=*/40000,
                                /*smoke=*/2000);
  const int distinct =
      purec::bench::scaled_size(/*full=*/4096, /*normal=*/1024,
                                /*smoke=*/128);
  g_handler_iters =
      purec::bench::scaled_size(/*full=*/1024, /*normal=*/512, /*smoke=*/64);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string cache_dir = tmpdir != nullptr ? tmpdir : "/tmp";

  const std::vector<int> worker_ladder = purec::bench::thread_ladder(8);

  // Unmemoized serial baseline per worker count: the checksum every cached
  // configuration must reproduce bit-for-bit (pure handler, exact bit
  // pattern through the table).
  std::vector<double> baseline(static_cast<std::size_t>(9), 0.0);
  for (const int workers : worker_ladder) {
    double sum = 0.0;
    for (int w = 0; w < workers; ++w) {
      WorkerResult r;
      serve(w, requests, distinct, nullptr, &r);
      sum += r.checksum;
    }
    baseline[static_cast<std::size_t>(workers)] = sum;
  }

  const char* modes[] = {"private", "shared_cold", "shared_prewarmed"};
  std::vector<ConfigRow> rows;
  bool ok = true;

  for (const int workers : worker_ladder) {
    for (const bool verify : {false, true}) {
      for (const char* mode : modes) {
        const bool shared = std::strcmp(mode, "private") != 0;
        const bool prewarm = std::strcmp(mode, "shared_prewarmed") == 0;
        const std::string path =
            cache_dir + "/memoize_served_w" + std::to_string(workers) +
            (verify ? "_v" : "") + "_" + mode + ".cache";
        if (shared) std::remove(path.c_str());

        MemoConfig config;
        config.verify = verify;
        if (shared) config.path = path;

        if (prewarm) {
          // The restart case: a prior fleet fully populated the file.
          MemoCache warm(config);
          for (int k = 0; k < distinct; ++k) {
            MemoKey mk(kHandlerFnId);
            mk.add(static_cast<std::uint64_t>(k));
            warm.store(mk.hash(), mk.words(), mk.word_count(),
                       bits_of(handler(static_cast<std::uint64_t>(k))));
          }
        }

        // One cache per worker: private mode isolates them; shared mode
        // multi-attaches the same file (the in-process stand-in for one
        // cache instance per process).
        std::vector<std::unique_ptr<MemoCache>> caches;
        bool shared_attached = shared;
        for (int w = 0; w < workers; ++w) {
          caches.push_back(std::make_unique<MemoCache>(config));
          shared_attached = shared_attached && caches.back()->shared();
        }

        std::vector<WorkerResult> results(
            static_cast<std::size_t>(workers));
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int w = 0; w < workers; ++w) {
          threads.emplace_back(serve, w, requests, distinct,
                               caches[static_cast<std::size_t>(w)].get(),
                               &results[static_cast<std::size_t>(w)]);
        }
        for (std::thread& t : threads) t.join();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();

        ConfigRow row;
        row.workers = workers;
        row.mode = mode;
        row.verify = verify;
        row.shared_attached = shared_attached;
        row.seconds = seconds;
        purec::rt::stats::HistSnapshot merged;
        double sum = 0.0;
        for (const WorkerResult& r : results) {
          sum += r.checksum;
          for (int c = 0; c < purec::rt::stats::kHistCells; ++c) {
            merged.cells[c] += r.cells[static_cast<std::size_t>(c)];
          }
          merged.count += r.recorded;
        }
        for (const std::unique_ptr<MemoCache>& cache : caches) {
          const MemoStats stats = cache->stats();
          row.hits += stats.hits;
          row.misses += stats.misses;
        }
        row.hit_ratio =
            row.hits + row.misses == 0
                ? 0.0
                : static_cast<double>(row.hits) /
                      static_cast<double>(row.hits + row.misses);
        row.p50_ns = purec::rt::stats::hist_percentile(merged, 50);
        row.p99_ns = purec::rt::stats::hist_percentile(merged, 99);
        row.checksum_match =
            sum == baseline[static_cast<std::size_t>(workers)];
        ok = ok && row.checksum_match;
        rows.push_back(row);
        if (shared) std::remove(path.c_str());

        std::printf(
            "memoize_served: workers=%d mode=%s verify=%d hit_ratio=%.4f "
            "p50_ns=%llu p99_ns=%llu rps=%.0f checksum=%s\n",
            workers, mode, verify ? 1 : 0, row.hit_ratio,
            static_cast<unsigned long long>(row.p50_ns),
            static_cast<unsigned long long>(row.p99_ns),
            static_cast<double>(workers) * requests / seconds,
            row.checksum_match ? "ok" : "MISMATCH");
      }
    }
  }

  // The headline claim the committed artifact must witness: a prewarmed
  // shared table beats cold private tables on hit ratio at every worker
  // count (each private worker repays all `distinct` first-touch misses;
  // the prewarmed file starts fully resident).
  for (const ConfigRow& a : rows) {
    if (a.mode != "shared_prewarmed") continue;
    for (const ConfigRow& b : rows) {
      if (b.mode != "private" || b.workers != a.workers ||
          b.verify != a.verify) {
        continue;
      }
      if (a.hit_ratio <= b.hit_ratio) {
        std::fprintf(stderr,
                     "memoize_served: shared_prewarmed hit ratio %.4f not "
                     "above private %.4f at workers=%d verify=%d\n",
                     a.hit_ratio, b.hit_ratio, a.workers, a.verify ? 1 : 0);
        ok = false;
      }
    }
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_memoize_served.json";
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "memoize_served: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"memoize_served\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out,
               "  \"workload\": {\"requests_per_worker\": %d, "
               "\"distinct_keys\": %d, \"handler_iters\": %d},\n",
               requests, distinct, g_handler_iters);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"workers\": %d, \"mode\": \"%s\", \"verify\": %s, "
        "\"shared_attached\": %s, \"seconds\": %s, "
        "\"requests_per_sec\": %s, \"hit_ratio\": %s, \"hits\": %llu, "
        "\"misses\": %llu, \"p50_ns\": %llu, \"p99_ns\": %llu, "
        "\"checksum_match\": %s}%s\n",
        r.workers, r.mode.c_str(), r.verify ? "true" : "false",
        r.shared_attached ? "true" : "false", json_number(r.seconds).c_str(),
        json_number(static_cast<double>(r.workers) * requests / r.seconds)
            .c_str(),
        json_number(r.hit_ratio).c_str(),
        static_cast<unsigned long long>(r.hits),
        static_cast<unsigned long long>(r.misses),
        static_cast<unsigned long long>(r.p50_ns),
        static_cast<unsigned long long>(r.p99_ns),
        r.checksum_match ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  return ok ? 0 : 1;
}
