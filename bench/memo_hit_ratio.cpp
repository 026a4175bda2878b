// Memoization hit-ratio sweep (the `--memoize` subsystem's perf
// contract), emitting machine-readable BENCH_memoize.json.
//
// Workload 1 — fig8_twin: the satellite retrieval shape (one expensive
// pure transfer function per pixel) with the per-pixel input quantized to
// `distinct` levels, swept over distinct ∈ {32, 4096, 262144} × threads
// {1,2,4,8}. distinct controls the hit ratio: 32 is the repeated-call
// regime the ROADMAP's "heavy traffic" north star describes, 262144
// overflows the default PUREC_MEMO_CAP and exercises clock eviction under
// the thread pool's schedules.
//
// Workload 2 — matmul_twin: the paper's mult(a,b) leaf memoized over
// quantized operands. The callee is a single multiply, far below the
// table's lookup cost — committed as the honest negative result: the JSON
// shows where memoization pays and where it cannot.
//
// Every memoized run's checksum is cross-validated against the
// unmemoized run of the same configuration; any divergence exits nonzero
// (a hit must return the exact bits the miss stored).
//
// JSON schema: see EXPERIMENTS.md ("Memoization sweep"). Output path:
// $PUREC_BENCH_JSON or ./BENCH_memoize.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/memo_cache.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace {

using purec::bench::json_number;

using Clock = std::chrono::steady_clock;
using purec::rt::MemoCache;
using purec::rt::MemoConfig;
using purec::rt::MemoKey;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The expensive pure leaf of the fig8 twin: a Newton ladder with a
/// transcendental per step (~2 us on this container) — the shape of a
/// real per-pixel retrieval, keyed on one quantized input.
float transfer(int v) {
  double x = 1.0 + static_cast<double>(v) * 0.0625;
  double y = x;
  for (int k = 0; k < 64; ++k) {
    y = 0.5 * (y + x / y) + 1e-12 * std::sin(y);
  }
  return static_cast<float>(y);
}

constexpr std::uint64_t kTransferId = 0x7472616e73666572ULL;  // "transfer"
constexpr std::uint64_t kMultId = 0x6d756c7400000000ULL;      // "mult"

std::uint64_t f32_bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

float bits_f32(std::uint64_t w) {
  const auto b = static_cast<std::uint32_t>(w);
  float v = 0.0f;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

struct RunRow {
  int distinct = 0;  // fig8_twin only
  int size = 0;      // pixels (fig8) / matrix order (matmul)
  int threads = 0;
  double plain_seconds = 0.0;
  double memo_seconds = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t evictions = 0;
  bool checksum_match = false;
};

int quantized(int p, int distinct) { return (p * 37 + 11) % distinct; }

/// fig8_twin: out[p] = transfer(quantize(p)). Returns the checksum.
double run_fig8(purec::rt::ThreadPool& pool, std::vector<float>& out,
                int distinct, MemoCache* cache) {
  const auto n = static_cast<std::int64_t>(out.size());
  purec::rt::parallel_for(pool, 0, n, [&](std::int64_t p) {
    const int v = quantized(static_cast<int>(p), distinct);
    if (cache == nullptr) {
      out[static_cast<std::size_t>(p)] = transfer(v);
      return;
    }
    MemoKey key(kTransferId);
    key.add(static_cast<std::uint64_t>(v));
    const std::uint64_t k = key.hash();
    std::uint64_t word = 0;
    if (cache->lookup(k, &word)) {
      out[static_cast<std::size_t>(p)] = bits_f32(word);
      return;
    }
    const float r = transfer(v);
    cache->store(k, f32_bits(r));
    out[static_cast<std::size_t>(p)] = r;
  });
  double checksum = 0.0;
  for (std::size_t p = 0; p < out.size(); ++p) {
    checksum += static_cast<double>(out[p]) * static_cast<double>(p % 11);
  }
  return checksum;
}

/// matmul_twin: C = A x Bt with the mult leaf optionally memoized over
/// quantized operands. Returns the checksum.
double run_matmul(purec::rt::ThreadPool& pool, int n,
                  const std::vector<float>& a, const std::vector<float>& bt,
                  std::vector<float>& c, MemoCache* cache) {
  const auto mult = [&](float x, float y) -> float {
    if (cache == nullptr) return x * y;
    MemoKey key(kMultId);
    key.add(f32_bits(x));
    key.add(f32_bits(y));
    const std::uint64_t k = key.hash();
    std::uint64_t word = 0;
    if (cache->lookup(k, &word)) return bits_f32(word);
    const float r = x * y;
    cache->store(k, f32_bits(r));
    return r;
  };
  purec::rt::parallel_for(pool, 0, n, [&](std::int64_t i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < n; ++k) {
        acc += mult(a[static_cast<std::size_t>(i * n + k)],
                    bt[static_cast<std::size_t>(j * n + k)]);
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  });
  double checksum = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    checksum += static_cast<double>(c[i]) * static_cast<double>(i % 7);
  }
  return checksum;
}

void print_row(const char* workload, const RunRow& row) {
  std::printf(
      "%-12s size=%-7d distinct=%-7d threads=%d  plain %8.1f ms  "
      "memo %8.1f ms  speedup %6.2fx  hits %5.1f%%%s\n",
      workload, row.size, row.distinct, row.threads,
      row.plain_seconds * 1e3, row.memo_seconds * 1e3,
      row.plain_seconds / row.memo_seconds, row.hit_ratio * 100.0,
      row.checksum_match ? "" : "  CHECKSUM MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const bool smoke = purec::bench::smoke_scale();
  const int pixels = purec::bench::scaled_size(1 << 21, 1 << 18, 1 << 12);
  const int matmul_n = purec::bench::scaled_size(256, 128, 32);
  const MemoConfig cache_config = MemoConfig::from_env();

  std::vector<RunRow> fig8_rows;
  std::vector<RunRow> matmul_rows;
  bool checksums_ok = true;

  std::printf("memo hit-ratio sweep: %d pixels, matmul n=%d, cache %zu "
              "slots x %zu shards\n",
              pixels, matmul_n, cache_config.capacity,
              cache_config.shards);

  for (const int distinct :
       {32, 4096, smoke ? (1 << 14) : (1 << 18)}) {
    for (const int threads : purec::bench::thread_ladder(8)) {
      purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
      std::vector<float> out(static_cast<std::size_t>(pixels), 0.0f);

      Clock::time_point start = Clock::now();
      const double plain_checksum = run_fig8(pool, out, distinct, nullptr);
      const double plain_seconds = seconds_since(start);

      MemoCache cache(cache_config);
      start = Clock::now();
      const double memo_checksum = run_fig8(pool, out, distinct, &cache);
      const double memo_seconds = seconds_since(start);

      const purec::rt::MemoStats stats = cache.stats();
      RunRow row;
      row.distinct = distinct;
      row.size = pixels;
      row.threads = threads;
      row.plain_seconds = plain_seconds;
      row.memo_seconds = memo_seconds;
      row.hit_ratio = stats.hits + stats.misses == 0
                          ? 0.0
                          : static_cast<double>(stats.hits) /
                                static_cast<double>(stats.hits +
                                                    stats.misses);
      row.evictions = stats.evictions;
      row.checksum_match = plain_checksum == memo_checksum;
      checksums_ok = checksums_ok && row.checksum_match;
      fig8_rows.push_back(row);
      print_row("fig8_twin", row);
    }
  }

  {
    const auto size = static_cast<std::size_t>(matmul_n) *
                      static_cast<std::size_t>(matmul_n);
    std::vector<float> a(size);
    std::vector<float> bt(size);
    std::vector<float> c(size, 0.0f);
    for (std::size_t i = 0; i < size; ++i) {
      a[i] = static_cast<float>((i * 7 + 3) % 11) * 0.25f;
      bt[i] = static_cast<float>((i * 5 + 2) % 13) * 0.5f;
    }
    for (const int threads : purec::bench::thread_ladder(8)) {
      purec::rt::ThreadPool pool(static_cast<std::size_t>(threads));
      Clock::time_point start = Clock::now();
      const double plain_checksum =
          run_matmul(pool, matmul_n, a, bt, c, nullptr);
      const double plain_seconds = seconds_since(start);

      MemoCache cache(cache_config);
      start = Clock::now();
      const double memo_checksum =
          run_matmul(pool, matmul_n, a, bt, c, &cache);
      const double memo_seconds = seconds_since(start);

      const purec::rt::MemoStats stats = cache.stats();
      RunRow row;
      row.distinct = 0;
      row.size = matmul_n;
      row.threads = threads;
      row.plain_seconds = plain_seconds;
      row.memo_seconds = memo_seconds;
      row.hit_ratio = stats.hits + stats.misses == 0
                          ? 0.0
                          : static_cast<double>(stats.hits) /
                                static_cast<double>(stats.hits +
                                                    stats.misses);
      row.evictions = stats.evictions;
      row.checksum_match = plain_checksum == memo_checksum;
      checksums_ok = checksums_ok && row.checksum_match;
      matmul_rows.push_back(row);
      print_row("matmul_twin", row);
    }
  }

  const char* json_path_env = std::getenv("PUREC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_memoize.json";
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "memo_hit_ratio: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"memo_hit_ratio\",\n");
  purec::bench::write_json_host_fields(out);
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out,
               "  \"cache\": {\"shards\": %zu, \"capacity\": %zu},\n",
               cache_config.shards, cache_config.capacity);
  const auto emit_rows = [&](const char* name,
                             const std::vector<RunRow>& rows,
                             bool fig8, bool last) {
    std::fprintf(out, "  \"%s\": [\n", name);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RunRow& r = rows[i];
      std::fprintf(out, "    {");
      if (fig8) {
        std::fprintf(out, "\"pixels\": %d, \"distinct\": %d, ", r.size,
                     r.distinct);
      } else {
        std::fprintf(out, "\"n\": %d, ", r.size);
      }
      std::fprintf(out,
                   "\"threads\": %d, \"plain_seconds\": %s, "
                   "\"memo_seconds\": %s, \"speedup\": %s, "
                   "\"hit_ratio\": %s, \"evictions\": %llu, "
                   "\"checksum_match\": %s}%s\n",
                   r.threads, json_number(r.plain_seconds).c_str(),
                   json_number(r.memo_seconds).c_str(),
                   json_number(r.plain_seconds / r.memo_seconds).c_str(),
                   json_number(r.hit_ratio).c_str(),
                   static_cast<unsigned long long>(r.evictions),
                   r.checksum_match ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]%s\n", last ? "" : ",");
  };
  emit_rows("fig8_twin", fig8_rows, true, false);
  emit_rows("matmul_twin", matmul_rows, false, true);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", json_path.c_str());

  return checksums_ok ? 0 : 1;
}
