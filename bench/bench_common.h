// Shared bench-harness infrastructure: problem-size scaling, the
// repetition count, the thread ladder, and the host-honesty and number
// formatting every BENCH_*.json writer uses.
//
// Environment knobs:
//   PUREC_FULL=1         paper-scale problem sizes
//   PUREC_SMOKE=1        CI-sized problems: correctness-of-harness runs
//                        only, numbers are meaningless (set by bench-smoke)
//   PUREC_REPS=<n>       repetitions per configuration (paper: 20)
//   PUREC_MAX_THREADS=<n> clamp the thread ladder below its cap
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace purec::bench {

[[nodiscard]] inline bool full_scale() {
  const char* env = std::getenv("PUREC_FULL");
  return env != nullptr && env[0] == '1';
}

/// bench-smoke clamp: shrink problem sizes so a one-repetition pass over
/// every harness finishes in seconds. PUREC_FULL wins when both are set.
[[nodiscard]] inline bool smoke_scale() {
  if (full_scale()) return false;
  const char* env = std::getenv("PUREC_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// Problem-size ladder helper: full-scale / default / smoke.
[[nodiscard]] inline int scaled_size(int full, int normal, int smoke) {
  if (full_scale()) return full;
  return smoke_scale() ? smoke : normal;
}

[[nodiscard]] inline int repetitions() {
  const char* env = std::getenv("PUREC_REPS");
  if (env == nullptr) return 1;
  const int reps = std::atoi(env);
  return reps > 0 ? reps : 1;
}

[[nodiscard]] inline unsigned bench_hardware_concurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// Host-honesty fields every BENCH_*.json writer stamps right after its
/// "benchmark" field: the node's hardware concurrency and a
/// `container_1core` flag. When the flag is true (CI containers pinned to
/// one core) every multi-worker row oversubscribes a single core — the
/// numbers measure contention behavior, not scaling, and readers of the
/// committed artifacts can tell which is which without knowing where the
/// file was produced.
inline void write_json_host_fields(std::FILE* out) {
  const unsigned hc = bench_hardware_concurrency();
  std::fprintf(out,
               "  \"hardware_concurrency\": %u,\n"
               "  \"container_1core\": %s,\n",
               hc, hc <= 1 ? "true" : "false");
}

/// Powers of two from 1 up to `cap` threads, lowered further (never
/// raised) by PUREC_MAX_THREADS. Rungs above the hardware concurrency
/// oversubscribe; the artifacts flag that via write_json_host_fields.
[[nodiscard]] inline std::vector<int> thread_ladder(int cap) {
  std::int64_t max_threads = cap;
  if (const char* env = std::getenv("PUREC_MAX_THREADS")) {
    const std::int64_t clamp = std::atoll(env);
    if (clamp > 0 && clamp < max_threads) max_threads = clamp;
  }
  std::vector<int> ladder;
  for (std::int64_t t = 1; t <= max_threads; t *= 2)
    ladder.push_back(static_cast<int>(t));
  return ladder;
}

/// A double as a JSON number. JSON has no NaN/Inf, so a timer or checksum
/// gone bad becomes null rather than invalid JSON.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace purec::bench
