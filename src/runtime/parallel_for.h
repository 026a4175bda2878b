// parallel_for with OpenMP-style schedules. This is the runtime the bench
// harness uses to execute the loop structures the chain generates, with
// the exact schedule semantics the paper compares:
//   static         — contiguous equal chunks (omp `schedule(static)`)
//   dynamic(chunk) — chunks claimed from a shared counter
//                    (omp `schedule(dynamic,chunk)`, the §4.3.3 fix)
//   guided(chunk)  — exponentially decreasing chunks, never below `chunk`
//                    (omp `schedule(guided,chunk)`)
// Dynamic additionally has a work-stealing flavor (`ForOptions::stealing`)
// where each worker claims chunks from its own contiguous sub-range and
// raids its neighbors' ranges once its own runs dry — dynamic's imbalance
// tolerance without every claim contending one counter.
//
// The schedule loops are templates, so a lambda body inlines into the
// per-chunk claim loop and per-chunk dispatch costs nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/stats.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"

namespace purec::rt {

enum class Schedule { Static, Dynamic, Guided };

struct ForOptions {
  Schedule schedule = Schedule::Static;
  std::int64_t chunk = 1;  // dynamic/guided (minimum) chunk size
  /// Dynamic only: claim from per-worker sub-ranges and steal on
  /// exhaustion instead of hammering one shared counter.
  bool stealing = false;
  /// Stable region id stamped on trace events (join key against the
  /// compile-time report's scops[].region_id). Ignored unless tracing is
  /// compiled in and active.
  std::uint32_t region_id = 0;
};

namespace detail {

/// A claimable [next, end) slice on its own cache line. Claims go through
/// compare-exchange (not fetch_add) so `next` never runs past `end`, which
/// keeps thief re-scans bounded.
struct alignas(kCacheLineBytes) ClaimableRange {
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;

  /// Claims up to `chunk` iterations; returns false when the range is
  /// exhausted. On success [*out_begin, *out_end) is exclusively ours.
  bool claim(std::int64_t chunk, std::int64_t* out_begin,
             std::int64_t* out_end) noexcept {
    std::int64_t begin = next.load(std::memory_order_relaxed);
    while (begin < end) {
      const std::int64_t stop = std::min<std::int64_t>(begin + chunk, end);
      if (next.compare_exchange_weak(begin, stop,
                                     std::memory_order_relaxed)) {
        *out_begin = begin;
        *out_end = stop;
        return true;
      }
    }
    return false;
  }
};

/// The one scheduling core every entry point layers on: runs
/// `chunk_fn(worker, chunk_begin, chunk_end)` over a partition of
/// [begin, end) according to `options`. Templated so the chunk body
/// inlines into the claim loops.
template <class ChunkFn>
void for_each_chunk(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                    const ForOptions& options, ChunkFn&& raw_chunk_fn) {
  if (begin >= end) return;
  const auto threads = static_cast<std::int64_t>(pool.worker_count());
  const std::int64_t total = end - begin;
  const std::int64_t chunk = std::max<std::int64_t>(options.chunk, 1);

  // Observability shim around the user's chunk body; with stats and
  // tracing compiled out (the default) this is the identity and the
  // launch/claim paths are instruction-for-instruction what they always
  // were.
  const auto chunk_fn = [&](std::size_t worker, std::int64_t b,
                            std::int64_t e) {
    stats::note_chunk(worker);
    if constexpr (stats::kEnabled || trace::kEnabled) {
      // Attribute per-worker histogram rows / rings for subsystems that
      // run inside the chunk body without a worker parameter (memo).
      stats::set_current_worker(worker);
    }
    if constexpr (trace::kEnabled) {
      if (trace::active()) {
        const std::uint64_t t0 = stats::now_ns();
        raw_chunk_fn(worker, b, e);
        trace::record(worker, trace::EventKind::Chunk, t0,
                      stats::now_ns(), options.region_id, b, e);
        return;
      }
    }
    raw_chunk_fn(worker, b, e);
  };
  struct RegionTimer {
    std::uint64_t begin_ns = 0;
    std::uint32_t region_id = 0;
    explicit RegionTimer(std::uint32_t id) : region_id(id) {
      if constexpr (stats::kEnabled || trace::kEnabled) {
        begin_ns = stats::now_ns();
      }
      if constexpr (stats::kEnabled) {
        stats::add(stats::counters().regions);
      }
    }
    ~RegionTimer() {
      if constexpr (stats::kEnabled || trace::kEnabled) {
        const std::uint64_t end_ns = stats::now_ns();
        if constexpr (stats::kEnabled) {
          stats::add(stats::counters().region_ns, end_ns - begin_ns);
          stats::record_region_ns(end_ns - begin_ns);
        }
        if constexpr (trace::kEnabled) {
          if (trace::active()) {
            // The launch runs on the calling thread, which always carries
            // worker index 0.
            trace::record(0, trace::EventKind::Region, begin_ns, end_ns,
                          region_id);
          }
        }
      }
    }
  } region_timer{options.region_id};
  (void)region_timer;

  switch (options.schedule) {
    case Schedule::Static: {
      // Contiguous near-equal chunks, one per thread.
      const std::int64_t base = total / threads;
      const std::int64_t extra = total % threads;
      pool.run_on_all([&](std::size_t worker) {
        const auto w = static_cast<std::int64_t>(worker);
        const std::int64_t my_begin =
            begin + w * base + std::min<std::int64_t>(w, extra);
        const std::int64_t my_size = base + (w < extra ? 1 : 0);
        if (my_size > 0) chunk_fn(worker, my_begin, my_begin + my_size);
      });
      return;
    }

    case Schedule::Dynamic: {
      if (options.stealing && threads > 1) {
        // Work stealing: the static partition, but each worker's share is
        // a claimable queue of `chunk`-sized pieces. Owners drain their
        // own range contention-free; finished workers raid the slowest
        // ranges, so imbalance is absorbed without a global counter.
        const std::int64_t base = total / threads;
        const std::int64_t extra = total % threads;
        std::vector<ClaimableRange> ranges(
            static_cast<std::size_t>(threads));
        for (std::int64_t w = 0; w < threads; ++w) {
          const std::int64_t my_begin =
              begin + w * base + std::min<std::int64_t>(w, extra);
          auto& r = ranges[static_cast<std::size_t>(w)];
          r.next.store(my_begin, std::memory_order_relaxed);
          r.end = my_begin + base + (w < extra ? 1 : 0);
        }
        pool.run_on_all([&](std::size_t worker) {
          std::int64_t b = 0;
          std::int64_t e = 0;
          while (ranges[worker].claim(chunk, &b, &e)) {
            chunk_fn(worker, b, e);
          }
          // Own range dry: sweep the victims ring until nothing is left
          // anywhere.
          const auto n = static_cast<std::size_t>(threads);
          for (std::size_t hop = 1; hop < n; ++hop) {
            const std::size_t victim_index = (worker + hop) % n;
            auto& victim = ranges[victim_index];
            while (victim.claim(chunk, &b, &e)) {
              stats::add(stats::counters().steals);
              if constexpr (trace::kEnabled) {
                if (trace::active()) {
                  const std::uint64_t now = stats::now_ns();
                  trace::record(worker, trace::EventKind::Steal, now, now,
                                options.region_id,
                                static_cast<std::int64_t>(victim_index));
                }
              }
              chunk_fn(worker, b, e);
            }
          }
        });
        return;
      }
      // Shared-counter dynamic, the paper's schedule(dynamic,chunk).
      ClaimableRange range;
      range.next.store(begin, std::memory_order_relaxed);
      range.end = end;
      pool.run_on_all([&](std::size_t worker) {
        std::int64_t b = 0;
        std::int64_t e = 0;
        while (range.claim(chunk, &b, &e)) chunk_fn(worker, b, e);
      });
      return;
    }

    case Schedule::Guided: {
      // Exponentially decreasing chunks: each claim takes its fair share
      // (remaining / threads) of what is left, floored at `chunk`. Early
      // claims are big (few counter touches), the tail is fine-grained
      // (imbalance smoothing) — omp schedule(guided,chunk).
      struct alignas(kCacheLineBytes) Shared {
        std::atomic<std::int64_t> next{0};
      } shared;
      shared.next.store(begin, std::memory_order_relaxed);
      pool.run_on_all([&](std::size_t worker) {
        std::int64_t claim_begin =
            shared.next.load(std::memory_order_relaxed);
        for (;;) {
          if (claim_begin >= end) return;
          const std::int64_t remaining = end - claim_begin;
          const std::int64_t size =
              std::max<std::int64_t>(remaining / threads, chunk);
          const std::int64_t claim_end =
              std::min<std::int64_t>(claim_begin + size, end);
          if (shared.next.compare_exchange_weak(
                  claim_begin, claim_end, std::memory_order_relaxed)) {
            chunk_fn(worker, claim_begin, claim_end);
            claim_begin = shared.next.load(std::memory_order_relaxed);
          }
          // CAS failure reloaded claim_begin; retry with fresh remaining.
        }
      });
      return;
    }
  }
}

}  // namespace detail

/// Block variant: `body(chunk_begin, chunk_end)` — lets kernels keep their
/// inner loops intact. Templated: the body inlines into the claim loop.
template <class Body>
void parallel_for_blocked(ThreadPool& pool, std::int64_t begin,
                          std::int64_t end, Body&& body,
                          const ForOptions& options = {}) {
  detail::for_each_chunk(
      pool, begin, end, options,
      [&](std::size_t, std::int64_t b, std::int64_t e) { body(b, e); });
}

/// Runs `body(i)` for i in [begin, end) across the pool.
template <class Body>
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  Body&& body, const ForOptions& options = {}) {
  detail::for_each_chunk(pool, begin, end, options,
                         [&](std::size_t, std::int64_t b, std::int64_t e) {
                           for (std::int64_t i = b; i < e; ++i) body(i);
                         });
}

/// General reduction over [begin, end): each worker folds `body(i)` into
/// a private accumulator seeded with `identity` via `combine` (one cache
/// line per partial), and partials are combined in worker order after the
/// join — the runtime twin of OpenMP `reduction(op:...)`. `combine` must
/// be associative; commutativity is not required because partials merge
/// in a fixed order. Layered on the same core as parallel_for_blocked, so
/// every schedule — including guided and stealing — is available.
///
///   sum:  parallel_reduce(pool, b, e, 0.0, std::plus<>{}, body)
///   prod: parallel_reduce(pool, b, e, 1.0, std::multiplies<>{}, body)
///   min:  parallel_reduce(pool, b, e, +inf, [](T a, T b){ return a < b ? a : b; }, body)
///   max:  parallel_reduce(pool, b, e, -inf, [](T a, T b){ return a > b ? a : b; }, body)
template <class T, class Combine, class Body>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::int64_t begin,
                                std::int64_t end, T identity,
                                Combine&& combine, Body&& body,
                                const ForOptions& options = {}) {
  if (begin >= end) return identity;
  struct alignas(kCacheLineBytes) Partial {
    T value;
  };
  std::vector<Partial> partials(pool.worker_count(), Partial{identity});
  detail::for_each_chunk(
      pool, begin, end, options,
      [&](std::size_t worker, std::int64_t b, std::int64_t e) {
        T acc = identity;
        for (std::int64_t i = b; i < e; ++i) acc = combine(acc, body(i));
        // Workers may run many chunks; fold each chunk's local result in.
        partials[worker].value = combine(partials[worker].value, acc);
      });
  T result = identity;
  for (const Partial& p : partials) result = combine(result, p.value);
  return result;
}

/// Sum-reduction over [begin, end) (OpenMP `reduction(+:...)`): the
/// historical double-only entry point, now a parallel_reduce wrapper.
template <class Body>
[[nodiscard]] double parallel_reduce_sum(ThreadPool& pool,
                                         std::int64_t begin,
                                         std::int64_t end, Body&& body,
                                         const ForOptions& options = {}) {
  return parallel_reduce(
      pool, begin, end, 0.0,
      [](double a, double b) { return a + b; },
      static_cast<Body&&>(body), options);
}

}  // namespace purec::rt
