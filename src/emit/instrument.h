// --instrument: self-contained runtime observability for the emitted C.
//
// The chain wraps every transformed scop in a timing envelope and plants a
// per-worker tally in each parallel loop body; the counters and the
// exit-time sink they call are the `instrument` section of
// runtime/c/purec_rt.h (with the `stats`, `hist` and `trace` sections it
// builds on), which the chain embeds via emit/runtime_sections.h.
// Everything is plain C with GCC __atomic builtins, so the output stays
// dependency-free. tests/runtime_test.cpp tests the histogram cells and
// the trace append through the C API; e2e_chain_test runs the counters in
// an instrumented binary.
//
// Counter design follows the per-CPU pattern (McKenney): one cache-line-
// padded cell per worker, bumped with a relaxed __atomic add. The hot-path
// cost is bounded — one padded add per claimed outer iteration, one
// clock_gettime pair per region execution — and there is no lock anywhere.
//
// The atexit sink writes a human summary to the shared stats stream
// (purec_stats_out(): PUREC_STATS_FILE or stderr). Under PUREC_TRACE=FILE
// it instead writes Chrome trace-event JSON — one "X" duration event per
// region execution plus one "C" counter event per region carrying the
// per-worker chunk tallies — loadable in chrome://tracing or Perfetto.
#pragma once

#include <cstddef>
#include <string>

#include "ast/stmt.h"

namespace purec {

/// Definition + constructor-time registration of region `index` named
/// `name` ("function:line" of the transformed nest).
[[nodiscard]] std::string instrument_region_definition(std::size_t index,
                                                       const std::string& name);

/// Rewrites a transformed nest in place: prepends a per-worker chunk tally
/// to the body of every `#pragma omp parallel for` loop, then wraps the
/// whole nest in `{ t0 = now(); nest; region_done(&rN, t0); }`.
void instrument_region(StmtPtr& nest, std::size_t index);

}  // namespace purec
