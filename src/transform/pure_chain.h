// The complete compiler chain of the paper's Fig. 1:
//
//   C file -> PC-PrePro (strip system includes) -> GCC-E (mini cpp)
//          -> PC-CC (parse, purity verification, scop marking)
//          -> polycc (call substitution, polyhedral transform, OpenMP
//             pragma insertion, call reinsertion)
//          -> PC-PosPro (restore includes, lower `pure` to plain C)
//          -> (system GCC compiles the result)
//
// Every stage's output text is captured in ChainArtifacts so examples and
// tests can show the source evolving exactly like the paper's figure.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "memo/memoizable.h"
#include "polyhedral/codegen.h"
#include "purity/inference.h"
#include "purity/purity_checker.h"
#include "support/diagnostics.h"
#include "support/source_location.h"

namespace purec {

enum class TransformMode {
  /// Plain PluTo: tiling + OpenMP parallelization.
  Pluto,
  /// PluTo-SICA: additionally emits SIMD pragmas on the innermost parallel
  /// loop (the vectorization/cache mode of §2.2).
  PlutoSica,
};

struct ChainOptions {
  TransformMode mode = TransformMode::Pluto;
  bool parallelize = true;
  bool tile = true;
  std::int64_t tile_size = 32;
  /// OpenMP schedule for emitted parallel pragmas (§4.3.3's fix is
  /// {Dynamic, 1}). Parsed/validated — see support/omp_schedule.h.
  ScheduleSpec schedule;
  /// Extension (§3.3 future work): inline expression-bodied pure functions
  /// into the loops before the polyhedral step, so the transformer sees
  /// the real array accesses instead of tmpConst placeholders. Off by
  /// default — the default chain reproduces the paper exactly.
  bool inline_pure_expressions = false;
  /// Extension: annotate verified allocation-free pure functions with
  /// GCC's `__attribute__((pure))` in the lowered output, turning the
  /// paper's *checked* guarantee into the backend compiler's *unchecked*
  /// optimization hint (§2.1). Off by default.
  bool emit_gcc_attributes = false;
  /// Extension (`purecc --infer-pure`): interprocedural purity inference.
  /// Unannotated functions whose call-graph effect analysis proves them
  /// side-effect free seed the checker's hashset, so plain keyword-free C
  /// gets SCoP-marked, substituted, and parallelized like its annotated
  /// twin. Annotated functions still go through the §3.2 verifier
  /// (annotation + verifier win). Off by default — the default chain
  /// reproduces the paper exactly.
  bool infer_purity = false;
  /// Extension (`purecc --memoize`): cache pure-call results. Pure
  /// functions whose inputs form a bounded key (by-value scalar params,
  /// scalar global-read snapshot — see memo/memoizable.h) get a generated
  /// thunk; every call site, inside and outside SCoPs, is rewritten to go
  /// through it, and the output C carries a self-contained sharded
  /// concurrent table (memo/memo_codegen.h). Off by default.
  bool memoize = false;
  /// `--memoize=all`: disable the memoization cost gate. By default the
  /// classifier skips trivially small single-expression callees (a
  /// `mult`-sized leaf pays more for the table trip than the recompute —
  /// the honest 0.1× negative in BENCH_memoize.json); this flag restores
  /// thunk-everything behavior for measurement.
  bool memoize_all = false;
  /// `--memoize=verify`: the emitted table compiles with full-key
  /// verification on by default — slots store the raw argument/global
  /// words and compare them on a hit, making the 2^-25 fingerprint-
  /// aliasing bound opt-out (PUREC_MEMO_VERIFY=0/1 still overrides at run
  /// time). Implies memoize.
  bool memoize_verify = false;
  /// `--memoize-profile=FILE` (the CLI parses the PUREC_MEMO_STATS dump
  /// into this map): when `has_memoize_profile`, the classifier swaps the
  /// shape-based cost gate for the profile-informed model — only thunks
  /// with demonstrated reuse x callee cost survive (memo/memoizable.h).
  MemoProfile memoize_profile;
  bool has_memoize_profile = false;
  /// `purecc --fp-reductions`: allow +/-/* reductions on float/double
  /// accumulators. Off by default because OpenMP's per-thread partials
  /// reassociate the combination, which changes FP rounding relative to
  /// the serial loop. Integer accumulators and min/max (bit-exact in any
  /// order, modulo NaN) are always allowed.
  bool fp_reductions = false;
  /// `purecc --instrument`: emit self-contained observability counters
  /// into the output C — per-region invocation/wall-time tallies plus
  /// cache-line-padded per-worker chunk counters on every parallel loop
  /// (relaxed __atomic adds, one per claimed outer iteration). An atexit
  /// sink prints a human summary to the shared stats stream, or writes
  /// Chrome trace-event JSON under PUREC_TRACE=FILE (emit/instrument.h).
  /// Off by default — without it the emitted C is byte-identical to the
  /// uninstrumented chain.
  bool instrument = false;
  PurityOptions purity;
  /// Virtual files for `#include "..."` resolution.
  std::map<std::string, std::string> virtual_includes;
  /// Predefined object-like macros (like -D NAME=VALUE).
  std::map<std::string, std::string> defines;
};

/// Per-scop outcome for reporting/tests.
struct ScopReport {
  std::string function;
  std::uint32_t line = 0;            // of the outermost loop
  std::uint32_t column = 0;
  bool contains_calls = false;
  std::size_t substituted_calls = 0;
  bool extracted = false;
  std::string failure_reason;        // when !extracted or codegen failed
  /// Where the rejection bites (the offending statement/loop when the
  /// extractor can point at one, else the nest itself) — line/column for
  /// clickable report entries.
  SourceLocation failure_loc;
  std::size_t depth = 0;
  std::size_t dependences = 0;
  bool transformed = false;
  bool parallelized = false;
  bool tiled = false;
  bool skewed = false;               // non-identity transform
  /// Of the substituted calls, how many target functions whose purity was
  /// *inferred* rather than declared (inference provenance).
  std::size_t inferred_calls = 0;
  /// Region-shaped scop (guards / imperfect nest / iterator-dependent
  /// strided origin): analyzed with per-statement domains and lowered by
  /// pragma annotation instead of the classic reschedule path.
  bool region = false;
  /// Loops that received a parallel pragma (classic path: 0 or 1).
  std::size_t parallel_loops = 0;
  /// The schedule clause the parallel pragmas carry ("" = implementation
  /// default): the user's --schedule spec, or the imbalanced-domain
  /// guided fallback codegen chooses (support/omp_schedule.h).
  std::string schedule_clause;
  /// Loops the parallel pragma collapses (`collapse(k)` over the leading
  /// tile loops of a rectangular, fully parallel tile space); 1 = none.
  std::size_t collapse = 1;
  /// Recognized (surviving) reductions as "op:accumulator" — e.g.
  /// "+:sum", "min:lo"; user combiners as "callee:acc". These are the
  /// statements whose accumulator self-dependence was exempted (plus
  /// recognized-but-unexemptible Call combiners, for visibility).
  std::vector<std::string> reductions;
  /// Reduction/scan findings that did NOT lead to parallelization:
  /// FP-gated demotions (rerun with --fp-reductions), accumulators read
  /// elsewhere in the nest, user combiners, prefix scans.
  std::vector<std::string> reduction_notes;
  /// Loop fission: the nest was distributed by dependence SCC into
  /// `fission_groups` loops (of which `fission_parallel_groups` carry a
  /// parallel pragma) instead of serializing whole.
  bool fissioned = false;
  std::size_t fission_groups = 0;
  std::size_t fission_parallel_groups = 0;
  /// Function-scope scalars whose cross-iteration conflicts were lifted
  /// into `private(...)` clauses (written before read in every iteration,
  /// dead after the nest).
  std::vector<std::string> privatized;
  /// Sibling loops fused into this nest before transformation (0 = the
  /// nest was not a fusion target).
  std::size_t fused_loops = 0;
  /// Stable instrumentation region id (-1 when the scop was not
  /// instrumented): the join key between this report entry and the
  /// runtime's trace events (`args.region_id`). Assigned in emission
  /// order, matching the emitted purec_instr_rN index.
  std::int64_t region_id = -1;
};

/// One adjacent-sibling-loop fusion decision (taken or rejected), for the
/// report: rejections carry the located reason.
struct FusionDecision {
  std::string function;
  std::uint32_t first_line = 0;
  std::uint32_t first_column = 0;
  std::uint32_t second_line = 0;
  std::uint32_t second_column = 0;
  bool fused = false;
  std::string reason;  // empty when fused
};

struct ChainArtifacts {
  bool ok = false;
  std::string stripped;      // after PC-PrePro
  std::string preprocessed;  // after mini GCC-E
  std::string marked;        // after PC-CC (#pragma scop markers, pure kept)
  std::string substituted;   // pure calls replaced by tmpConst_* (pure kept)
  std::string transformed;   // after polycc (pure kept)
  std::string final_source;  // compilable C: lowered, includes restored
  std::vector<ScopReport> scops;
  /// Call sites inlined by the inline_pure_expressions extension.
  std::size_t inlined_calls = 0;
  /// Affine `while` loops canonicalized into `for` before SCoP detection.
  std::size_t canonicalized_whiles = 0;
  /// Purity-inference provenance (populated only under infer_purity):
  /// which functions were inferred pure, which were rejected and why.
  InferenceResult inference;
  /// Purity verdicts for *every* defined function, populated
  /// unconditionally for the report (declared / inferable / rejected with
  /// reason + location). Unlike `inference`, this never feeds the
  /// transformation — under the default chain inferable-but-unannotated
  /// functions still stay opaque, exactly as the paper specifies.
  InferenceResult purity_trail;
  /// Names ("function:line") of the regions --instrument wired with
  /// counters, in emission order (index = region id in the output C).
  std::vector<std::string> instrumented_regions;
  /// Memoizability provenance (populated only under memoize): which pure
  /// functions got thunks, which were rejected and why.
  MemoizableResult memoization;
  /// Call sites rewritten to go through a memo thunk (under memoize).
  std::size_t memoized_calls = 0;
  /// Adjacent sibling-loop fusion decisions, in candidate order (taken
  /// and rejected alike; populated only when parallelization is on).
  std::vector<FusionDecision> fusion_decisions;
  DiagnosticEngine diagnostics;
};

/// Runs the whole chain on C source text.
[[nodiscard]] ChainArtifacts run_pure_chain(const std::string& source,
                                            const ChainOptions& options = {});

}  // namespace purec
