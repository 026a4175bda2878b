// Loop code generation for a transformed scop (the CLooG counterpart):
// produces a new AST loop nest scanning the transformed domain, with
// rectangular tiling of the permutable band, `floord`/`ceild`/min/max
// bounds, OpenMP pragma on the outermost parallel loop (collapsing the
// leading parallel tile loops of a rectangular tile space), and (SICA
// mode) a SIMD pragma on the innermost parallel loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ast/stmt.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "support/omp_schedule.h"

namespace purec::poly {

struct CodegenOptions {
  bool parallelize = true;
  /// Tile the permutable band when its size is >= 2.
  bool tile = true;
  std::int64_t tile_size = 32;
  /// SICA mode: emit `#pragma omp simd` on the innermost parallel point
  /// loop (the vectorization PluTo-SICA enforces).
  bool simd = false;
  /// Schedule for the parallel pragma, normalized into clause text here
  /// (e.g. schedule(dynamic,1), the satellite fix in §4.3.3). Default =
  /// no clause. Parsed and validated at the boundary (ScheduleSpec::parse)
  /// so malformed clauses can never reach the emitted pragma.
  ScheduleSpec schedule;
  /// Privatized scalars for the classic path: generate_code appends
  /// `private(...)` with these names to the parallel and simd pragmas
  /// (the chain marks their dependences is_private before scheduling;
  /// region scheduling computes its own set instead).
  std::vector<std::string> privatized;
};

/// The helper macros the generated code depends on; the chain prepends
/// this once per output file (PluTo does the same with floord/ceild).
[[nodiscard]] const std::string& codegen_prelude();

/// True when the (pre-tiling) domain couples two iterators in one bound —
/// a triangular/trapezoidal nest whose inner trip count varies with the
/// outer iterator. Such scops get `schedule(guided,N)` by default when the
/// user passes no --schedule (static chunks would load-imbalance; see
/// ROADMAP runtime follow-ups).
[[nodiscard]] bool domain_is_imbalanced(const Scop& scop);

/// How the generator rewrote the scop's iterators: original iterator j
/// equals `iterator_replacement[j]` (an affine combination over `names`)
/// plus `iterator_constant[j]` (strided loops fold their lower bound into
/// the replacement; empty means all zero). The chain reuses this to fix
/// up iterators inside reinserted pure calls (paper Listing 8:
/// `dot(... A[t1] ...)`).
struct IteratorSubstitution {
  std::vector<std::string> names;             // generated variable names
  std::vector<IntVec> iterator_replacement;   // one row per old iterator
  std::vector<std::int64_t> iterator_constant;
};

/// What generate_code decided besides the nest itself, for the chain.
struct CodegenResult {
  IteratorSubstitution substitution;
  /// Loops the parallel pragma's `collapse(k)` clause covers: the leading
  /// tile loops of a tiled band when each is parallel and the tile space
  /// is rectangular up to it. 1 = no collapse clause.
  std::size_t collapse = 1;
  /// The effective schedule clause ("" = none): the user's spec, or the
  /// guided default for an imbalanced domain.
  std::string schedule_clause;
  /// True when the band was strip-mined into tile and point loops.
  bool tiled = false;
};

/// Generates the transformed loop nest. The returned compound statement
/// contains the pragmas and loops and is a drop-in replacement for the
/// scop's original outermost ForStmt. Returns nullptr when bounds cannot
/// be derived (callers leave the original nest untouched).
[[nodiscard]] StmtPtr generate_code(const Scop& scop,
                                    const Transform& transform,
                                    const CodegenOptions& options,
                                    CodegenResult* result_out = nullptr);

/// What schedule_region decided, for the chain's report.
struct RegionSchedule {
  /// Indices of loops that received `#pragma omp parallel for`, in
  /// emission order (a loop index can repeat across fission groups).
  std::vector<std::size_t> parallel_loops;
  /// True when the nest was distributed into more than one loop.
  bool fissioned = false;
  /// Fission groups emitted (1 when the nest stayed whole).
  std::size_t groups = 0;
  /// Groups that received at least one parallel pragma.
  std::size_t parallel_groups = 0;
  /// Scalars listed in `private(...)` clauses (first-use order).
  std::vector<std::string> privatized;
  /// Schedule clause on the first parallel pragma ("" = none).
  std::string schedule_clause;
};

/// Region scheduling for `Scop::region_shaped` scops (guards, imperfect
/// nests, iterator-dependent strided origins) and for classic nests the
/// hyperplane path left serial. Statements keep their guards and depth —
/// no reordering, no tiling — but the nest is restructured:
///
///  * Loops whose non-exempt dependences all vanish get `#pragma omp
///    parallel for` at the outermost legal position; SICA mode marks
///    parallel leaf loops `#pragma omp simd`.
///  * A loop serialized only by a written-before-read function-scope
///    scalar in `privatizable` (the chain has already proven it dead
///    after the nest) parallelizes with the scalar in `private(...)`.
///  * When no loop is parallel, the nest is distributed by dependence
///    SCC (loop fission): each group becomes its own copy of the nest,
///    pruned to the group's statements, and parallel groups take the
///    pragma while serial ones stay as they were.
///
/// The guided-by-default gate is evaluated per pragma'd loop over the
/// statements actually under it in its group, so a fissioned-off
/// rectangular loop no longer inherits a triangular sibling's
/// `schedule(guided,4)`. Returns nullptr when nothing can be
/// parallelized (callers leave the nest untouched and report why).
[[nodiscard]] StmtPtr schedule_region(
    const Scop& scop, const std::vector<Dependence>& deps,
    const CodegenOptions& options,
    const std::vector<std::string>& privatizable,
    RegionSchedule* result = nullptr);

/// Replaces occurrences of the old iterator identifiers in `stmt` with
/// their affine replacements (exposed for the chain's call reinsertion).
void apply_iterator_substitution(StmtPtr& stmt,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution);
void apply_iterator_substitution(ExprPtr& expr,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution);

}  // namespace purec::poly
