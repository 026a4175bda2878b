// Exact affine dependence analysis over an extracted Scop (the ISL/candl
// counterpart). For every pair of accesses to the same array with at least
// one write, a dependence polyhedron is built by intersecting the *two
// statements' own iteration domains* (per-statement domains carry affine
// `if` guards and imperfect-nest chains) with subscript equalities, then
// tested per carrying level with Fourier-Motzkin; constant distance
// vectors are recovered where they exist.
//
// Precedence for statements at different depths follows the region model:
// carried levels range over the pair's *common* loop chain; same-common-
// iteration pairs are ordered by textual (pre-order) position.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "polyhedral/constraint.h"
#include "polyhedral/model.h"

namespace purec::poly {

enum class DependenceKind : std::uint8_t {
  Flow,    // RAW: write -> read
  Anti,    // WAR: read -> write
  Output,  // WAW: write -> write
};

[[nodiscard]] std::string_view to_string(DependenceKind kind) noexcept;

struct Dependence {
  std::size_t src_stmt = 0;
  std::size_t dst_stmt = 0;
  /// The two accesses, as indices into their statements' `accesses`.
  std::size_t src_access = 0;
  std::size_t dst_access = 0;
  std::string array;
  DependenceKind kind = DependenceKind::Flow;
  /// 1-based position in the pair's common loop chain carrying the
  /// dependence; depth+1 means loop-independent (within one iteration,
  /// between statements). For classic bands the common chain is the whole
  /// nest, so this is exactly the loop level.
  std::size_t level = 0;
  /// Global iterator index (into Scop::iterators) of the carrying loop;
  /// Scop::npos when loop-independent. Classic bands: level - 1.
  std::size_t carrier_loop = Scop::npos;
  /// Per-common-loop distance (target - source) when constant.
  std::vector<std::optional<std::int64_t>> distance;
  /// The dependence polyhedron over [src iters, dst iters, params]; kept
  /// for schedule-legality tests.
  ConstraintSystem polyhedron{0};
  /// Self-dependence of a recognized associative reduction's accumulator
  /// (`s = s + e` and friends). Exempt from the parallelism verdicts and
  /// from schedule legality: any interleaving of the updates is admissible
  /// because codegen lowers the statement to an OpenMP reduction clause
  /// with per-thread partials.
  bool is_reduction = false;
  /// Dependence on a function-scope scalar the chain decided to privatize
  /// (written before read in every iteration, dead after the nest). Exempt
  /// like reductions: each thread gets its own copy via `private(...)`, so
  /// the cross-iteration conflicts on the shared cell vanish.
  bool is_private = false;

  [[nodiscard]] bool loop_carried(std::size_t depth) const noexcept {
    return level <= depth;
  }
  [[nodiscard]] std::string to_string(const Scop& scop) const;
};

/// All dependences of the scop, split by level. An any-element access
/// (a pure call's read) pairs with every access of its base, with no
/// subscript equalities.
[[nodiscard]] std::vector<Dependence> analyze_dependences(const Scop& scop);

/// When one end of `dep` (from analyze_dependences(scop)) is a pure
/// call's read, the located words for it: the pure function, the array,
/// and each local pointer either end goes through with its binding line.
/// Empty otherwise.
[[nodiscard]] std::string pure_call_read(const Scop& scop,
                                         const Dependence& dep);

/// Convenience queries used by the scheduler and tests.
[[nodiscard]] bool level_is_parallel(const std::vector<Dependence>& deps,
                                     std::size_t level, std::size_t depth);

/// Region query: loop `loop_index` (global iterator index) carries no
/// dependence — its iterations can run concurrently with every enclosing
/// loop's iteration fixed.
[[nodiscard]] bool loop_is_parallel(const std::vector<Dependence>& deps,
                                    std::size_t loop_index);

/// Scalars whose every access sits under loop `loop_index` and whose
/// first accessor is an unguarded write (no read) at the accessors'
/// common loop depth: each iteration of `loop_index` writes the scalar
/// before reading it, so a per-thread copy (`private(t)`) carries no
/// value across iterations. The caller still owns liveness — a scalar
/// read after the nest (or a global) must not be privatized.
[[nodiscard]] std::vector<std::string> privatizable_scalars(
    const Scop& scop, std::size_t loop_index);

/// Tags every non-reduction dependence on one of `names` as is_private so
/// the scheduler and the parallelism verdicts exempt it.
void mark_private_dependences(std::vector<Dependence>& deps,
                              const std::vector<std::string>& names);

/// One fission component: a set of statements that must stay in the same
/// loop, and whether the root loop restricted to them is parallel.
struct FissionGroup {
  std::vector<std::size_t> statements;  // indices into Scop::statements
  bool parallel = false;
};

/// Classic loop distribution at the root loop: condenses the statement
/// dependence graph (statements sharing one source ast are one node) into
/// strongly connected components, orders them topologically, and merges
/// consecutive components that may share a loop (serial with serial;
/// parallel with parallel when no root-carried dependence links them).
/// Dependences on `private_ok` scalars and reduction self-dependences
/// don't serialize a component (they are handled by private/reduction
/// clauses) but still glue their statements into one group. Groups come
/// back in a legal execution order; a single group means fission cannot
/// separate anything.
[[nodiscard]] std::vector<FissionGroup> fission_groups(
    const Scop& scop, const std::vector<Dependence>& deps,
    const std::vector<std::string>& private_ok);

/// Group-restricted region query: loop `loop_index` carries no
/// non-exempt dependence between statements of the group (`in_group` is
/// indexed by statement). Dependences on `private_ok` scalars are exempt.
[[nodiscard]] bool loop_is_parallel_for_group(
    const std::vector<Dependence>& deps, std::size_t loop_index,
    const std::vector<bool>& in_group,
    const std::vector<std::string>& private_ok);

/// Fusion legality for a trial-merged scop (statements with position
/// below `position_boundary` came from the first of two sibling loops):
/// returns the dependence that stops the fused outer loop from being
/// parallel, or nullptr when fusion is legal. Prefers a blocker that
/// links the two halves (`*crossing = true`) — the mark of a genuinely
/// fusion-preventing dependence, as opposed to a half that was already
/// serial on its own.
[[nodiscard]] const Dependence* fusion_blocker(
    const Scop& fused, const std::vector<Dependence>& deps,
    std::size_t position_boundary, bool* crossing);

}  // namespace purec::poly
