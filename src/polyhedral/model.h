// The polyhedral program model and its extraction from AST loop nests
// (the Clan/OpenScop counterpart in the paper's chain).
//
// Extraction is a *region walk*: starting at an outermost `for`, it
// descends through nested loops, affine `if` guards, and compound blocks,
// giving every assignment statement its own iteration domain (its
// enclosing loops' bounds plus every guard on its path). Two shapes come
// out of the walk:
//
//  * a *classic band* — one perfectly nested chain, every statement at the
//    innermost level, no guards, parameter-affine strided origins. These
//    keep the shared `Scop::domain` and go through the full PluTo-style
//    reschedule/tile/regenerate pipeline, exactly as before.
//  * a *region* (`Scop::region_shaped`) — imperfect nesting (statements
//    before/between/after an inner loop), affine `if`/`else` guards,
//    sibling loops, or iterator-dependent strided lower bounds
//    (`for (j = i; j < n; j += 2)`). These are analyzed with
//    per-statement domains and lowered by annotating the original nest
//    with OpenMP pragmas on provably parallel loops (no reordering).
//
// Remaining model restrictions: `for` loops (the chain canonicalizes
// affine `while` loops into `for` before extraction) with constant
// positive step, bounds affine in enclosing iterators and symbolic
// parameters (conjunctions `i < n && i < m` fold into the domain as
// min/max bounds), chain depth <= 4, at most 8 loops per region, bodies
// made of assignment statements with affine subscripts, guards affine and
// conjunctive (negated `else` halves included; `x != y` guards only on
// the `else` side where the negation is the affine equality). Pure
// function calls have already been substituted by `tmpConst_*`
// identifiers when extraction runs, which is exactly why the paper's
// chain can feed these nests to PluTo. Each placeholder's statement
// reads what its call reads (`PureCallReads`): every variable named in
// the arguments, and the globals the callee reads, each as a whole.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/stmt.h"
#include "polyhedral/constraint.h"
#include "support/diagnostics.h"

namespace purec::poly {

/// Affine form over [iterators..., parameters..., 1]. Positional: the
/// owning Scop defines the variable order.
struct AffineForm {
  IntVec coeffs;             // size = iterators + parameters
  std::int64_t constant = 0;

  [[nodiscard]] std::string to_string(
      const std::vector<std::string>& names) const;
};

enum class AccessKind : std::uint8_t { Read, Write };

/// Associative reduction operators recognized on scalar accumulators.
/// `Call` marks a user-declared pure binary function (`s = f(s, e)`):
/// recognized and reported, but not exempted from the carried-dependence
/// verdict because OpenMP has no clause (and the runtime no identity) for
/// an arbitrary combiner.
enum class ReductionOp : std::uint8_t {
  None,
  Add,
  Sub,
  Mul,
  Min,
  Max,
  Call,
};

/// Operators whose accumulator self-dependence may be exempted from the
/// parallelism verdict (they map onto an OpenMP reduction clause).
[[nodiscard]] constexpr bool reduction_exemptible(ReductionOp op) noexcept {
  return op == ReductionOp::Add || op == ReductionOp::Sub ||
         op == ReductionOp::Mul || op == ReductionOp::Min ||
         op == ReductionOp::Max;
}

/// The OpenMP clause token for an exemptible operator ("+", "-", "*",
/// "min", "max"); empty for None/Call.
[[nodiscard]] const char* reduction_token(ReductionOp op) noexcept;

struct Access {
  AccessKind kind = AccessKind::Read;
  std::string array;                  // base variable name
  std::vector<AffineForm> subscripts; // empty for scalars
  /// Any element of `array`, with no subscripts: what a pure call reads.
  /// The dependence analysis pairs it with every access of the same base.
  bool any_element = false;
  /// The pure function whose call makes this read; empty otherwise.
  std::string pure_call;
  /// The local pointer the access goes through, with its binding line
  /// ("local pointer 'p' (bound at line 5)"); empty for a direct access.
  std::string via;
};

/// One statement instance set: its accesses, its textual position, and —
/// in the region model — its own iteration domain and enclosing loop
/// chain.
struct ScopStatement {
  const Stmt* ast = nullptr;   // original AST statement (not owned)
  std::vector<Access> accesses;
  /// Global textual (pre-order) position inside the region: statements
  /// with equal common-loop iterations execute in `position` order.
  std::size_t position = 0;
  /// This statement's iteration domain over the scop's full
  /// [iterators..., parameters...] space: bounds of its enclosing chain
  /// plus every affine guard on its path. Zero dimensions (hand-built
  /// scops in tests) means "use the scop's shared domain".
  ConstraintSystem domain{0};
  /// Enclosing loops as indices into Scop::iterators, outermost first.
  /// Empty means the classic full chain [0, depth).
  std::vector<std::size_t> loops;
  /// True when an `if` guard contributed constraints to `domain`.
  bool guarded = false;
  /// Non-None when the statement is a recognized associative reduction
  /// `s (op)= e` on scalar `reduction_accumulator`, with `e` not reading
  /// `s`. Demoted back to None when `s` is accessed anywhere else in the
  /// region (the accumulator escapes the update).
  ReductionOp reduction_op = ReductionOp::None;
  std::string reduction_accumulator;
  /// For ReductionOp::Min/Max/Call: the called combiner's name
  /// (e.g. "fminf"); empty for plain operator shapes.
  std::string reduction_callee;
};

/// A static control part: a loop region rooted at one outermost `for`.
struct Scop {
  std::vector<std::string> iterators;   // all region loops, pre-order
  std::vector<std::string> parameters;  // symbolic sizes
  /// Shared domain over [iterators..., parameters...]: all loop-bound
  /// constraints. For a classic band this is the statements' exact
  /// domain (guards don't exist there); region statements refine it
  /// per-statement.
  ConstraintSystem domain{0};
  std::vector<ScopStatement> statements;
  const ForStmt* root = nullptr;        // original outermost loop
  /// Non-unit-stride normalization: source iterator i_j sweeps
  /// `origins[j] + strides[j] * t_j` where t_j is the level-j domain
  /// variable (t_j >= 0). Unit-stride levels keep the identity map
  /// (stride 1, zero origin). Origins affine over parameters only keep
  /// the scop classic; an origin that references an enclosing iterator
  /// (`for (j = i; ...; j += 2)`) forces the region path. Empty vectors
  /// (scops built by hand in tests) mean all-identity.
  std::vector<std::int64_t> strides;
  std::vector<AffineForm> origins;
  /// Region tree: parent loop of iterator j (npos for the root) and the
  /// AST node of each loop, both in the pre-order used by `iterators`.
  std::vector<std::size_t> loop_parents;
  std::vector<const ForStmt*> loop_asts;
  /// True when the walk found guards, imperfect nesting, sibling loops,
  /// or an iterator-dependent strided origin — the scop is then analyzed
  /// with per-statement domains and lowered by region annotation instead
  /// of the classic reschedule+regenerate path.
  bool region_shaped = false;
  /// Human-readable notes about reduction shapes that were recognized but
  /// demoted (accumulator read elsewhere, Call combiner) or about scan
  /// patterns (`a[i] = a[i-1] + e`) detected in the nest. Surfaced in the
  /// chain's serial verdict so the reason names the pattern instead of a
  /// generic carried dependence.
  std::vector<std::string> reduction_notes;

  [[nodiscard]] std::size_t depth() const noexcept {
    return iterators.size();
  }
  [[nodiscard]] std::vector<std::string> space_names() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Extraction outcome. `failure_reason` is set when the nest does not fit
/// the model (the chain then leaves the loop untouched, like PluTo would);
/// the chain surfaces it as the per-SCoP rejection reason.
struct ExtractionResult {
  std::optional<Scop> scop;
  std::string failure_reason;
  /// Where the rejection bites: the offending statement or loop header
  /// when a pass can point at one, else the nest's root loop. Valid
  /// whenever `failure_reason` is set, so report entries are clickable.
  SourceLocation failure_loc;

  [[nodiscard]] bool ok() const noexcept { return scop.has_value(); }
};

/// Where accesses through one local pointer land in the access model:
/// `p[e]...` is named `base[e + offset]...`, so a write through an alias
/// meets the reads of the array it points into, and a pure call passed
/// `p` reads the whole of every base. The chain builds these from the
/// purity layer's pointer-base map (purity/effects.h), which this layer
/// does not link.
struct PointerTarget {
  /// The named arrays the pointer may point into; empty when it may
  /// point anywhere.
  std::set<std::string> bases;
  /// Constant element offset into the one base, when every binding
  /// agrees on it.
  std::optional<std::int64_t> offset;
  /// Line of the pointer's first binding; 0 when unknown.
  std::uint32_t line = 0;
};

/// Local pointer name -> target. A nest that subscripts a pointer listed
/// here without one base at a constant offset, or passes one that may
/// point anywhere to a pure call, does not extract (its reason names the
/// pointer).
using PointerTargets = std::map<std::string, PointerTarget>;

/// The pure calls that substitution hid behind `tmpConst_*` placeholders
/// (§3.3), so that each placeholder's statement reads what its call
/// reads.
struct PureCallReads {
  /// Placeholder name -> the call it stands for (not owned).
  std::map<std::string, const Expr*> calls;
  /// Pure function -> the globals a call to it reads, transitively.
  std::map<std::string, std::set<std::string>> global_reads;
};

/// Extracts the polyhedral model from `loop` by walking its region.
/// Without `pointers`, every access is named by its own identifier;
/// without `calls`, a placeholder reads nothing.
[[nodiscard]] ExtractionResult extract_scop(
    const ForStmt& loop, const PointerTargets* pointers = nullptr,
    const PureCallReads* calls = nullptr);

/// The statement's effective domain/loop chain with the hand-built-scop
/// fallbacks applied (shared domain, full chain).
[[nodiscard]] const ConstraintSystem& statement_domain(
    const Scop& scop, const ScopStatement& stmt);
[[nodiscard]] std::vector<std::size_t> statement_loops(
    const Scop& scop, const ScopStatement& stmt);

}  // namespace purec::poly
