// Per-function effect summaries for purity inference.
//
// Where the paper's verifier (§3.2) checks *declared* pure functions
// against the keyword's rules, this pass looks at an arbitrary unannotated
// definition and answers: what could this body do that another thread
// might observe? The summary is intraprocedural — callees are recorded by
// name and resolved by the fixpoint in inference.cpp.
//
// The write rules are deliberately conservative. A store is locally
// harmless only when its target provably lives in function-local storage:
// a local scalar/array, or a pointer whose every assignment source is
// fresh (malloc/calloc) or another local storage root. Anything that might
// reach caller-owned or global memory is an effect.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "ast/decl.h"
#include "sema/symbols.h"
#include "support/source_location.h"

namespace purec {

/// Effect model of a known external (libc) function — the growth path
/// beyond the all-pure seed hashset: inference no longer has to pessimize
/// every extern it recognizes.
enum class ExternEffectKind : std::uint8_t {
  /// Reads its pointer arguments, writes nothing (strlen, memcmp).
  ReadOnly,
  /// Writes through argument 0 only — a bounded, caller-visible-iff-the-
  /// destination-is-foreign write (memcpy, memset, memmove, snprintf).
  /// Locally harmless when arg0 provably targets function-local storage.
  WritesArg0,
  /// Writes through argument 1 only — the strtol/strtod end-pointer
  /// out-parameter. Harmless when endptr is a null constant (no write
  /// happens) or provably targets function-local storage (&local, a
  /// local char**). errno on range errors is outside the modeled
  /// dialect: purec-emitted programs never read errno, and a body that
  /// did would be rejected as an unknown-global read.
  WritesArg1,
};

struct ExternEffect {
  ExternEffectKind kind;
};

/// Database lookup; nullptr when the function is not modeled (callers
/// fall back to the pessimistic unknown-external rule).
[[nodiscard]] const ExternEffect* extern_effect(const std::string& name);

/// Destination-provenance oracle for writing externs (WritesArg0 and
/// WritesArg1), shared with the declared-pure verifier (§3.2): answers
/// whether a memcpy/memset/strtol/... call inside `fn` provably writes
/// only into function-local storage. Backed by the same provenance
/// reasoning compute_effects uses, so a body inference would accept
/// verifies identically when it carries the `pure` keyword.
class WritesArg0Oracle {
 public:
  WritesArg0Oracle(const FunctionDecl& fn, const FunctionScopeInfo& scope);
  ~WritesArg0Oracle();
  WritesArg0Oracle(const WritesArg0Oracle&) = delete;
  WritesArg0Oracle& operator=(const WritesArg0Oracle&) = delete;

  /// Empty when the call's destination provably targets local storage;
  /// otherwise the rejection reason (same wording inference reports).
  [[nodiscard]] std::string violation(const CallExpr& call,
                                      const std::string& name) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Where one local pointer may point: the base half of the provenance
/// map. The chain reads it twice: to match the Listing-5 roots
/// (purity/purity_checker.h) through local pointers, and to name accesses
/// in the polyhedral model by their base. Sources map like this:
///  * `= x`, `= &x[k]`, `= x + k`, `= x - k` give base `x` (a local
///    array, a parameter, a global, or the pointer itself for fresh
///    memory), with offset k when k is an integer constant;
///  * a copy of another local pointer inherits that pointer's bases,
///    transitively, shifted by the copy's own offset;
///  * `= malloc(...)` / `= calloc(...)` give the pointer itself, as a
///    fresh object;
///  * `p += k`, `p++` and the like keep the bases but lose the offset;
///  * anything else (another call, a load, `&p` escaping, a base that the
///    function reassigns) leaves the pointer unresolved.
/// Flow-insensitive: every source anywhere in the function counts.
struct PointerBases {
  /// Named bases the pointer may point into.
  std::set<std::string> bases;
  /// Constant element offset from the base, when every source agrees on
  /// one; nullopt when some source moves the pointer by an unknown amount.
  std::optional<std::int64_t> offset;
  /// Some source is none of the above: the pointer may point anywhere.
  bool unresolved = false;
  /// The pointer's first binding (declaration or assignment).
  SourceLocation bound;
};

/// Local pointer name -> its bases. Name-keyed like the provenance
/// lattice: shadowed locals pool their sources, which only widens.
using PointerBaseMap = std::map<std::string, PointerBases>;

/// The base map of every local pointer in `fn` (statics included, always
/// unresolved: their value outlives the call).
[[nodiscard]] PointerBaseMap local_pointer_bases(
    const FunctionDecl& fn, const FunctionScopeInfo& scope);

struct EffectSummary {
  std::string function;

  /// No intraprocedural side-effects; call edges still pending.
  bool pure_locally = true;
  /// First local impurity, human-readable ("writes to global 'counter'").
  /// Empty when pure_locally.
  std::string impurity_reason;
  SourceLocation impurity_loc;

  /// Named callees (resolved against the call graph by inference).
  std::set<std::string> callees;
  /// Calls through a function pointer: unresolvable, pessimized.
  bool has_indirect_call = false;

  /// Globals the body reads directly. For an inferred-pure function these
  /// become implicit call arguments in the Listing-5 scop rule: a loop
  /// that writes one of them while calling the function is rejected.
  std::set<std::string> global_reads;

  /// Database-modeled externs the body calls (resolved here, never
  /// pessimized callee edges). Downstream analyses with stricter needs
  /// than purity consult this — memoization rejects locale-sensitive
  /// formatting (snprintf) that purity tolerates.
  std::set<std::string> extern_calls;

  /// Informational classification bits (diagnostics, tests).
  bool writes_global = false;
  bool writes_through_param = false;
  bool writes_unknown_pointer = false;
  bool allocates = false;
  bool frees = false;
};

/// Computes the summary for one function definition. `scope` must be the
/// symbol info for `fn`. Honors PurityOptions::allow_malloc_free via
/// `allow_malloc_free` (when false, malloc/calloc/free count as external
/// callees instead of local allocation).
[[nodiscard]] EffectSummary compute_effects(const FunctionDecl& fn,
                                            const FunctionScopeInfo& scope,
                                            bool allow_malloc_free = true);

}  // namespace purec
