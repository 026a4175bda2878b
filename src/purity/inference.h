// Interprocedural purity inference: turns the paper's `pure` keyword from
// a prerequisite into a checked hint.
//
// The verifier (§3.2) only ever looks at functions the programmer marked
// `pure`; everything unannotated is opaque and kills the SCoP. This pass
// instead *infers* purity for unannotated definitions: per-function effect
// summaries (effects.h) are propagated over the call graph (callgraph.h)
// with an optimistic, SCC-aware fixpoint — a cycle of functions is pure
// unless some member has a local effect or escapes the cycle into an
// impure/unknown callee. External callees are pessimized unless they are
// in the standard seed hashset or carry a trusted `pure` prototype.
//
// Every rejected function keeps a human-readable reason ("writes to
// global 'counter'", "calls unknown external function 'printf'") so the
// CLI and tests can show inference provenance.
//
// Annotated functions are axiomatically pure here — the §3.2 verifier
// remains the authority on them (annotation + verifier win; inference
// never downgrades a declared-pure function).
#pragma once

#include <map>
#include <set>
#include <string>

#include "purity/purity_checker.h"
#include "sema/symbols.h"

namespace purec {

struct FunctionPurity {
  std::string name;
  bool pure = false;
  /// Declared `pure` (definition or trusted prototype): the verifier's
  /// territory, not counted as inferred.
  bool annotated = false;
  /// Pure by inference alone: unannotated definition that survived the
  /// fixpoint. These names seed the checker's hashset under --infer-pure.
  bool inferred = false;
  /// Why the function is impure; empty when pure.
  std::string reason;
  SourceLocation loc;
  /// Globals the function reads, transitively through inferred callees.
  /// Used as implicit call arguments by the Listing-5 scop rule.
  std::set<std::string> global_reads;
  /// Every global a call to the function may read: its own body's reads
  /// and those of every defined callee, declared-pure bodies included.
  /// The access model reads these at each call site.
  std::set<std::string> call_reads;
};

struct InferenceResult {
  /// Every function that has a definition in the unit.
  std::map<std::string, FunctionPurity> functions;
  /// Names inferred pure (pure && !annotated), ready to seed
  /// PurityOptions::assume_pure.
  std::set<std::string> inferred_pure;

  /// Transitive global-read sets of the inferred functions, ready for
  /// PurityOptions::assumed_global_reads.
  [[nodiscard]] std::map<std::string, std::set<std::string>>
  inferred_global_reads() const;

  /// One-line provenance, e.g.
  /// "inferred pure: dot, mult; rejected: main (calls unknown external
  ///  function 'printf')".
  [[nodiscard]] std::string summary() const;
};

/// Runs inference over every definition in `tu`. `options` supplies
/// allow_malloc_free (the §3.2 seeding rule).
[[nodiscard]] InferenceResult infer_purity(const TranslationUnit& tu,
                                           const SymbolTable& symbols,
                                           const PurityOptions& options = {});

}  // namespace purec
