// PC-CC: the paper's verification pass (§3.2). Checks that every function
// marked `pure` is side-effect free, and finds the for-loop nests that can
// be handed to the polyhedral transformer (SCoP candidates).
//
// Rules implemented (paper section in parentheses):
//  * a pure function may only call functions from the pure hashset, seeded
//    with side-effect-free C standard functions plus malloc/free (§3.2);
//  * pointer parameters of a pure function must be declared `pure`;
//  * writes to parameters (through pointers), globals, or any data declared
//    outside the function are errors (§3.2, Listing 4);
//  * pure pointers are single-assignment (§3.1);
//  * external pointers may only be captured through a `pure` cast into a
//    `pure` local pointer (§3.2, Listing 3);
//  * `free` may only release memory malloc'ed in the same function (§3.2);
//  * loop nests are SCoP candidates when all calls inside are pure; a pure
//    call argument that is also written in the nest is an error (§3.4,
//    Listing 5). The rule compares names, so a write through a local
//    alias (Listing 6) raises no error, as §3.4 documents; the chain
//    (transform/pure_chain.h) keeps such a nest serial instead.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/decl.h"
#include "sema/symbols.h"
#include "support/diagnostics.h"

namespace purec {

struct PurityOptions {
  /// Paper default: malloc/free are admitted to the hashset ("their
  /// side-effects do not affect other threads").
  bool allow_malloc_free = true;
  /// Paper default: a Listing-5 violation is a hard error. When false the
  /// loop is silently skipped instead (useful for exploratory tooling).
  bool listing5_violation_is_error = true;
  /// Unannotated functions assumed pure without verification, from the
  /// inference subsystem (--infer-pure). Seeded into the hashset so their
  /// call sites mark SCoPs and annotated callers may call them; the §3.2
  /// verifier still runs on every *declared* pure function.
  std::set<std::string> assume_pure;
  /// For assumed-pure functions: globals they transitively read (inference
  /// provenance). The Listing-5 rule treats these as implicit call
  /// arguments — a nest that writes one of them while calling the function
  /// is rejected, closing a hole annotation-only code leaves open via the
  /// pure-cast promise.
  std::map<std::string, std::set<std::string>> assumed_global_reads;
};

/// The names the Listing-5 rule compares, collected over one loop nest.
/// The rule compares names only, so an alias raises no error (§3.4,
/// Listing 6); the chain matches these roots through local pointers.
struct NestRoots {
  /// Pointer/array variables appearing in pure-call arguments.
  std::set<std::string> call_args;
  /// The pure function each call-argument root is first passed to.
  std::map<std::string, std::string> callees;
  /// Globals read by the inferred-pure functions the nest calls
  /// (inference provenance).
  std::set<std::string> implicit_globals;
  /// Roots written through a subscript or dereference (`a[i] = ...`).
  std::set<std::string> writes;
  /// Globals written, through a subscript or bare.
  std::set<std::string> global_writes;

  /// Adds `other`'s names: the roots of the two nests as one nest.
  void merge(const NestRoots& other);
};

struct Listing5Conflict {
  std::string name;
  /// The conflict came through an inferred function's global read, not a
  /// literal call argument.
  bool implicit_global = false;
};

/// The Listing-5 rule over one nest's roots: an array both written and
/// passed to a pure call, or a global both written and read by an
/// inferred-pure callee without being passed. Empty when the nest obeys
/// the rule.
[[nodiscard]] std::vector<Listing5Conflict> listing5_conflicts(
    const NestRoots& roots);

struct ScopCandidate {
  const FunctionDecl* function = nullptr;
  const ForStmt* loop = nullptr;  // outermost loop of the nest
  bool contains_calls = false;    // false = plain affine nest, no calls
  /// What the nest passes to pure calls and writes, so that merging it
  /// with a sibling nest (loop fusion) can re-apply the Listing-5 rule.
  NestRoots roots;
};

struct PurityResult {
  /// All function names considered pure: seeded standard functions,
  /// declared-pure prototypes (trusted library functions), and verified
  /// definitions.
  std::set<std::string> pure_functions;
  /// Outermost for-loops eligible for #pragma scop / #pragma endscop.
  std::vector<ScopCandidate> scop_loops;

  [[nodiscard]] bool is_pure(const std::string& name) const {
    return pure_functions.count(name) != 0;
  }
};

/// The seed hashset: C standard functions without (thread-visible)
/// side-effects — sin, cos, log, sqrt, ... (§3.2).
[[nodiscard]] const std::set<std::string>& standard_pure_functions();

class PurityChecker {
 public:
  PurityChecker(const TranslationUnit& tu, const SymbolTable& symbols,
                DiagnosticEngine& diags, PurityOptions options = {});

  /// Runs verification + SCoP detection. Diagnostics carry the details;
  /// callers should treat `diags.has_errors()` as "chain must stop".
  [[nodiscard]] PurityResult check();

 private:
  void seed_pure_set();
  void verify_function(const FunctionDecl& fn);
  void detect_scops(const FunctionDecl& fn);

  const TranslationUnit& tu_;
  const SymbolTable& symbols_;
  DiagnosticEngine& diags_;
  PurityOptions options_;
  PurityResult result_;
};

/// Convenience: build symbols + run the checker.
[[nodiscard]] PurityResult check_purity(const TranslationUnit& tu,
                                        DiagnosticEngine& diags,
                                        PurityOptions options = {});

}  // namespace purec
