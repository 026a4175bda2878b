#include "purity/purity_checker.h"

#include <functional>
#include <optional>

#include "ast/walk.h"
#include "purity/effects.h"

namespace purec {

const std::set<std::string>& standard_pure_functions() {
  static const std::set<std::string> kPure = {
      // math.h (double / float variants)
      "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
      "tanh", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
      "sqrt", "cbrt", "pow", "hypot", "fabs", "floor", "ceil", "round",
      "trunc", "fmod", "fmin", "fmax", "fma", "copysign",
      "sinf", "cosf", "tanf", "asinf", "acosf", "atanf", "atan2f", "expf",
      "logf", "log2f", "log10f", "sqrtf", "powf", "fabsf", "floorf",
      "ceilf", "roundf", "fmodf", "fminf", "fmaxf", "fmaf",
      // stdlib.h value functions
      "abs", "labs", "llabs", "div", "ldiv", "atoi", "atol", "atof",
      // ctype.h
      "isalpha", "isdigit", "isalnum", "isspace", "isupper", "islower",
      "toupper", "tolower",
      // string.h readers
      "strlen", "strcmp", "strncmp", "memcmp",
  };
  return kPure;
}

PurityChecker::PurityChecker(const TranslationUnit& tu,
                             const SymbolTable& symbols,
                             DiagnosticEngine& diags, PurityOptions options)
    : tu_(tu), symbols_(symbols), diags_(diags), options_(options) {}

void PurityChecker::seed_pure_set() {
  result_.pure_functions = standard_pure_functions();
  if (options_.allow_malloc_free) {
    // Not strictly side-effect free, but their effects are invisible to
    // other threads (§3.2). This seeding is also what makes the paper's
    // matmul init loop accidentally parallelizable (§4.3.1).
    result_.pure_functions.insert("malloc");
    result_.pure_functions.insert("free");
    result_.pure_functions.insert("calloc");
  }
  // Every declared-pure function joins the set up front so that mutual
  // recursion between pure functions verifies ("including itself").
  for (const FunctionDecl* fn : tu_.functions()) {
    if (fn->is_pure) result_.pure_functions.insert(fn->name);
  }
  // Inference-provided names (--infer-pure): trusted without the keyword.
  result_.pure_functions.insert(options_.assume_pure.begin(),
                                options_.assume_pure.end());
}

PurityResult PurityChecker::check() {
  result_ = PurityResult{};
  seed_pure_set();
  for (const FunctionDecl* fn : tu_.functions()) {
    if (fn->is_pure && fn->is_definition()) verify_function(*fn);
  }
  for (const FunctionDecl* fn : tu_.functions()) {
    if (fn->is_definition()) detect_scops(*fn);
  }
  return result_;
}

namespace {

/// True if the expression is (possibly under casts) a call to `name`.
[[nodiscard]] bool is_call_to(const Expr* e, std::string_view name) {
  const auto* call = expr_cast<CallExpr>(strip_casts(e));
  return call != nullptr && call->callee_name() == name;
}

/// True if the expression carries a `pure` cast at any level.
[[nodiscard]] bool has_pure_cast(const Expr* e) {
  while (const auto* cast = expr_cast<CastExpr>(e)) {
    if (cast->target_type->any_level_pure()) return true;
    e = cast->operand.get();
  }
  return false;
}

/// Verifier for one pure function definition.
class FunctionVerifier {
 public:
  FunctionVerifier(const FunctionDecl& fn, const FunctionScopeInfo& scope,
                   const std::set<std::string>& pure_set,
                   DiagnosticEngine& diags)
      : fn_(fn), scope_(scope), pure_set_(pure_set), diags_(diags) {}

  void run() {
    check_parameters();
    collect_locals();
    for_each_stmt(*fn_.body, [this](const Stmt& s) { check_stmt(s); });
    for_each_expr(*fn_.body, [this](const Expr& e) { check_expr(e); });
  }

 private:
  void error(SourceLocation loc, std::string message) {
    diags_.error(loc, "purity", "in pure function '" + fn_.name +
                                    "': " + std::move(message));
  }

  void check_parameters() {
    for (const ParamDecl& p : fn_.params) {
      if (p.type->is_pointer() && !p.type->any_level_pure()) {
        error(p.loc, "pointer parameter '" + p.name +
                         "' must be declared pure (a pure function may not "
                         "receive writable external memory)");
      }
    }
  }

  /// First pass over declarations: remember pure-pointer locals (for the
  /// single-assignment rule) and malloc'ed locals (for the free rule).
  void collect_locals() {
    for_each_stmt(*fn_.body, [this](const Stmt& s) {
      const auto* decl = stmt_cast<DeclStmt>(&s);
      if (decl == nullptr) return;
      for (const VarDecl& d : decl->decls) {
        if (d.type->is_pointer() && d.type->any_level_pure() && d.init) {
          pure_ptr_assignments_[d.name] += 1;
        }
        if (d.init && is_call_to(d.init.get(), "malloc")) {
          malloced_locals_.insert(d.name);
        }
        if (d.init && is_call_to(d.init.get(), "calloc")) {
          malloced_locals_.insert(d.name);
        }
      }
    });
  }

  void check_stmt(const Stmt& s) {
    const auto* decl = stmt_cast<DeclStmt>(&s);
    if (decl == nullptr) return;
    for (const VarDecl& d : decl->decls) {
      if (d.is_static) {
        error(d.loc, "static local '" + d.name +
                         "' keeps state across calls (a pure function "
                         "may not have persistent state)");
      }
      if (d.init) check_capture(d.name, d.type, d.init.get(), d.loc);
    }
  }

  void check_expr(const Expr& e) {
    if (const auto* call = expr_cast<CallExpr>(&e)) {
      check_call(*call);
      return;
    }
    if (const auto* assign = expr_cast<AssignExpr>(&e)) {
      check_write(*assign->lhs, assign->loc);
      if (assign->op == AssignOp::Assign) {
        check_pointer_assignment(*assign);
      }
      return;
    }
    if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
      if (unary->op == UnaryOp::PreInc || unary->op == UnaryOp::PreDec ||
          unary->op == UnaryOp::PostInc || unary->op == UnaryOp::PostDec) {
        check_write(*unary->operand, unary->loc);
      }
      return;
    }
  }

  void check_call(const CallExpr& call) {
    const std::string name = call.callee_name();
    if (name.empty()) {
      error(call.loc, "indirect calls are not allowed in pure functions");
      return;
    }
    if (pure_set_.count(name) == 0) {
      // The extern effect database (shared with inference) models some
      // libc routines beyond the seed hashset: a ReadOnly extern
      // (strchr, strncmp, ...) writes nothing, so a verified-pure body
      // may call it. A writing extern (memcpy/memset via WritesArg0,
      // strtol/strtod via WritesArg1) is held to the same provenance
      // standard inference applies — harmless exactly when its
      // destination provably targets function-local storage — so
      // annotated and keyword-free twins agree.
      const ExternEffect* known = extern_effect(name);
      if (known != nullptr && known->kind == ExternEffectKind::ReadOnly) {
        return;
      }
      if (known != nullptr && (known->kind == ExternEffectKind::WritesArg0 ||
                               known->kind == ExternEffectKind::WritesArg1)) {
        if (!writes_arg0_oracle_) {
          writes_arg0_oracle_.emplace(fn_, scope_);
        }
        std::string violation = writes_arg0_oracle_->violation(call, name);
        if (!violation.empty()) error(call.loc, std::move(violation));
        return;
      }
      error(call.loc, "call to impure function '" + name + "'");
      return;
    }
    if (name == "free") check_free(call);
  }

  void check_free(const CallExpr& call) {
    if (call.args.size() != 1) {
      error(call.loc, "free() takes exactly one argument");
      return;
    }
    const Expr* arg = strip_casts(call.args[0].get());
    const auto* ident = expr_cast<IdentExpr>(arg);
    if (ident == nullptr || malloced_locals_.count(ident->name) == 0) {
      error(call.loc,
            "free() may only release memory allocated by malloc in the "
            "same pure function");
    }
  }

  /// Write-target legality (assignments and ++/--).
  void check_write(const Expr& lhs, SourceLocation loc) {
    const Symbol* root = scope_.lvalue_root(lhs);
    if (root == nullptr) {
      error(loc, "cannot verify assignment target (unsupported lvalue)");
      return;
    }
    const LvalueShape shape = lvalue_shape(lhs);
    switch (root->kind) {
      case SymbolKind::Param: {
        if (shape == LvalueShape::Through) {
          error(loc, "write through parameter '" + root->name +
                         "' modifies caller-owned memory");
          return;
        }
        // Reassigning the (by-value) parameter variable itself: harmless
        // for scalars, but a pure pointer is single-assignment.
        if (root->type && root->type->is_pointer() &&
            root->type->any_level_pure()) {
          error(loc, "pure pointer parameter '" + root->name +
                         "' cannot be reassigned (single assignment)");
        }
        return;
      }
      case SymbolKind::Global:
        error(loc, "assignment to global '" + root->name +
                       "' is a side-effect");
        return;
      case SymbolKind::Unknown:
        error(loc, "assignment to undeclared/external '" + root->name + "'");
        return;
      case SymbolKind::Function:
        error(loc, "cannot assign to function '" + root->name + "'");
        return;
      case SymbolKind::Local: {
        if (root->type && root->type->is_pointer() &&
            root->type->any_level_pure()) {
          if (shape == LvalueShape::Through) {
            error(loc, "write through pure pointer '" + root->name + "'");
            return;
          }
          // Single-assignment bookkeeping (declaration init counted in
          // collect_locals()).
          if (++pure_ptr_assignments_[root->name] > 1) {
            error(loc, "pure pointer '" + root->name +
                           "' assigned more than once");
          }
        }
        return;
      }
    }
  }

  /// Listing 3/4 rule for `lhs = rhs` where both sides are pointers:
  /// capturing external data requires a pure cast into a pure local.
  void check_pointer_assignment(const AssignExpr& assign) {
    const auto* lhs_ident =
        expr_cast<IdentExpr>(strip_casts(assign.lhs.get()));
    if (lhs_ident == nullptr) return;
    const Symbol* lhs_sym = scope_.resolve(*lhs_ident);
    if (lhs_sym == nullptr || lhs_sym->kind != SymbolKind::Local) return;
    if (!lhs_sym->type || !lhs_sym->type->is_pointer()) return;
    check_capture(lhs_sym->name, lhs_sym->type, assign.rhs.get(),
                  assign.loc);
  }

  /// Shared by declarations-with-init and plain assignments: is it legal
  /// for local pointer `name` (of `type`) to capture `rhs`?
  void check_capture(const std::string& name, const TypePtr& type,
                     const Expr* rhs, SourceLocation loc) {
    if (!type->is_pointer()) return;
    const bool lhs_pure = type->any_level_pure();
    const Expr* core = strip_casts(rhs);

    // Fresh memory from malloc/calloc: assignable to any local pointer.
    if (const auto* call = expr_cast<CallExpr>(core)) {
      const std::string callee = call->callee_name();
      if (callee == "malloc" || callee == "calloc") {
        malloced_locals_.insert(name);
        return;
      }
      // Result of another pure function: must be captured pure-cast into a
      // pure pointer (Listing 2, extPtr3).
      if (!lhs_pure || !has_pure_cast(rhs)) {
        error(loc, "result of pure function '" + callee +
                       "' must be captured via (pure T*) cast into a pure "
                       "pointer");
      }
      return;
    }

    const Symbol* root = scope_.lvalue_root(*core);
    if (root == nullptr) return;
    switch (root->kind) {
      case SymbolKind::Local:
        // Local-to-local pointer flow carries no external capability.
        // Propagate malloc provenance so free(alias) verifies.
        if (malloced_locals_.count(root->name) != 0 &&
            lvalue_shape(*core) == LvalueShape::Bare) {
          malloced_locals_.insert(name);
        }
        return;
      case SymbolKind::Param: {
        // Pure param -> pure local: fine without a cast (Listing 2, ptr).
        if (!lhs_pure) {
          error(loc, "parameter '" + root->name +
                         "' may only be captured by a pure pointer");
        }
        return;
      }
      case SymbolKind::Global:
      case SymbolKind::Unknown: {
        if (!lhs_pure || !has_pure_cast(rhs)) {
          error(loc, "external pointer '" + root->name +
                         "' requires a (pure T*) cast into a pure pointer "
                         "(Listing 3 rule)");
        }
        return;
      }
      case SymbolKind::Function:
        error(loc, "cannot capture function '" + root->name +
                       "' as a data pointer");
        return;
    }
  }

  const FunctionDecl& fn_;
  const FunctionScopeInfo& scope_;
  const std::set<std::string>& pure_set_;
  DiagnosticEngine& diags_;
  std::map<std::string, int> pure_ptr_assignments_;
  std::set<std::string> malloced_locals_;
  /// Built on the first writing extern call (most bodies have none;
  /// construction walks the whole body for pointer provenance).
  std::optional<WritesArg0Oracle> writes_arg0_oracle_;
};

}  // namespace

void PurityChecker::verify_function(const FunctionDecl& fn) {
  const FunctionScopeInfo* scope = symbols_.scope_for(fn);
  if (scope == nullptr) return;
  FunctionVerifier verifier(fn, *scope, result_.pure_functions, diags_);
  verifier.run();
}

namespace {

struct Listing5Conflict {
  std::string name;
  /// The conflict came through an inferred function's global read, not a
  /// literal call argument.
  bool implicit_global = false;
};

/// Applies the Listing-5 rule to one nest and records whether all its
/// calls are pure. The rule compares names only, so an alias raises no
/// error (§3.4, Listing 6).
class ScopScanner {
 public:
  ScopScanner(const FunctionScopeInfo& scope,
              const std::set<std::string>& pure_set,
              const std::map<std::string, std::set<std::string>>&
                  assumed_global_reads)
      : scope_(scope),
        pure_set_(pure_set),
        assumed_global_reads_(assumed_global_reads) {}

  struct NestReport {
    bool all_calls_pure = true;
    bool contains_calls = false;
    /// An array both written and passed to a pure call, or a global both
    /// written and read by an inferred-pure callee without being passed.
    std::vector<Listing5Conflict> conflicts;
  };

  [[nodiscard]] NestReport scan(const ForStmt& loop) {
    NestReport report;
    // Pointer/array variables in pure-call arguments, and the globals the
    // nest's inferred-pure callees read (inference provenance).
    std::set<std::string> call_args;
    std::set<std::string> implicit_globals;
    // Roots written through a subscript or dereference (`a[i] = ...`),
    // and globals written through a subscript or bare.
    std::set<std::string> writes;
    std::set<std::string> global_writes;

    const auto record_write = [&](const Expr& lhs) {
      const Symbol* root = scope_.lvalue_root(lhs);
      if (root == nullptr) return;
      const bool is_global = root->kind == SymbolKind::Global ||
                             root->kind == SymbolKind::Unknown;
      const LvalueShape shape = lvalue_shape(lhs);
      if (shape == LvalueShape::Through) {
        writes.insert(root->name);
        // The inference-provenance rule matches globals only, so a local
        // that shadows a global's name cannot trigger it.
        if (is_global) global_writes.insert(root->name);
      } else if (shape == LvalueShape::Bare && is_global) {
        // Only the inference-provenance rule below sees these; the
        // paper's argument rule stays name+Through based. A write through
        // a local alias (Listing 6) is no error here; the chain keeps
        // that nest serial. Global pointer swaps are pinned behavior.
        global_writes.insert(root->name);
      }
    };

    for_each_expr(static_cast<const Stmt&>(loop), [&](const Expr& e) {
      if (const auto* call = expr_cast<CallExpr>(&e)) {
        report.contains_calls = true;
        const std::string name = call->callee_name();
        if (name.empty() || pure_set_.count(name) == 0) {
          report.all_calls_pure = false;
          return;
        }
        for (const ExprPtr& arg : call->args) {
          collect_pointer_roots(*arg, call_args);
        }
        // Inference provenance: globals the callee reads behave like
        // arguments of the call.
        const auto reads = assumed_global_reads_.find(name);
        if (reads != assumed_global_reads_.end()) {
          implicit_globals.insert(reads->second.begin(),
                                  reads->second.end());
        }
        return;
      }
      if (const auto* assign = expr_cast<AssignExpr>(&e)) {
        record_write(*assign->lhs);
        return;
      }
      if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
        // a[i]++ is a write like a[i] = a[i] + 1: §3.4's "written in the
        // same loop nest" includes increments. (Deliberate tightening
        // over the seed, which only saw AssignExpr; pinned by test.)
        if (unary->op == UnaryOp::PreInc || unary->op == UnaryOp::PreDec ||
            unary->op == UnaryOp::PostInc ||
            unary->op == UnaryOp::PostDec) {
          record_write(*unary->operand);
        }
        return;
      }
    });
    for (const std::string& w : writes) {
      if (call_args.count(w) != 0) report.conflicts.push_back({w, false});
    }
    for (const std::string& w : global_writes) {
      if (call_args.count(w) == 0 && implicit_globals.count(w) != 0) {
        report.conflicts.push_back({w, true});
      }
    }
    return report;
  }

 private:
  /// Adds the names of pointer/array variables appearing in an argument
  /// of a pure call.
  void collect_pointer_roots(const Expr& arg,
                             std::set<std::string>& call_args) {
    for_each_expr(arg, [&](const Expr& e) {
      const auto* ident = expr_cast<IdentExpr>(&e);
      if (ident == nullptr) return;
      const Symbol* sym = scope_.resolve(*ident);
      if (sym == nullptr) return;
      if (sym->type && (sym->type->is_pointer() || sym->type->is_array())) {
        call_args.insert(sym->name);
      }
    });
  }

  const FunctionScopeInfo& scope_;
  const std::set<std::string>& pure_set_;
  const std::map<std::string, std::set<std::string>>& assumed_global_reads_;
};

}  // namespace

void PurityChecker::detect_scops(const FunctionDecl& fn) {
  const FunctionScopeInfo* scope = symbols_.scope_for(fn);
  if (scope == nullptr) return;
  ScopScanner scanner(*scope, result_.pure_functions,
                      options_.assumed_global_reads);

  // Walk statements; at each outermost for-loop decide: mark, recurse, or
  // error. (An inner loop of a rejected nest may still be markable.)
  std::function<void(const Stmt&, bool)> walk = [&](const Stmt& s,
                                                    bool inside_marked) {
    if (const auto* loop = stmt_cast<ForStmt>(&s)) {
      if (!inside_marked) {
        const ScopScanner::NestReport report = scanner.scan(*loop);
        const std::vector<Listing5Conflict>& conflicts = report.conflicts;
        if (report.all_calls_pure && conflicts.empty()) {
          result_.scop_loops.push_back(
              ScopCandidate{&fn, loop, report.contains_calls});
          inside_marked = true;
        } else if (!conflicts.empty()) {
          for (const Listing5Conflict& v : conflicts) {
            // Implicit-global roots may be scalars, not arrays.
            const std::string what =
                v.implicit_global
                    ? "global '" + v.name +
                          "' is read by an inferred-pure function called "
                          "in the nest and written in the same loop nest "
                          "(Listing 5 rule, inference provenance)"
                    : "array '" + v.name +
                          "' is passed to a pure function and written "
                          "in the same loop nest (Listing 5 rule)";
            if (options_.listing5_violation_is_error) {
              diags_.error(loop->loc, "purity", what);
            } else {
              diags_.warning(loop->loc, "purity",
                             "skipping loop: '" + v.name +
                                 "' is both pure-call " +
                                 (v.implicit_global ? "global read"
                                                    : "argument") +
                                 " and write target");
            }
          }
          inside_marked = true;  // do not mark inner pieces of a bad nest
        }
        // else: impure calls present -> fall through and try inner loops.
      }
      if (loop->body) walk(*loop->body, inside_marked);
      return;
    }
    switch (s.kind()) {
      case StmtKind::Compound:
        for (const StmtPtr& child : static_cast<const CompoundStmt&>(s).stmts)
          walk(*child, inside_marked);
        return;
      case StmtKind::If: {
        const auto& n = static_cast<const IfStmt&>(s);
        walk(*n.then_stmt, inside_marked);
        if (n.else_stmt) walk(*n.else_stmt, inside_marked);
        return;
      }
      case StmtKind::While:
        walk(*static_cast<const WhileStmt&>(s).body, inside_marked);
        return;
      case StmtKind::DoWhile:
        walk(*static_cast<const DoWhileStmt&>(s).body, inside_marked);
        return;
      default:
        return;
    }
  };
  walk(*fn.body, false);
}

PurityResult check_purity(const TranslationUnit& tu, DiagnosticEngine& diags,
                          PurityOptions options) {
  const SymbolTable symbols = SymbolTable::build(tu, diags);
  PurityChecker checker(tu, symbols, diags, options);
  return checker.check();
}

}  // namespace purec
