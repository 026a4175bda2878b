#include "transform/pure_chain.h"

#include <algorithm>

#include "ast/walk.h"
#include "emit/c_printer.h"
#include "emit/instrument.h"
#include "emit/runtime_sections.h"
#include "lexer/lexer.h"
#include "memo/memo_codegen.h"
#include "parser/parser.h"
#include "polyhedral/dependence.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "purity/effects.h"
#include "sema/symbols.h"
#include "support/rational.h"
#include "transform/call_substitution.h"
#include "transform/loop_canon.h"
#include "transform/pure_inliner.h"

namespace purec {

namespace {

/// Finds the owning slot of `target` anywhere under `root` (compound
/// children, if branches, loop bodies). Returns nullptr if absent.
StmtPtr* find_stmt_slot(CompoundStmt& root, const Stmt* target) {
  StmtPtr* found = nullptr;
  for (StmtPtr& child : root.stmts) {
    for_each_stmt_slot(child, [&](StmtPtr& slot) {
      if (found == nullptr && slot.get() == target) found = &slot;
      return found != nullptr;
    });
  }
  return found;
}

/// Finds the compound statement that directly owns `target`.
CompoundStmt* find_owning_compound(Stmt& s, const Stmt* target) {
  CompoundStmt* owner = nullptr;
  for_each_stmt(s, [&](Stmt& sub) {
    auto* block = stmt_cast<CompoundStmt>(&sub);
    if (owner != nullptr || block == nullptr) return;
    for (const StmtPtr& child : block->stmts) {
      if (child.get() == target) owner = block;
    }
  });
  return owner;
}

/// What a statement executed *after* the nest does to the iterator:
/// reads its (lost) value, unconditionally overwrites it before any
/// read, or never mentions it.
enum class IterFate { NoRef, Killed, Read };

/// Plain `name = rhs` with `name` absent from rhs: the old value dies.
[[nodiscard]] bool is_kill_assignment(const Stmt* s,
                                      const std::string& name) {
  const auto* es = stmt_cast<ExprStmt>(s);
  const auto* assign = es ? expr_cast<AssignExpr>(es->expr.get()) : nullptr;
  const auto* ident =
      assign ? expr_cast<IdentExpr>(assign->lhs.get()) : nullptr;
  if (assign == nullptr || assign->op != AssignOp::Assign ||
      ident == nullptr || ident->name != name) {
    return false;
  }
  return !references_identifier(*assign->rhs, name);
}

[[nodiscard]] IterFate iterator_fate(const Stmt& s,
                                     const std::string& name) {
  switch (s.kind()) {
    case StmtKind::Expr:
      if (is_kill_assignment(&s, name)) return IterFate::Killed;
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
    case StmtKind::Compound: {
      for (const StmtPtr& child :
           static_cast<const CompoundStmt&>(s).stmts) {
        // A nested declaration of the same name shadows the remainder
        // of this block only — skip it, but keep scanning outside.
        if (const auto* decl = stmt_cast<DeclStmt>(child.get())) {
          bool shadows = false;
          for (const VarDecl& d : decl->decls) {
            if (d.init && references_identifier(*d.init, name)) {
              return IterFate::Read;
            }
            if (d.name == name) shadows = true;
          }
          if (shadows) return IterFate::NoRef;
          continue;
        }
        const IterFate fate = iterator_fate(*child, name);
        if (fate != IterFate::NoRef) return fate;
      }
      return IterFate::NoRef;
    }
    case StmtKind::If: {
      const auto& branch = static_cast<const IfStmt&>(s);
      if (references_identifier(*branch.cond, name)) return IterFate::Read;
      const IterFate then_fate = iterator_fate(*branch.then_stmt, name);
      if (then_fate == IterFate::Read) return IterFate::Read;
      const IterFate else_fate =
          branch.else_stmt ? iterator_fate(*branch.else_stmt, name)
                           : IterFate::NoRef;
      if (else_fate == IterFate::Read) return IterFate::Read;
      // Only a kill on BOTH paths guarantees the old value is dead.
      if (then_fate == IterFate::Killed && else_fate == IterFate::Killed) {
        return IterFate::Killed;
      }
      return IterFate::NoRef;
    }
    case StmtKind::For: {
      const auto& loop = static_cast<const ForStmt&>(s);
      // A later loop re-initializing the variable kills the old value;
      // a decl-init loop of the same name shadows its own subtree.
      if (is_kill_assignment(loop.init.get(), name)) {
        return IterFate::Killed;
      }
      if (const auto* decl = stmt_cast<DeclStmt>(loop.init.get())) {
        if (decl->decls.size() == 1 && decl->decls[0].name == name &&
            (!decl->decls[0].init ||
             !references_identifier(*loop.init, name))) {
          return IterFate::NoRef;
        }
      }
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
    }
    default:
      return references_identifier(s, name) ? IterFate::Read : IterFate::NoRef;
  }
}

/// Fate of `name` in the statements that execute after `nest` inside
/// subtree `s`. `found` reports whether the nest was seen; `in_loop`
/// reports the nest sits under an enclosing loop (its value is then
/// consumed by statements *before* it textually, so any outside
/// reference is conservatively a read).
[[nodiscard]] IterFate fate_after_nest(const Stmt& s, const Stmt* nest,
                                       const std::string& name,
                                       bool& found, bool& in_loop) {
  if (&s == nest) {
    found = true;
    return IterFate::NoRef;
  }
  switch (s.kind()) {
    case StmtKind::Compound: {
      const auto& block = static_cast<const CompoundStmt&>(s);
      for (std::size_t i = 0; i < block.stmts.size(); ++i) {
        const IterFate fate =
            fate_after_nest(*block.stmts[i], nest, name, found, in_loop);
        if (!found) continue;
        if (fate != IterFate::NoRef) return fate;
        for (std::size_t k = i + 1; k < block.stmts.size(); ++k) {
          const IterFate sibling = iterator_fate(*block.stmts[k], name);
          if (sibling != IterFate::NoRef) return sibling;
        }
        return IterFate::NoRef;
      }
      return IterFate::NoRef;
    }
    case StmtKind::If: {
      const auto& branch = static_cast<const IfStmt&>(s);
      IterFate fate =
          fate_after_nest(*branch.then_stmt, nest, name, found, in_loop);
      if (found) return fate;
      if (branch.else_stmt) {
        fate = fate_after_nest(*branch.else_stmt, nest, name, found,
                               in_loop);
        if (found) return fate;
      }
      return IterFate::NoRef;
    }
    case StmtKind::For: {
      const auto& loop = static_cast<const ForStmt&>(s);
      if (loop.body) {
        const IterFate fate =
            fate_after_nest(*loop.body, nest, name, found, in_loop);
        if (found) {
          in_loop = true;
          return fate;
        }
      }
      return IterFate::NoRef;
    }
    case StmtKind::While:
    case StmtKind::DoWhile: {
      const Stmt* body = s.kind() == StmtKind::While
                             ? static_cast<const WhileStmt&>(s).body.get()
                             : static_cast<const DoWhileStmt&>(s).body.get();
      if (body != nullptr) {
        const IterFate fate =
            fate_after_nest(*body, nest, name, found, in_loop);
        if (found) {
          in_loop = true;
          return fate;
        }
      }
      return IterFate::NoRef;
    }
    default:
      return IterFate::NoRef;
  }
}

/// Name of the first scop-loop iterator that (a) lives in an enclosing
/// scope (`i = 0` for-init — the shape while-canonicalization produces)
/// and (b) is referenced outside the nest. Both lowering paths lose the
/// iterator's post-loop value — the classic path regenerates the nest
/// over fresh `t*` variables and never assigns the original, and an
/// OpenMP-annotated loop privatizes it, leaving the original
/// indeterminate after the region — so such nests must stay serial.
/// Returns empty when no iterator escapes.
std::string escaping_iterator_use(const poly::Scop& scop,
                                  const FunctionDecl& fn,
                                  const ForStmt& root,
                                  const SymbolTable& symbols) {
  std::vector<std::string> candidates;
  for (std::size_t j = 0; j < scop.loop_asts.size(); ++j) {
    const ForStmt* loop = scop.loop_asts[j];
    if (loop != nullptr && loop->init != nullptr &&
        stmt_cast<ExprStmt>(loop->init.get()) != nullptr) {
      candidates.push_back(scop.iterators[j]);
    }
  }
  if (candidates.empty() || !fn.body) return {};
  const auto count_in = [](const Stmt& s, const std::string& name) {
    std::size_t count = 0;
    for_each_expr(s, [&](const Expr& e) {
      const auto* ident = expr_cast<IdentExpr>(&e);
      if (ident != nullptr && ident->name == name) ++count;
    });
    return count;
  };
  for (const std::string& name : candidates) {
    // A file-scope induction variable escapes by definition: any other
    // function can observe its post-loop value, and no in-function
    // analysis can see that.
    if (symbols.find_global(name) != nullptr) return name;
    // No references outside the nest at all: trivially safe.
    if (count_in(*fn.body, name) <=
        count_in(static_cast<const Stmt&>(root), name)) {
      continue;
    }
    // References exist elsewhere — decide by what actually happens to
    // the variable after the nest: an unconditional re-initialization
    // (e.g. a sibling `for (i = 0; ...)`) kills the value before any
    // read, references only *before* a straight-line nest are reads of
    // pre-nest values, but a read — or any outside reference when the
    // nest re-executes under an enclosing loop — escapes.
    bool found = false;
    bool in_loop = false;
    const IterFate fate = fate_after_nest(
        *fn.body, static_cast<const Stmt*>(&root), name, found, in_loop);
    if (!found || in_loop || fate == IterFate::Read) return name;
  }
  return {};
}

/// Type of scalar `name` as seen from `fn`: block-scope declarations win,
/// then parameters, then file-scope globals. Null when unknown (the FP
/// reduction gate then demotes conservatively).
[[nodiscard]] const Type* scalar_type_in(const FunctionDecl& fn,
                                         const SymbolTable& symbols,
                                         const std::string& name) {
  const Type* found = nullptr;
  if (fn.body) {
    for_each_stmt(*fn.body, [&](const Stmt& s) {
      const auto* decl = stmt_cast<DeclStmt>(&s);
      if (decl == nullptr) return;
      for (const VarDecl& d : decl->decls) {
        if (d.name == name && d.type) found = d.type.get();
      }
    });
  }
  if (found != nullptr) return found;
  for (const ParamDecl& param : fn.params) {
    if (param.name == name && param.type) return param.type.get();
  }
  if (const GlobalVarDecl* global = symbols.find_global(name)) {
    return global->var.type.get();
  }
  return nullptr;
}

/// Inserts `#pragma scop` / `#pragma endscop` around each candidate loop.
void mark_scops(TranslationUnit& tu,
                const std::vector<ScopCandidate>& candidates) {
  for (const ScopCandidate& candidate : candidates) {
    FunctionDecl* fn = tu.find_function(candidate.function->name);
    if (fn == nullptr || !fn->body) continue;
    CompoundStmt* block = find_owning_compound(*fn->body, candidate.loop);
    if (block == nullptr) continue;
    for (std::size_t i = 0; i < block->stmts.size(); ++i) {
      if (block->stmts[i].get() != candidate.loop) continue;
      block->stmts.insert(block->stmts.begin() + i + 1,
                          std::make_unique<PragmaStmt>("#pragma endscop"));
      block->stmts.insert(block->stmts.begin() + i,
                          std::make_unique<PragmaStmt>("#pragma scop"));
      break;
    }
  }
}

/// Removes the scop marker pragmas again (the polyhedral step consumes
/// candidates directly; the markers are the PC-CC artifact).
void scrub_scop_markers(Stmt& s) {
  for_each_stmt(s, [](Stmt& sub) {
    if (auto* block = stmt_cast<CompoundStmt>(&sub)) {
      std::erase_if(block->stmts, [](const StmtPtr& child) {
        const auto* pragma = stmt_cast<PragmaStmt>(child.get());
        return pragma != nullptr && (pragma->text == "#pragma scop" ||
                                     pragma->text == "#pragma endscop");
      });
    }
  });
}

void unmark_scops(TranslationUnit& tu) {
  for (FunctionDecl* fn : tu.functions()) {
    if (fn->body) scrub_scop_markers(*fn->body);
  }
}

// ---- Adjacent sibling-loop fusion ----------------------------------------

/// Renames every identifier `from` to `to` in an expression/statement
/// subtree (used to merge the second loop's body onto the first loop's
/// iterator; callers have already rejected shadowing and capture).
template <typename Node>  // Expr or Stmt
void rename_identifier(Node& node, const std::string& from,
                       const std::string& to) {
  for_each_expr(node, [&](Expr& sub) {
    auto* ident = expr_cast<IdentExpr>(&sub);
    if (ident != nullptr && ident->name == from) ident->name = to;
  });
}

/// Structural equality of two loop-header expressions modulo renaming
/// `rename_from` (in `b`) to `rename_to`. Conservative: only the shapes a
/// canonical loop header uses (literals, identifiers, unary/binary/assign
/// operators); anything else compares unequal.
[[nodiscard]] bool headers_match(const Expr* a, const Expr* b,
                                 const std::string& rename_from,
                                 const std::string& rename_to) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ExprKind::IntLiteral:
      return static_cast<const IntLiteralExpr&>(*a).value ==
             static_cast<const IntLiteralExpr&>(*b).value;
    case ExprKind::Ident: {
      const std::string& nb = static_cast<const IdentExpr&>(*b).name;
      return static_cast<const IdentExpr&>(*a).name ==
             (nb == rename_from ? rename_to : nb);
    }
    case ExprKind::Unary: {
      const auto& ua = static_cast<const UnaryExpr&>(*a);
      const auto& ub = static_cast<const UnaryExpr&>(*b);
      return ua.op == ub.op && headers_match(ua.operand.get(),
                                             ub.operand.get(), rename_from,
                                             rename_to);
    }
    case ExprKind::Binary: {
      const auto& ba = static_cast<const BinaryExpr&>(*a);
      const auto& bb = static_cast<const BinaryExpr&>(*b);
      return ba.op == bb.op &&
             headers_match(ba.lhs.get(), bb.lhs.get(), rename_from,
                           rename_to) &&
             headers_match(ba.rhs.get(), bb.rhs.get(), rename_from,
                           rename_to);
    }
    case ExprKind::Assign: {
      const auto& aa = static_cast<const AssignExpr&>(*a);
      const auto& ab = static_cast<const AssignExpr&>(*b);
      return aa.op == ab.op &&
             headers_match(aa.lhs.get(), ab.lhs.get(), rename_from,
                           rename_to) &&
             headers_match(aa.rhs.get(), ab.rhs.get(), rename_from,
                           rename_to);
    }
    default:
      return false;
  }
}

/// True when `s` declares `name` anywhere (shadowing hazard for the
/// rename-based fusion merge).
[[nodiscard]] bool declares_identifier(const Stmt& s,
                                       const std::string& name) {
  bool found = false;
  for_each_stmt(s, [&](const Stmt& sub) {
    const auto* decl = stmt_cast<DeclStmt>(&sub);
    if (decl == nullptr) return;
    for (const VarDecl& d : decl->decls) {
      if (d.name == name) found = true;
    }
  });
  return found;
}

/// Appends (a clone of) `extra` to `loop`'s body, flattening compounds.
void append_to_body(ForStmt& loop, StmtPtr extra) {
  auto* block = stmt_cast<CompoundStmt>(loop.body.get());
  if (block == nullptr) {
    auto wrapper = std::make_unique<CompoundStmt>();
    if (loop.body) wrapper->stmts.push_back(std::move(loop.body));
    loop.body = std::move(wrapper);
    block = stmt_cast<CompoundStmt>(loop.body.get());
  }
  if (auto* extra_block = stmt_cast<CompoundStmt>(extra.get())) {
    for (StmtPtr& child : extra_block->stmts) {
      block->stmts.push_back(std::move(child));
    }
  } else {
    block->stmts.push_back(std::move(extra));
  }
}

/// One function's local pointers (purity/effects.h), and the access
/// model's view of each: its one base and constant offset, or why it has
/// none.
struct LocalPointers {
  PointerBaseMap bases;
  poly::PointerTargets targets;
};

[[nodiscard]] LocalPointers local_pointers(const FunctionDecl& fn,
                                           const FunctionScopeInfo& scope) {
  LocalPointers out{local_pointer_bases(fn, scope), {}};
  for (const auto& [name, bases] : out.bases) {
    poly::PointerTarget& target = out.targets[name];
    if (!bases.unresolved && bases.bases.size() == 1 && bases.offset) {
      target.base = *bases.bases.begin();
      target.offset = *bases.offset;
      continue;
    }
    if (bases.unresolved) {
      target.unknown = "may point anywhere";
    } else if (bases.bases.size() > 1) {
      target.unknown = "may point into";
      for (const std::string& base : bases.bases) {
        target.unknown += (base == *bases.bases.begin() ? " '" : " or '") +
                          base + "'";
      }
    } else {
      target.unknown = "moves by an offset that is not a constant";
    }
    if (bases.bound.line != 0) {
      target.unknown +=
          " (bound at line " + std::to_string(bases.bound.line) + ")";
    }
  }
  return out;
}

/// The Listing-5 rule through local pointers: a root written in the nest
/// and a root passed to a pure call, of different names, that may share a
/// base. A resolved local pointer stands for its bases; an unresolved one
/// may share a base with any root. The dependence analysis cannot see
/// what the call reads, so such a nest stays as written. Returns the
/// located reason, or empty when the nest has no such pair. (The checker
/// has already rejected every pair of equal names, §3.4.)
[[nodiscard]] std::string alias_conflict(const NestRoots& roots,
                                         const PointerBaseMap& pointers) {
  const auto find = [&pointers](const std::string& root) {
    const auto it = pointers.find(root);
    return it == pointers.end() ? nullptr : &it->second;
  };
  for (const std::string& w : roots.writes) {
    if (roots.call_args.count(w) != 0) continue;
    const PointerBases* written = find(w);
    for (const std::string& arg : roots.call_args) {
      const PointerBases* passed = find(arg);
      if (written == nullptr && passed == nullptr) continue;
      const std::string& callee = roots.callees.at(arg);
      // The local pointer the reason names, and the base they share.
      std::string pointer;
      std::string base;
      if (written != nullptr && written->unresolved) {
        pointer = w;
      } else if (passed != nullptr && passed->unresolved) {
        pointer = arg;
      } else {
        const std::set<std::string> from_write =
            written != nullptr ? written->bases : std::set<std::string>{w};
        const std::set<std::string> from_arg =
            passed != nullptr ? passed->bases : std::set<std::string>{arg};
        for (const std::string& b : from_write) {
          if (from_arg.count(b) != 0) {
            base = b;
            break;
          }
        }
        if (base.empty()) continue;
        pointer = written != nullptr && w != base ? w : arg;
      }
      const std::uint32_t line = find(pointer)->bound.line;
      const std::string bound =
          line != 0 ? " (bound at line " + std::to_string(line) + ")" : "";
      if (base.empty()) {
        return "'" + w + "' is written and '" + arg +
               "' is passed to pure function '" + callee +
               "' in the same loop nest; local pointer '" + pointer +
               "' may point anywhere" + bound +
               ". Listing 5 rule through a local alias";
      }
      return "array '" + base + "' is written through '" + w +
             "' and passed to pure function '" + callee + "' as '" + arg +
             "' in the same loop nest; '" + pointer + "' points into it" +
             bound + ". Listing 5 rule through a local alias";
    }
  }
  return {};
}

}  // namespace

ChainArtifacts run_pure_chain(const std::string& source,
                              const ChainOptions& options) {
  ChainArtifacts artifacts;
  DiagnosticEngine& diags = artifacts.diagnostics;

  // ---- PC-PrePro ----------------------------------------------------------
  StrippedSource stripped = strip_system_includes(source);
  artifacts.stripped = stripped.text;

  // ---- GCC-E (mini) -------------------------------------------------------
  MiniPreprocessor cpp(diags);
  for (const auto& [name, content] : options.virtual_includes) {
    cpp.add_include_file(name, content);
  }
  for (const auto& [name, value] : options.defines) {
    cpp.define(name, value);
  }
  artifacts.preprocessed = cpp.preprocess(stripped.text);
  if (diags.has_errors()) return artifacts;

  // ---- PC-CC: parse + purity verification + scop detection ----------------
  SourceBuffer buffer =
      SourceBuffer::from_string(artifacts.preprocessed, "<chain>");
  TranslationUnit tu = parse(buffer, diags);
  if (diags.has_errors()) return artifacts;

  // Affine `while` loops canonicalize into `for` before anything looks at
  // loop structure, so they SCoP-mark and parallelize like their `for`
  // twins (region extraction's `while`-as-for leg).
  artifacts.canonicalized_whiles = canonicalize_while_loops(tu);

  // Extension pre-pass (§3.3 future work): inline expression-bodied pure
  // functions before verification + scop detection. A scratch purity run
  // supplies the hashset; the authoritative run happens below on the
  // (possibly) rewritten AST.
  if (options.inline_pure_expressions) {
    DiagnosticEngine scratch;
    const SymbolTable scratch_symbols = SymbolTable::build(tu, scratch);
    PurityOptions scratch_options = options.purity;
    scratch_options.listing5_violation_is_error = false;
    if (options.infer_purity) {
      // Inferred-pure functions are inlining candidates too.
      const InferenceResult pre_inline =
          infer_purity(tu, scratch_symbols, options.purity);
      scratch_options.assume_pure = pre_inline.inferred_pure;
    }
    PurityChecker scratch_checker(tu, scratch_symbols, scratch,
                                  scratch_options);
    const PurityResult scratch_purity = scratch_checker.check();
    artifacts.inlined_calls =
        inline_pure_expression_functions(tu, scratch_purity.pure_functions);
  }

  const SymbolTable symbols = SymbolTable::build(tu, diags);
  PurityOptions purity_options = options.purity;
  // The full per-function purity trail is computed unconditionally for the
  // report (declared / inferable / rejected with reason + location); it
  // only *drives* the transformation under --infer-pure, where it also
  // seeds the checker's hashset.
  artifacts.purity_trail = infer_purity(tu, symbols, options.purity);
  if (options.infer_purity) {
    // Interprocedural inference over the (possibly inlined) AST seeds the
    // checker: unannotated-but-provably-pure functions join the hashset,
    // and their transitive global reads feed the Listing-5 rule.
    artifacts.inference = artifacts.purity_trail;
    purity_options.assume_pure = artifacts.inference.inferred_pure;
    purity_options.assumed_global_reads =
        artifacts.inference.inferred_global_reads();
  }
  PurityChecker checker(tu, symbols, diags, purity_options);
  const PurityResult purity = checker.check();
  if (diags.has_errors()) return artifacts;

  // Memoizability classification runs on the pre-transformation AST: it
  // re-derives effect summaries through `symbols`, whose resolutions are
  // keyed on the original nodes. The call-site rewrite happens after the
  // polyhedral step so reinserted calls inside generated nests are
  // rewritten too.
  if (options.memoize) {
    artifacts.memoization = classify_memoizable(
        tu, symbols, purity.pure_functions, purity_options,
        /*cost_gate=*/!options.memoize_all,
        options.has_memoize_profile ? &options.memoize_profile : nullptr);
  }

  // Before any nest is rewritten: the base map reads the whole body.
  std::map<const FunctionDecl*, LocalPointers> pointers;
  for (const ScopCandidate& candidate : purity.scop_loops) {
    const FunctionScopeInfo* scope = symbols.scope_for(*candidate.function);
    if (scope != nullptr && pointers.count(candidate.function) == 0) {
      pointers.emplace(candidate.function,
                       local_pointers(*candidate.function, *scope));
    }
  }
  const auto targets_of =
      [&pointers](const FunctionDecl* fn) -> const poly::PointerTargets* {
    const auto it = pointers.find(fn);
    return it == pointers.end() ? nullptr : &it->second.targets;
  };
  const auto alias_conflict_in = [&pointers](const NestRoots& roots,
                                             const FunctionDecl* fn) {
    const auto it = pointers.find(fn);
    return it == pointers.end() ? std::string()
                                : alias_conflict(roots, it->second.bases);
  };

  mark_scops(tu, purity.scop_loops);
  artifacts.marked = print_c(tu, PrintOptions{PureHandling::Keep, 2});
  unmark_scops(tu);

  // ---- polycc: substitution + polyhedral transformation -------------------
  std::size_t placeholder_counter = 0;
  std::vector<ScopCandidate> scop_candidates = purity.scop_loops;
  std::vector<std::vector<SubstitutedCall>> all_substitutions;
  for (const ScopCandidate& candidate : scop_candidates) {
    auto* loop = const_cast<ForStmt*>(candidate.loop);
    all_substitutions.push_back(substitute_pure_calls(
        *loop, purity.pure_functions, placeholder_counter));
  }
  artifacts.substituted = print_c(tu, PrintOptions{PureHandling::Keep, 2});

  // Loop fusion: adjacent sibling scop nests with structurally identical
  // headers merge into one loop when the fused outer loop is still
  // parallel — one parallel region (and one pass over shared inputs)
  // instead of two. Decisions, taken or rejected, go to the report.
  std::vector<std::size_t> fused_counts(scop_candidates.size(), 0);
  if (options.parallelize) {
    for (std::size_t i = 0; i + 1 < scop_candidates.size();) {
      const ScopCandidate& first = scop_candidates[i];
      const ScopCandidate& second = scop_candidates[i + 1];
      auto* loop1 = const_cast<ForStmt*>(first.loop);
      auto* loop2 = const_cast<ForStmt*>(second.loop);
      FusionDecision decision;
      decision.function = first.function->name;
      decision.first_line = loop1->loc.line;
      decision.first_column = loop1->loc.column;
      decision.second_line = loop2->loc.line;
      decision.second_column = loop2->loc.column;

      // Adjacency: both nests directly consecutive in one compound of the
      // same function (anything between them — even a declaration — keeps
      // them apart). Non-adjacent pairs are not candidates at all.
      FunctionDecl* fn = first.function == second.function
                             ? tu.find_function(first.function->name)
                             : nullptr;
      CompoundStmt* block =
          fn != nullptr && fn->body
              ? find_owning_compound(*fn->body, loop1)
              : nullptr;
      bool adjacent = false;
      std::size_t slot2 = 0;
      if (block != nullptr) {
        for (std::size_t k = 0; k + 1 < block->stmts.size(); ++k) {
          if (block->stmts[k].get() == loop1 &&
              block->stmts[k + 1].get() == loop2) {
            adjacent = true;
            slot2 = k + 1;
            break;
          }
        }
      }
      if (!adjacent) {
        ++i;
        continue;
      }

      const auto reject = [&](std::string reason) {
        decision.fused = false;
        decision.reason = std::move(reason);
        artifacts.fusion_decisions.push_back(std::move(decision));
        ++i;
      };

      // Header compatibility: both iterators block-scoped (decl-init,
      // single declarator), identical bounds/step modulo renaming the
      // second iterator onto the first.
      const auto* decl1 = stmt_cast<DeclStmt>(loop1->init.get());
      const auto* decl2 = stmt_cast<DeclStmt>(loop2->init.get());
      if (decl1 == nullptr || decl2 == nullptr ||
          decl1->decls.size() != 1 || decl2->decls.size() != 1) {
        reject("iterator is not a block-scoped declaration");
        continue;
      }
      const std::string n1 = decl1->decls[0].name;
      const std::string n2 = decl2->decls[0].name;
      if (!headers_match(decl1->decls[0].init.get(),
                         decl2->decls[0].init.get(), n2, n1) ||
          !headers_match(loop1->cond.get(), loop2->cond.get(), n2, n1) ||
          !headers_match(loop1->inc.get(), loop2->inc.get(), n2, n1)) {
        reject("loop headers differ (bounds or step)");
        continue;
      }
      if (n1 != n2 && loop2->body != nullptr &&
          references_identifier(*loop2->body, n1)) {
        reject("iterator rename would capture '" + n1 + "'");
        continue;
      }
      if (loop2->body != nullptr &&
          (declares_identifier(*loop2->body, n1) ||
           declares_identifier(*loop2->body, n2))) {
        reject("second body redeclares the iterator");
        continue;
      }

      // Trial merge on clones: the fused nest must extract as one scop
      // and its outer loop must stay parallel.
      std::size_t boundary = 0;
      {
        poly::ExtractionResult r1 =
            poly::extract_scop(*loop1, targets_of(first.function));
        if (!r1.ok()) {
          reject("first nest no longer extracts: " + r1.failure_reason);
          continue;
        }
        for (const poly::ScopStatement& stmt : r1.scop->statements) {
          boundary = std::max(boundary, stmt.position + 1);
        }
      }
      auto trial = StmtPtr(loop1->clone());
      auto* trial_loop = stmt_cast<ForStmt>(trial.get());
      StmtPtr body2 = loop2->body ? loop2->body->clone() : nullptr;
      if (body2) rename_identifier(*body2, n2, n1);
      append_to_body(*trial_loop, std::move(body2));
      poly::ExtractionResult fused =
          poly::extract_scop(*trial_loop, targets_of(first.function));
      if (!fused.ok()) {
        reject("fused nest is not a SCoP: " + fused.failure_reason);
        continue;
      }
      const std::vector<poly::Dependence> deps =
          poly::analyze_dependences(*fused.scop);
      if (!poly::loop_is_parallel(deps, 0)) {
        bool crossing = false;
        const poly::Dependence* blocker =
            poly::fusion_blocker(*fused.scop, deps, boundary, &crossing);
        if (blocker != nullptr && crossing) {
          reject("fusion-preventing dependence on '" + blocker->array +
                 "'");
        } else if (blocker != nullptr) {
          reject("a loop is already serial (dependence on '" +
                 blocker->array + "')");
        } else {
          reject("fused outer loop is not parallel");
        }
        continue;
      }

      // The dependence analysis does not see what a pure call reads
      // through its pointer arguments, so the fused body must pass the
      // Listing-5 rule the scop scan applied to each nest on its own:
      // reading `b` through `g(b)` in the iteration that precedes the
      // other nest's write of `b` would reorder a read after a write.
      NestRoots fused_roots = first.roots;
      fused_roots.merge(second.roots);
      const std::vector<Listing5Conflict> conflicts =
          listing5_conflicts(fused_roots);
      if (!conflicts.empty()) {
        const Listing5Conflict& c = conflicts.front();
        reject(c.implicit_global
                   ? "global '" + c.name +
                         "' is read by an inferred-pure function called in "
                         "one nest and written in the other (Listing 5 "
                         "rule, inference provenance)"
                   : "array '" + c.name +
                         "' is passed to a pure function in one nest and "
                         "written in the other (Listing 5 rule)");
        continue;
      }
      const std::string alias =
          alias_conflict_in(fused_roots, first.function);
      if (!alias.empty()) {
        reject(alias);
        continue;
      }

      // Commit: merge the real second body (renamed) into the first loop,
      // drop the second loop, and fold its substituted calls (their saved
      // originals reference the old iterator) into the first candidate.
      if (loop2->body) rename_identifier(*loop2->body, n2, n1);
      append_to_body(*loop1, std::move(loop2->body));
      block->stmts.erase(block->stmts.begin() +
                         static_cast<std::ptrdiff_t>(slot2));
      for (SubstitutedCall& call : all_substitutions[i + 1]) {
        if (call.original) rename_identifier(*call.original, n2, n1);
        all_substitutions[i].push_back(std::move(call));
      }
      all_substitutions.erase(all_substitutions.begin() +
                              static_cast<std::ptrdiff_t>(i + 1));
      // A third sibling is checked against both nests.
      scop_candidates[i].roots = std::move(fused_roots);
      fused_counts[i] += 1 + fused_counts[i + 1];
      fused_counts.erase(fused_counts.begin() +
                         static_cast<std::ptrdiff_t>(i + 1));
      scop_candidates.erase(scop_candidates.begin() +
                            static_cast<std::ptrdiff_t>(i + 1));
      decision.fused = true;
      artifacts.fusion_decisions.push_back(std::move(decision));
      // Stay at i: a third adjacent sibling may fuse into the same loop.
    }
  }

  for (std::size_t idx = 0; idx < scop_candidates.size(); ++idx) {
    const ScopCandidate& candidate = scop_candidates[idx];
    std::vector<SubstitutedCall>& calls = all_substitutions[idx];
    auto* loop = const_cast<ForStmt*>(candidate.loop);

    ScopReport report;
    report.function = candidate.function->name;
    report.line = candidate.loop->loc.line;
    report.column = candidate.loop->loc.column;
    report.contains_calls = candidate.contains_calls;
    report.substituted_calls = calls.size();
    report.fused_loops = fused_counts[idx];
    for (const SubstitutedCall& call : calls) {
      if (artifacts.inference.inferred_pure.count(call.callee) != 0) {
        ++report.inferred_calls;
      }
    }

    const auto undo = [&] {
      reinsert_pure_calls(*loop, calls);
      artifacts.scops.push_back(report);
    };

    // The pure call may read what the nest writes through an alias, and
    // no dependence shows that: keep the nest as written.
    report.failure_reason =
        alias_conflict_in(candidate.roots, candidate.function);
    if (!report.failure_reason.empty()) {
      report.failure_loc = candidate.loop->loc;
      undo();
      continue;
    }

    poly::IteratorSubstitution iter_subst;
    StmtPtr generated;
    std::vector<std::string> scop_iterators;
    bool region = false;
    try {
      poly::ExtractionResult extraction =
          poly::extract_scop(*loop, targets_of(candidate.function));
      if (!extraction.ok()) {
        report.failure_reason = extraction.failure_reason;
        report.failure_loc = extraction.failure_loc;
        undo();
        continue;
      }
      poly::Scop& scop = *extraction.scop;
      report.extracted = true;
      report.depth = scop.depth();
      region = scop.region_shaped;
      report.region = region;

      const FunctionDecl* owner =
          tu.find_function(candidate.function->name);

      // FP-reassociation gate: +/-/* on a non-integer accumulator only
      // stays a reduction under --fp-reductions (OpenMP's per-thread
      // partials reassociate the combination, changing rounding relative
      // to the serial loop). min/max are bit-exact in any order and
      // integer accumulators are associative for real, so both pass.
      if (!options.fp_reductions) {
        for (poly::ScopStatement& stmt : scop.statements) {
          if (stmt.reduction_op != poly::ReductionOp::Add &&
              stmt.reduction_op != poly::ReductionOp::Sub &&
              stmt.reduction_op != poly::ReductionOp::Mul) {
            continue;
          }
          const Type* type =
              owner != nullptr
                  ? scalar_type_in(*owner, symbols,
                                   stmt.reduction_accumulator)
                  : nullptr;
          if (type != nullptr && type->is_integer()) continue;
          scop.reduction_notes.push_back(
              "reduction on '" + stmt.reduction_accumulator +
              "' demoted: accumulator is not integer "
              "(floating-point reduction reassociates; "
              "enable with --fp-reductions)");
          stmt.reduction_op = poly::ReductionOp::None;
          stmt.reduction_accumulator.clear();
        }
      }
      for (const poly::ScopStatement& stmt : scop.statements) {
        if (stmt.reduction_op == poly::ReductionOp::None) continue;
        const std::string op =
            stmt.reduction_op == poly::ReductionOp::Call
                ? stmt.reduction_callee
                : poly::reduction_token(stmt.reduction_op);
        report.reductions.push_back(op + ":" +
                                    stmt.reduction_accumulator);
      }
      report.reduction_notes = scop.reduction_notes;

      if (owner != nullptr) {
        const std::string escapee =
            escaping_iterator_use(scop, *owner, *loop, symbols);
        if (!escapee.empty()) {
          report.failure_reason =
              "iterator '" + escapee +
              "' lives outside the nest and is read after it "
              "(the transform would lose its final value)";
          report.failure_loc = loop->loc;
          undo();
          continue;
        }
      }

      std::vector<poly::Dependence> deps =
          poly::analyze_dependences(scop);
      report.dependences = deps.size();

      // Scalar privatization candidates: the polyhedral layer's
      // structural written-before-read rule, filtered by what only the
      // chain can see — the scalar must be function-local (not a global)
      // and dead after the nest (privatizing a live-out scalar would
      // lose its final value, exactly like an escaping iterator).
      std::vector<std::string> privatizable;
      if (owner != nullptr && options.parallelize) {
        std::vector<std::string> candidates;
        for (std::size_t j = 0; j < scop.depth(); ++j) {
          for (std::string& name : poly::privatizable_scalars(scop, j)) {
            if (std::find(candidates.begin(), candidates.end(), name) ==
                candidates.end()) {
              candidates.push_back(std::move(name));
            }
          }
        }
        for (const std::string& name : candidates) {
          if (symbols.find_global(name) != nullptr) continue;
          // Declared inside the nest: already per-iteration storage, and
          // not nameable from the pragma's scope.
          if (declares_identifier(*loop, name)) continue;
          bool found = false;
          bool in_loop = false;
          const IterFate fate =
              owner->body ? fate_after_nest(*owner->body,
                                            static_cast<const Stmt*>(loop),
                                            name, found, in_loop)
                          : IterFate::Read;
          if (!found || in_loop || fate == IterFate::Read) continue;
          privatizable.push_back(name);
        }
      }

      poly::CodegenOptions cg;
      cg.parallelize = options.parallelize;
      cg.tile = options.tile;
      cg.tile_size = options.tile_size;
      cg.simd = (options.mode == TransformMode::PlutoSica);
      cg.schedule = options.schedule;

      if (region) {
        // Region path (guards / imperfect nests / iterator-dependent
        // strided origins): no reordering — reschedule the nest at the
        // statement level (parallel pragmas, fission by dependence SCC,
        // scalar privatization). Iterators keep their source names, so
        // the reinserted calls need no substitution.
        poly::RegionSchedule rs;
        generated = poly::schedule_region(scop, deps, cg, privatizable,
                                          &rs);
        if (generated) {
          report.parallelized = !rs.parallel_loops.empty();
          report.parallel_loops = rs.parallel_loops.size();
          report.fissioned = rs.fissioned;
          report.fission_groups = rs.groups;
          report.fission_parallel_groups = rs.parallel_groups;
          report.privatized = rs.privatized;
          if (report.parallelized) {
            report.schedule_clause = rs.schedule_clause;
          }
        }
      } else {
        // Privatized scalars' dependences are exempt from schedule
        // legality (each thread gets its own copy); generate_code emits
        // the matching private(...) clause.
        const std::vector<std::string> priv0 = [&] {
          std::vector<std::string> out;
          for (const std::string& name :
               poly::privatizable_scalars(scop, 0)) {
            if (std::find(privatizable.begin(), privatizable.end(),
                          name) != privatizable.end()) {
              out.push_back(name);
            }
          }
          return out;
        }();
        poly::mark_private_dependences(deps, priv0);
        cg.privatized = priv0;

        const poly::Transform transform =
            poly::compute_schedule(scop, deps);
        report.skewed = !transform.is_identity();
        scop_iterators = scop.iterators;

        poly::CodegenResult codegen;
        generated = poly::generate_code(scop, transform, cg, &codegen);
        iter_subst = std::move(codegen.substitution);
        if (generated) {
          report.parallelized =
              options.parallelize && transform.any_parallel();
          if (report.parallelized) {
            report.parallel_loops = 1;
            report.privatized = priv0;
            report.collapse = codegen.collapse;
            report.schedule_clause = codegen.schedule_clause;
          }
          report.tiled = codegen.tiled;
        }
        if (!report.parallelized && options.parallelize) {
          // The hyperplane path left the nest serial: fall back to
          // statement-level fission — a partially parallel nest splits
          // into a serial loop plus a parallel loop instead of
          // serializing whole. Iterators keep their names (no
          // substitution).
          poly::RegionSchedule rs;
          StmtPtr fissioned = poly::schedule_region(scop, deps, cg,
                                                    privatizable, &rs);
          if (fissioned && rs.fissioned && !rs.parallel_loops.empty()) {
            generated = std::move(fissioned);
            scop_iterators.clear();
            iter_subst = poly::IteratorSubstitution{};
            report.parallelized = true;
            report.parallel_loops = rs.parallel_loops.size();
            report.fissioned = true;
            report.fission_groups = rs.groups;
            report.fission_parallel_groups = rs.parallel_groups;
            report.privatized = rs.privatized;
            report.schedule_clause = rs.schedule_clause;
            report.skewed = false;
            report.tiled = false;
          }
        }
      }
    } catch (const ArithmeticOverflow&) {
      // Exact analysis would overflow int64 (gigantic bounds or
      // coefficients). The safe answer is "don't transform".
      report.failure_reason = "analysis overflow (bounds too large)";
      report.failure_loc = loop->loc;
      undo();
      continue;
    }
    if (!generated) {
      report.failure_loc = loop->loc;
      if (!region) {
        report.failure_reason = "codegen could not derive loop bounds";
      } else if (options.parallelize) {
        report.failure_reason =
            "no dependence-free loop in region (stays serial)";
        for (const std::string& note : report.reduction_notes) {
          report.failure_reason += "; " + note;
        }
      } else {
        report.failure_reason =
            "region nest left untouched (no parallelization requested)";
      }
      undo();
      continue;
    }

    // Reinsert the substituted calls inside the generated nest, then map
    // their arguments onto the new iterators (Listing 8: dot(...A[t1]...)).
    for (SubstitutedCall& call : calls) {
      apply_iterator_substitution(call.original, scop_iterators, iter_subst);
    }
    reinsert_pure_calls(*generated, calls);

    // Swap the generated nest into the function body.
    FunctionDecl* fn = tu.find_function(candidate.function->name);
    StmtPtr* slot = fn != nullptr && fn->body
                        ? find_stmt_slot(*fn->body, candidate.loop)
                        : nullptr;
    if (slot == nullptr) {
      report.failure_reason = "could not locate loop in function body";
      report.failure_loc = loop->loc;
      report.parallelized = false;
      report.tiled = false;
      undo();
      continue;
    }
    *slot = std::move(generated);
    report.transformed = true;
    if (options.instrument) {
      // Wrap the transformed nest in a timing envelope and plant the
      // per-worker chunk tally in every parallel loop body. The region's
      // counter struct + registrar are emitted into the prelude below.
      // The index doubles as the region's stable id: it is stamped into
      // the report entry AND emitted into the region struct, so trace
      // events join back to compiler decisions by args.region_id.
      report.region_id =
          static_cast<std::int64_t>(artifacts.instrumented_regions.size());
      instrument_region(*slot,
                        artifacts.instrumented_regions.size());
      artifacts.instrumented_regions.push_back(
          report.function + ":" + std::to_string(report.line));
    }
    artifacts.scops.push_back(report);
  }

  artifacts.transformed = print_c(tu, PrintOptions{PureHandling::Keep, 2});

  // Extension: mark allocation-free verified pure functions for GCC's
  // __attribute__((pure)) in the lowered output. (malloc/calloc/free
  // users are excluded — the attribute's contract forbids observable
  // state changes.)
  if (options.emit_gcc_attributes) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->is_pure || purity.pure_functions.count(fn->name) == 0) {
        continue;
      }
      bool allocates = false;
      if (fn->body) {
        for_each_call(*fn->body, [&](const CallExpr& call) {
          const std::string callee = call.callee_name();
          if (callee == "malloc" || callee == "calloc" || callee == "free") {
            allocates = true;
          }
        });
      }
      fn->annotate_gcc_pure = !allocates;
    }
  }

  // Memoization rewrite: route every call to a memoizable pure function
  // (inside generated nests and plain code alike) through its thunk. The
  // thunks themselves are emitted as text around the lowered program.
  std::set<std::string> memo_used;
  if (options.memoize && !artifacts.memoization.memoizable.empty()) {
    for (FunctionDecl* fn : tu.functions()) {
      if (!fn->body) continue;
      for_each_expr_slot(*fn->body, [&](ExprPtr& slot) -> bool {
        auto* call = expr_cast<CallExpr>(slot.get());
        if (call == nullptr) return false;
        const std::string name = call->callee_name();
        if (artifacts.memoization.memoizable.count(name) == 0) {
          return false;
        }
        expr_cast<IdentExpr>(call->callee.get())->name =
            memo_thunk_name(name);
        memo_used.insert(name);
        ++artifacts.memoized_calls;
        return false;  // descend: arguments may hold memoizable calls too
      });
    }
  }

  // ---- PC-PosPro: lower pure, restore system includes ---------------------
  const std::string lowered =
      print_c(tu, PrintOptions{PureHandling::Lower, 2});
  std::vector<std::string> extra;
  bool uses_omp = false;
  for (const ScopReport& r : artifacts.scops) {
    if (r.parallelized) uses_omp = true;
  }
  if (uses_omp) extra.push_back("#include <omp.h>");

  const bool instrumented = !artifacts.instrumented_regions.empty();
  std::string prelude = poly::codegen_prelude();
  std::string epilogue;
  if (!memo_used.empty() || instrumented) {
    // Both exit-time dumps (memo counters, instrument summaries) resolve
    // their destination through one purec_stats_out(), emitted first so
    // either runtime can reference it.
    prelude += runtime_section("stats");
  }
  if (!memo_used.empty()) {
    // Table + prototypes before the program (call sites reference the
    // thunks), definitions after it (they reference the wrapped functions
    // and the snapshot globals).
    if (options.memoize_verify) {
      // Flips the compiled-in default inside memo_program; the
      // PUREC_MEMO_VERIFY env knob still overrides either way.
      prelude += "#define PUREC_MEMO_VERIFY_DEFAULT 1\n";
    }
    prelude += runtime_section("memo");
    prelude += runtime_section("memo_program");
    for (const std::string& name : memo_used) {
      prelude +=
          memo_thunk_prototype(artifacts.memoization.functions.at(name));
    }
    for (const std::string& name : memo_used) {
      epilogue += "\n" + memo_thunk_definition(
                             artifacts.memoization.functions.at(name));
    }
  }
  if (instrumented) {
    // Counter runtime + one region struct per instrumented nest; the
    // wrapped nests in `lowered` reference these by name.
    prelude += runtime_section("hist");
    prelude += runtime_section("trace");
    prelude += runtime_section("instrument");
    for (std::size_t i = 0; i < artifacts.instrumented_regions.size();
         ++i) {
      prelude += instrument_region_definition(
          i, artifacts.instrumented_regions[i]);
    }
  }
  artifacts.final_source = restore_system_includes(
      prelude + lowered + epilogue, stripped.system_includes, extra);
  artifacts.ok = !diags.has_errors();
  return artifacts;
}

}  // namespace purec
