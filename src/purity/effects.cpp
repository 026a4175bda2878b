#include "purity/effects.h"

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ast/walk.h"

namespace purec {

namespace {

/// Provenance lattice for local pointers, strongest first. Heap: every
/// source is malloc/calloc (free is legal). LocalStorage: every source is
/// function-local memory (writes are thread-invisible). Foreign: anything
/// else — the pointer may reach caller or global memory.
enum class Provenance : std::uint8_t { Heap, LocalStorage, Foreign };

[[nodiscard]] Provenance join(Provenance a, Provenance b) {
  return a > b ? a : b;
}

/// One recorded assignment source for a local pointer.
struct Source {
  Provenance direct = Provenance::Foreign;
  std::string local_ref;  // non-empty: provenance of that local, joined in
};

/// One recorded assignment source for a local pointer's bases
/// (PointerBases in effects.h).
struct BaseSource {
  enum class Kind : std::uint8_t {
    Named,  // base `name` itself
    Copy,   // the bases of local pointer `name`
    Fresh,  // malloc/calloc: the assigned pointer is its own base
    Shift,  // p += k, p++: same bases, offset lost
    Other,  // anything else: unresolved
  };
  Kind kind = Kind::Other;
  std::string name;
  /// Elements past the base (Named) or past `name`'s own offset (Copy).
  std::optional<std::int64_t> offset = 0;
  SourceLocation loc;
};

/// The integer constant `e` denotes (a literal, possibly negated).
[[nodiscard]] std::optional<std::int64_t> int_constant(const Expr* e) {
  const Expr* core = strip_casts(e);
  if (const auto* lit = expr_cast<IntLiteralExpr>(core)) return lit->value;
  const auto* unary = expr_cast<UnaryExpr>(core);
  if (unary != nullptr && unary->op == UnaryOp::Minus) {
    const std::optional<std::int64_t> v = int_constant(unary->operand.get());
    if (v && *v != INT64_MIN) return -*v;
  }
  return std::nullopt;
}

/// `a + b`, or nullopt when either is unknown or the sum overflows.
[[nodiscard]] std::optional<std::int64_t> add_offsets(
    std::optional<std::int64_t> a, std::optional<std::int64_t> b) {
  std::int64_t sum = 0;
  if (!a || !b || __builtin_add_overflow(*a, *b, &sum)) return std::nullopt;
  return sum;
}

/// Computes per-local-pointer provenance by joining every assignment
/// source (declaration initializers and bare reassignments), to a
/// fixpoint so pointer-to-pointer chains resolve. Name-keyed: shadowed
/// locals conflate, which only ever *lowers* the lattice value — safe.
/// The same sources also resolve each local pointer's bases.
class ProvenanceMap {
 public:
  ProvenanceMap(const FunctionDecl& fn, const FunctionScopeInfo& scope) {
    // Pass 1: classification sets. Must be complete before any classify()
    // call so `&s` / array decay see statics declared later in the body.
    for_each_stmt(*fn.body, [&](const Stmt& s) {
      const auto* decl = stmt_cast<DeclStmt>(&s);
      if (decl == nullptr) return;
      for (const VarDecl& d : decl->decls) {
        if (d.type->is_pointer()) bases_[d.name];
        if (d.is_static) {
          // Persistent across calls: shared state, never local storage.
          statics_.insert(d.name);
        } else if (d.type->is_array()) {
          arrays_.insert(d.name);
        }
      }
    });
    // Pass 2: assignment sources.
    for_each_stmt(*fn.body, [&](const Stmt& s) {
      const auto* decl = stmt_cast<DeclStmt>(&s);
      if (decl == nullptr) return;
      for (const VarDecl& d : decl->decls) {
        if (d.is_static) continue;
        if (d.type->is_pointer() && d.init) {
          sources_[d.name].push_back(classify(d.init.get(), scope));
          base_sources_[d.name].push_back(
              classify_base(d.init.get(), *d.type, scope, d.loc));
        }
      }
    });
    const auto local_pointer = [&scope](const Expr& lhs) -> const Symbol* {
      const auto* ident = expr_cast<IdentExpr>(strip_casts(&lhs));
      const Symbol* sym = ident ? scope.resolve(*ident) : nullptr;
      if (sym == nullptr || sym->kind != SymbolKind::Local) return nullptr;
      if (sym->type == nullptr || !sym->type->is_pointer()) return nullptr;
      return sym;
    };
    for_each_expr(static_cast<const Stmt&>(*fn.body), [&](const Expr& e) {
      if (const auto* call = expr_cast<CallExpr>(&e)) {
        // A WritesArg1 extern (strtol/strtod) stores a pointer *into its
        // input string* through *endptr. When endptr is &local, that
        // local now refers to foreign memory even though the call itself
        // is harmless — record the callee-side store as a Foreign source
        // so later writes through the local are rejected.
        const ExternEffect* known = extern_effect(call->callee_name());
        if (known == nullptr ||
            known->kind != ExternEffectKind::WritesArg1 ||
            call->args.size() < 2) {
          return;
        }
        const auto* unary =
            expr_cast<UnaryExpr>(strip_casts(call->args[1].get()));
        if (unary == nullptr || unary->op != UnaryOp::AddrOf) return;
        if (const Symbol* ptr = local_pointer(*unary->operand)) {
          sources_[ptr->name].push_back(Source{Provenance::Foreign, {}});
        }
        return;
      }
      if (const auto* assign = expr_cast<AssignExpr>(&e)) {
        note_reassigned_base(*assign->lhs, scope);
        const Symbol* ptr = local_pointer(*assign->lhs);
        if (ptr == nullptr) return;
        if (assign->op == AssignOp::Assign) {
          sources_[ptr->name].push_back(classify(assign->rhs.get(), scope));
          base_sources_[ptr->name].push_back(classify_base(
              assign->rhs.get(), *ptr->type, scope, assign->loc));
        } else {
          // Compound mutation (p += k, ...): an interior pointer — still
          // the same object (write-safe) but never free()-safe again.
          sources_[ptr->name].push_back(
              Source{Provenance::LocalStorage, ptr->name});
          base_sources_[ptr->name].push_back(shift_source(assign->loc));
        }
        return;
      }
      if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
        if (unary->op == UnaryOp::AddrOf) {
          // &p escapes: whatever stores through it rebinds p unseen.
          if (const Symbol* ptr = local_pointer(*unary->operand)) {
            base_sources_[ptr->name].push_back(
                BaseSource{BaseSource::Kind::Other, {}, 0, unary->loc});
          }
          return;
        }
        if (unary->op != UnaryOp::PreInc && unary->op != UnaryOp::PreDec &&
            unary->op != UnaryOp::PostInc &&
            unary->op != UnaryOp::PostDec) {
          return;
        }
        note_reassigned_base(*unary->operand, scope);
        // p++ / p--: same interior-pointer demotion as p = p + 1.
        if (const Symbol* ptr = local_pointer(*unary->operand)) {
          sources_[ptr->name].push_back(
              Source{Provenance::LocalStorage, ptr->name});
          base_sources_[ptr->name].push_back(shift_source(unary->loc));
        }
      }
    });
    solve();
    solve_bases();
  }

  /// Provenance of local variable `name` (arrays are LocalStorage; a
  /// pointer with no recorded source is Foreign; statics are always
  /// Foreign — their storage outlives the call).
  [[nodiscard]] Provenance of(const std::string& name) const {
    if (statics_.count(name) != 0) return Provenance::Foreign;
    if (arrays_.count(name) != 0) return Provenance::LocalStorage;
    const auto it = result_.find(name);
    return it == result_.end() ? Provenance::Foreign : it->second;
  }

  /// Any same-named block-scope declaration carries `static`.
  [[nodiscard]] bool is_static(const std::string& name) const {
    return statics_.count(name) != 0;
  }

  [[nodiscard]] const PointerBaseMap& bases() const { return bases_; }

 private:
  [[nodiscard]] static BaseSource shift_source(SourceLocation loc) {
    return BaseSource{BaseSource::Kind::Shift, {}, std::nullopt, loc};
  }

  /// A parameter or global pointer the function rebinds (`a = a + 1`)
  /// cannot serve as a base: copies taken before and after differ.
  void note_reassigned_base(const Expr& lhs, const FunctionScopeInfo& scope) {
    const auto* ident = expr_cast<IdentExpr>(strip_casts(&lhs));
    const Symbol* sym = ident ? scope.resolve(*ident) : nullptr;
    if (sym != nullptr && (sym->kind == SymbolKind::Param ||
                           sym->kind == SymbolKind::Global)) {
      reassigned_.insert(sym->name);
    }
  }

  /// Same type up to qualifiers (`pure`, `const`) at every level.
  [[nodiscard]] static bool same_shape(const Type& a, const Type& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case TypeKind::Builtin:
        return a.builtin == b.builtin;
      case TypeKind::Pointer:
        return same_shape(*a.pointee, *b.pointee);
      case TypeKind::Array:
        return a.array_size == b.array_size &&
               same_shape(*a.element, *b.element);
      case TypeKind::Struct:
      case TypeKind::Named:
        return a.name == b.name;
    }
    return false;
  }

  /// The base source an identifier denotes for a pointer of type `dest`:
  /// a named array/pointer, or a copy of another (non-static) local
  /// pointer. Offsets count elements, so the element types must agree
  /// (a `(char*)` view of an int array is no base).
  [[nodiscard]] BaseSource named_base(const IdentExpr& ident,
                                      const Type& dest,
                                      const FunctionScopeInfo& scope,
                                      SourceLocation loc) const {
    BaseSource source{BaseSource::Kind::Other, {}, 0, loc};
    const Symbol* sym = scope.resolve(ident);
    if (sym == nullptr || sym->type == nullptr) return source;
    const TypePtr& element =
        sym->type->is_array() ? sym->type->element : sym->type->pointee;
    if (element == nullptr || !dest.is_pointer() ||
        !same_shape(*element, *dest.pointee)) {
      return source;
    }
    source.name = sym->name;
    switch (sym->kind) {
      case SymbolKind::Local:
        if (sym->type->is_array()) {
          source.kind = BaseSource::Kind::Named;
        } else if (sym->type->is_pointer() &&
                   statics_.count(sym->name) == 0) {
          source.kind = BaseSource::Kind::Copy;
        }
        break;
      case SymbolKind::Param:
      case SymbolKind::Global:
        if (sym->type->is_pointer() || sym->type->is_array()) {
          source.kind = BaseSource::Kind::Named;
        }
        break;
      case SymbolKind::Unknown:
      case SymbolKind::Function:
        break;
    }
    return source;
  }

  /// `e` is an identifier naming a base or a local pointer.
  [[nodiscard]] bool names_base(const Expr* e, const Type& dest,
                                const FunctionScopeInfo& scope) const {
    const auto* ident = expr_cast<IdentExpr>(strip_casts(e));
    return ident != nullptr && named_base(*ident, dest, scope, {}).kind !=
                                   BaseSource::Kind::Other;
  }

  /// What `rhs`, stored into a local pointer of type `dest`, binds it to.
  [[nodiscard]] BaseSource classify_base(const Expr* rhs, const Type& dest,
                                         const FunctionScopeInfo& scope,
                                         SourceLocation loc) const {
    const Expr* core = strip_casts(rhs);
    const BaseSource other{BaseSource::Kind::Other, {}, 0, loc};
    if (const auto* call = expr_cast<CallExpr>(core)) {
      const std::string callee = call->callee_name();
      if (callee == "malloc" || callee == "calloc") {
        return BaseSource{BaseSource::Kind::Fresh, {}, 0, loc};
      }
      return other;
    }
    if (const auto* ident = expr_cast<IdentExpr>(core)) {
      return named_base(*ident, dest, scope, loc);
    }
    // `&x[k]` is `x + k`.
    const Expr* pointer = nullptr;
    const Expr* index = nullptr;
    bool negate = false;
    if (const auto* unary = expr_cast<UnaryExpr>(core)) {
      const auto* element =
          unary->op == UnaryOp::AddrOf
              ? expr_cast<IndexExpr>(strip_casts(unary->operand.get()))
              : nullptr;
      if (element == nullptr) return other;
      pointer = element->base.get();
      index = element->index.get();
    } else if (const auto* bin = expr_cast<BinaryExpr>(core)) {
      if (bin->op != BinaryOp::Add && bin->op != BinaryOp::Sub) return other;
      pointer = bin->lhs.get();
      index = bin->rhs.get();
      negate = bin->op == BinaryOp::Sub;
      if (bin->op == BinaryOp::Add && !names_base(pointer, dest, scope)) {
        std::swap(pointer, index);  // `k + x`
      }
    } else {
      return other;
    }
    const auto* base_ident = expr_cast<IdentExpr>(strip_casts(pointer));
    if (base_ident == nullptr) return other;
    BaseSource source = named_base(*base_ident, dest, scope, loc);
    if (source.kind == BaseSource::Kind::Other) return source;
    std::optional<std::int64_t> k = int_constant(index);
    if (k && negate) k = *k == INT64_MIN ? std::nullopt
                                         : std::optional<std::int64_t>(-*k);
    source.offset = add_offsets(source.offset, k);
    return source;
  }

  /// Fixpoint over base_sources_: bases only grow, an offset only goes
  /// from unset to one value to unknown, and unresolved only turns on.
  void solve_bases() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [name, result] : bases_) {
        PointerBases next;
        bool has_offset = false;
        bool shifted = false;
        const auto add = [&](const std::set<std::string>& bases,
                             std::optional<std::int64_t> offset) {
          if (bases.empty()) return;
          next.bases.insert(bases.begin(), bases.end());
          if (!has_offset) {
            next.offset = offset;
            has_offset = true;
          } else if (next.offset != offset) {
            next.offset = std::nullopt;
          }
        };
        const auto it = base_sources_.find(name);
        const bool is_static = statics_.count(name) != 0;
        if (it == base_sources_.end() || is_static) {
          next.unresolved = true;
        } else {
          next.bound = it->second.front().loc;
          for (const BaseSource& src : it->second) {
            switch (src.kind) {
              case BaseSource::Kind::Named:
                if (reassigned_.count(src.name) != 0) {
                  next.unresolved = true;
                } else {
                  add({src.name}, src.offset);
                }
                break;
              case BaseSource::Kind::Copy: {
                const auto from = bases_.find(src.name);
                if (from == bases_.end()) {
                  next.unresolved = true;
                  break;
                }
                next.unresolved = next.unresolved || from->second.unresolved;
                add(from->second.bases,
                    add_offsets(from->second.offset, src.offset));
                break;
              }
              case BaseSource::Kind::Fresh:
                add({name}, 0);
                break;
              case BaseSource::Kind::Shift:
                shifted = true;
                break;
              case BaseSource::Kind::Other:
                next.unresolved = true;
                break;
            }
          }
        }
        if (shifted) next.offset = std::nullopt;
        if (next.bases != result.bases || next.offset != result.offset ||
            next.unresolved != result.unresolved) {
          changed = true;
        }
        result = std::move(next);
      }
    }
    // A pointer no source ever bound (a copy cycle, or never assigned)
    // may point anywhere.
    for (auto& [name, result] : bases_) {
      if (result.bases.empty()) result.unresolved = true;
    }
  }

  [[nodiscard]] Source classify(const Expr* rhs,
                                const FunctionScopeInfo& scope) const {
    const Expr* core = strip_casts(rhs);
    if (const auto* call = expr_cast<CallExpr>(core)) {
      const std::string callee = call->callee_name();
      if (callee == "malloc" || callee == "calloc") {
        return Source{Provenance::Heap, {}};
      }
      return Source{Provenance::Foreign, {}};
    }
    if (const auto* unary = expr_cast<UnaryExpr>(core)) {
      if (unary->op == UnaryOp::AddrOf) {
        const auto* target =
            expr_cast<IdentExpr>(strip_casts(unary->operand.get()));
        const Symbol* sym = target ? scope.resolve(*target) : nullptr;
        if (sym != nullptr && sym->kind == SymbolKind::Local &&
            statics_.count(sym->name) == 0) {
          return Source{Provenance::LocalStorage, {}};
        }
      }
      return Source{Provenance::Foreign, {}};
    }
    if (const auto* ident = expr_cast<IdentExpr>(core)) {
      const Symbol* sym = scope.resolve(*ident);
      if (sym != nullptr && sym->kind == SymbolKind::Local && sym->type &&
          statics_.count(sym->name) == 0) {
        if (sym->type->is_array()) {
          return Source{Provenance::LocalStorage, {}};
        }
        if (sym->type->is_pointer()) {
          // Inherits the referenced local's provenance (Heap stays Heap,
          // so free(alias) keeps verifying, mirroring the §3.2 checker).
          return Source{Provenance::Heap, ident->name};
        }
      }
      return Source{Provenance::Foreign, {}};
    }
    if (const auto* bin = expr_cast<BinaryExpr>(core)) {
      // Pointer arithmetic stays within the base object (defined C), so
      // `buf + i` carries the pointer operand's provenance — capped at
      // LocalStorage: an interior pointer is write-safe but never
      // free()-safe, even off a malloc'ed base.
      if (bin->op == BinaryOp::Add || bin->op == BinaryOp::Sub) {
        Source side = classify(bin->lhs.get(), scope);
        if (side.direct == Provenance::Foreign && side.local_ref.empty()) {
          side = classify(bin->rhs.get(), scope);
        }
        side.direct = join(side.direct, Provenance::LocalStorage);
        return side;
      }
      return Source{Provenance::Foreign, {}};
    }
    return Source{Provenance::Foreign, {}};
  }

  void solve() {
    // Optimistic start (Heap), monotone demotion to fixpoint.
    for (const auto& [name, srcs] : sources_) {
      result_[name] = Provenance::Heap;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [name, srcs] : sources_) {
        Provenance p = Provenance::Heap;
        for (const Source& src : srcs) {
          Provenance s = src.direct;
          if (!src.local_ref.empty()) {
            // A pointer copied from another local: at best as strong as
            // that local's provenance.
            s = join(s, of(src.local_ref));
          }
          p = join(p, s);
        }
        if (p != result_[name]) {
          result_[name] = p;
          changed = true;
        }
      }
    }
  }

  std::map<std::string, std::vector<Source>> sources_;
  std::map<std::string, Provenance> result_;
  std::set<std::string> arrays_;
  std::set<std::string> statics_;
  std::map<std::string, std::vector<BaseSource>> base_sources_;
  /// Parameters and globals the function rebinds.
  std::set<std::string> reassigned_;
  /// One entry per local pointer name (declared pointer-typed).
  PointerBaseMap bases_;
};

/// The pointer-escape reasoning both the effect scanner and the public
/// WritesArg0Oracle share: per-local provenance plus the "could this
/// expression yield a pointer into caller or global memory?" query.
class PointerOracle {
 public:
  PointerOracle(const FunctionDecl& fn, const FunctionScopeInfo& scope)
      : scope_(scope), provenance_(fn, scope) {}

  [[nodiscard]] Provenance of(const std::string& name) const {
    return provenance_.of(name);
  }

  [[nodiscard]] bool is_static(const std::string& name) const {
    return provenance_.is_static(name);
  }

  /// Static type of the slot an lvalue designates: the root's declared
  /// type peeled once per index/deref level. Null when unresolvable
  /// (members, casts) — callers must be conservative.
  [[nodiscard]] TypePtr lvalue_slot_type(const Expr& lhs) const {
    if (const auto* ident = expr_cast<IdentExpr>(&lhs)) {
      const Symbol* sym = scope_.resolve(*ident);
      return sym != nullptr ? sym->type : nullptr;
    }
    const TypePtr* base = nullptr;
    TypePtr base_type;
    if (const auto* index = expr_cast<IndexExpr>(&lhs)) {
      base_type = lvalue_slot_type(*index->base);
      base = &base_type;
    } else if (const auto* unary = expr_cast<UnaryExpr>(&lhs)) {
      if (unary->op != UnaryOp::Deref) return nullptr;
      base_type = lvalue_slot_type(*unary->operand);
      base = &base_type;
    } else {
      return nullptr;
    }
    if (*base == nullptr) return nullptr;
    if ((*base)->is_array()) return (*base)->element;
    if ((*base)->is_pointer()) return (*base)->pointee;
    return nullptr;
  }

  /// Could evaluating `rhs` yield a pointer into caller or global memory?
  [[nodiscard]] bool is_foreign_pointer_value(const Expr* rhs) const {
    const Expr* core = strip_casts(rhs);
    if (const auto* call = expr_cast<CallExpr>(core)) {
      const std::string callee = call->callee_name();
      // Fresh heap memory is fine; any other call could return a foreign
      // pointer (we have no return types for externals).
      return callee != "malloc" && callee != "calloc";
    }
    if (const auto* unary = expr_cast<UnaryExpr>(core)) {
      if (unary->op == UnaryOp::AddrOf) {
        const auto* target =
            expr_cast<IdentExpr>(strip_casts(unary->operand.get()));
        const Symbol* sym = target ? scope_.resolve(*target) : nullptr;
        return sym == nullptr || sym->kind != SymbolKind::Local ||
               provenance_.is_static(sym->name);
      }
      // Deref is a load: handled by the Through-shape branch below.
      // Every other unary operator yields a scalar value.
      if (unary->op != UnaryOp::Deref) return false;
    }
    if (const auto* bin = expr_cast<BinaryExpr>(core)) {
      // Pointer arithmetic carries the pointer operand's object; the
      // comma operator's value is its right side. Comparisons, logic,
      // and bit operations yield integers.
      if (bin->op == BinaryOp::Add || bin->op == BinaryOp::Sub) {
        return is_foreign_pointer_value(bin->lhs.get()) ||
               is_foreign_pointer_value(bin->rhs.get());
      }
      if (bin->op == BinaryOp::Comma) {
        return is_foreign_pointer_value(bin->rhs.get());
      }
      return false;
    }
    if (const auto* cond = expr_cast<ConditionalExpr>(core)) {
      return is_foreign_pointer_value(cond->then_expr.get()) ||
             is_foreign_pointer_value(cond->else_expr.get());
    }
    if (const auto* assign = expr_cast<AssignExpr>(core)) {
      // The value of `p = q` is q.
      return is_foreign_pointer_value(assign->rhs.get());
    }
    if (const auto* ident = expr_cast<IdentExpr>(core)) {
      const Symbol* sym = scope_.resolve(*ident);
      if (sym == nullptr) return true;
      if (sym->type == nullptr ||
          !(sym->type->is_pointer() || sym->type->is_array())) {
        return false;  // scalar value
      }
      switch (sym->kind) {
        case SymbolKind::Param:
        case SymbolKind::Global:
        case SymbolKind::Unknown:
        case SymbolKind::Function:
          return true;
        case SymbolKind::Local:
          return provenance_.is_static(sym->name) ||
                 (sym->type->is_pointer() &&
                  provenance_.of(sym->name) == Provenance::Foreign);
      }
    }
    if (lvalue_shape(*core) == LvalueShape::Through) {
      // A load out of some storage (p[i], *p, s.f): foreign if the loaded
      // slot can hold a pointer and the storage itself is not local.
      const Symbol* root = scope_.lvalue_root(*core);
      if (root == nullptr) return true;
      const TypePtr slot = lvalue_slot_type(*core);
      if (slot != nullptr && !slot->is_pointer() && !slot->is_array()) {
        return false;  // scalar load
      }
      if (root->kind == SymbolKind::Local) {
        return provenance_.of(root->name) == Provenance::Foreign;
      }
      return true;
    }
    return false;  // literals, arithmetic: scalar values
  }

 private:
  const FunctionScopeInfo& scope_;
  ProvenanceMap provenance_;
};

/// The WritesArg0 verdict shared by the scanner and the declared-pure
/// verifier: empty reason when the destination provably targets
/// function-local storage.
struct WritesArg0Verdict {
  std::string reason;
  /// The rejection involves an untrackable pointer write (classification
  /// bit for EffectSummary, unused by the verifier).
  bool unknown_pointer = false;
};

[[nodiscard]] WritesArg0Verdict check_writes_arg0(const PointerOracle& oracle,
                                                  const CallExpr& call,
                                                  const std::string& name) {
  if (call.args.empty()) {
    return {"calls '" + name + "' without a destination", false};
  }
  if (name == "snprintf") {
    // The arg0 write is bounded by arg1, but %n writes through a
    // *later* pointer argument; the WritesArg0 model only holds for a
    // literal format provably free of %n.
    const auto* format =
        call.args.size() >= 3
            ? expr_cast<StringLiteralExpr>(strip_casts(call.args[2].get()))
            : nullptr;
    if (format == nullptr) {
      return {"calls 'snprintf' with a non-literal format string "
              "(effects unknown)",
              false};
    }
    if (format->spelling.find("%n") != std::string::npos) {
      return {"calls 'snprintf' with %n (writes through a format argument)",
              true};
    }
  }
  if (oracle.is_foreign_pointer_value(call.args[0].get())) {
    return {"calls '" + name +
                "' writing through a pointer that may reference caller or "
                "global memory",
            true};
  }
  return {};
}

/// WritesArg1 (strtol/strtod family): the only store is *endptr. A null
/// constant endptr performs no write at all and an `&local` endptr lands
/// in function-local storage — both fall out of the same foreign-pointer
/// query (literals are scalar values, AddrOf of a non-static local is
/// local provenance). errno on range errors is outside the modeled
/// dialect; a body that read errno would already be rejected as an
/// unknown-global read.
[[nodiscard]] WritesArg0Verdict check_writes_arg1(const PointerOracle& oracle,
                                                  const CallExpr& call,
                                                  const std::string& name) {
  if (call.args.size() < 2) {
    return {"calls '" + name + "' without an end-pointer argument", false};
  }
  if (oracle.is_foreign_pointer_value(call.args[1].get())) {
    return {"calls '" + name +
                "' storing its end pointer where the caller or another "
                "thread may observe it",
            true};
  }
  return {};
}

class EffectScanner {
 public:
  EffectScanner(const FunctionDecl& fn, const FunctionScopeInfo& scope,
                bool allow_malloc_free)
      : fn_(fn),
        scope_(scope),
        allow_malloc_free_(allow_malloc_free),
        oracle_(fn, scope) {}

  [[nodiscard]] EffectSummary run() {
    summary_.function = fn_.name;
    if (fn_.is_variadic) {
      impure(fn_.loc, "is variadic (effects of va_arg uses are opaque)");
    }
    collect_callee_idents();
    for_each_expr(static_cast<const Stmt&>(*fn_.body),
                  [this](const Expr& e) { scan_expr(e); });
    return std::move(summary_);
  }

 private:
  void impure(SourceLocation loc, std::string reason) {
    if (!summary_.pure_locally) return;  // keep the first reason
    summary_.pure_locally = false;
    summary_.impurity_reason = std::move(reason);
    summary_.impurity_loc = loc;
  }

  /// Callee identifiers must not be mistaken for global variable reads.
  void collect_callee_idents() {
    for_each_call(*fn_.body, [this](const CallExpr& call) {
      if (const auto* ident = expr_cast<IdentExpr>(call.callee.get())) {
        callee_idents_.insert(ident);
      }
    });
  }

  void scan_expr(const Expr& e) {
    if (const auto* call = expr_cast<CallExpr>(&e)) {
      scan_call(*call);
      return;
    }
    if (const auto* assign = expr_cast<AssignExpr>(&e)) {
      scan_write(*assign->lhs, assign->loc);
      if (assign->op == AssignOp::Assign) scan_pointer_store(*assign);
      return;
    }
    if (const auto* unary = expr_cast<UnaryExpr>(&e)) {
      if (unary->op == UnaryOp::PreInc || unary->op == UnaryOp::PreDec ||
          unary->op == UnaryOp::PostInc || unary->op == UnaryOp::PostDec) {
        scan_write(*unary->operand, unary->loc);
      }
      return;
    }
    if (const auto* ident = expr_cast<IdentExpr>(&e)) {
      if (callee_idents_.count(ident) != 0) return;
      const Symbol* sym = scope_.resolve(*ident);
      if (sym != nullptr && (sym->kind == SymbolKind::Global ||
                             sym->kind == SymbolKind::Unknown)) {
        summary_.global_reads.insert(ident->name);
      }
      return;
    }
  }

  void scan_call(const CallExpr& call) {
    const std::string name = call.callee_name();
    if (name.empty()) {
      summary_.has_indirect_call = true;
      impure(call.loc, "calls through a function pointer");
      return;
    }
    if (const ExternEffect* known = extern_effect(name)) {
      scan_known_extern(call, name, *known);
      return;
    }
    if (name == "malloc" || name == "calloc") {
      summary_.allocates = true;
      if (!allow_malloc_free_) summary_.callees.insert(name);
      return;
    }
    if (name == "free") {
      summary_.frees = true;
      if (!allow_malloc_free_) summary_.callees.insert(name);
      scan_free(call);
      return;
    }
    summary_.callees.insert(name);
  }

  /// A call modeled by the extern effect database is resolved here and
  /// never becomes a pessimized callee edge. ReadOnly externs are free;
  /// writing externs (WritesArg0/WritesArg1) are harmless exactly when
  /// their destination provably targets function-local storage (same
  /// provenance reasoning as direct stores).
  void scan_known_extern(const CallExpr& call, const std::string& name,
                         const ExternEffect& effect) {
    summary_.extern_calls.insert(name);
    if (effect.kind == ExternEffectKind::ReadOnly) return;
    const WritesArg0Verdict verdict =
        effect.kind == ExternEffectKind::WritesArg1
            ? check_writes_arg1(oracle_, call, name)
            : check_writes_arg0(oracle_, call, name);
    if (verdict.reason.empty()) return;
    if (verdict.unknown_pointer) summary_.writes_unknown_pointer = true;
    impure(call.loc, verdict.reason);
  }

  void scan_free(const CallExpr& call) {
    if (call.args.size() != 1) {
      impure(call.loc, "calls free() with the wrong arity");
      return;
    }
    const auto* ident = expr_cast<IdentExpr>(strip_casts(call.args[0].get()));
    const Symbol* sym = ident ? scope_.resolve(*ident) : nullptr;
    if (sym == nullptr || sym->kind != SymbolKind::Local ||
        oracle_.of(sym->name) != Provenance::Heap) {
      impure(call.loc, "frees memory it did not allocate");
    }
  }

  /// The deep-write hole: local storage is writable, but once a *foreign
  /// pointer* is stored into a pointer-typed slot of it, later writes
  /// through that slot would reach caller/global memory while still
  /// rooting at the local. Conservatively reject the store itself.
  void scan_pointer_store(const AssignExpr& assign) {
    const Symbol* root = scope_.lvalue_root(*assign.lhs);
    if (root == nullptr || root->kind != SymbolKind::Local) return;
    if (lvalue_shape(*assign.lhs) != LvalueShape::Through) return;
    if (oracle_.of(root->name) == Provenance::Foreign) return;  // flagged
    const TypePtr slot = oracle_.lvalue_slot_type(*assign.lhs);
    const bool slot_holds_pointer =
        slot == nullptr || slot->is_pointer() || slot->is_array();
    if (slot_holds_pointer &&
        oracle_.is_foreign_pointer_value(assign.rhs.get())) {
      impure(assign.loc, "stores a caller/global pointer into local "
                         "storage (writes through it would be untrackable)");
    }
  }

  void scan_write(const Expr& lhs, SourceLocation loc) {
    const Symbol* root = scope_.lvalue_root(lhs);
    if (root == nullptr) {
      impure(loc, "has an assignment target the analysis cannot resolve");
      return;
    }
    const LvalueShape shape = lvalue_shape(lhs);
    switch (root->kind) {
      case SymbolKind::Global:
        summary_.writes_global = true;
        impure(loc, "writes to global '" + root->name + "'");
        return;
      case SymbolKind::Unknown:
        summary_.writes_global = true;
        impure(loc, "writes to undeclared/external '" + root->name + "'");
        return;
      case SymbolKind::Function:
        impure(loc, "assigns to function '" + root->name + "'");
        return;
      case SymbolKind::Param:
        if (shape == LvalueShape::Through) {
          summary_.writes_through_param = true;
          impure(loc, "writes through parameter '" + root->name + "'");
        }
        // Bare: reassigning the by-value copy is invisible to the caller.
        return;
      case SymbolKind::Local:
        if (oracle_.is_static(root->name)) {
          impure(loc, "writes to static local '" + root->name +
                          "' (state persists across calls)");
          return;
        }
        if (shape == LvalueShape::Through &&
            oracle_.of(root->name) == Provenance::Foreign) {
          summary_.writes_unknown_pointer = true;
          impure(loc, "writes through pointer '" + root->name +
                          "' that may reference caller or global memory");
        }
        return;
    }
  }

  const FunctionDecl& fn_;
  const FunctionScopeInfo& scope_;
  const bool allow_malloc_free_;
  PointerOracle oracle_;
  EffectSummary summary_;
  std::set<const IdentExpr*> callee_idents_;
};

}  // namespace

const ExternEffect* extern_effect(const std::string& name) {
  static const std::map<std::string, ExternEffect> kDatabase = {
      {"memcpy", {ExternEffectKind::WritesArg0}},
      {"memmove", {ExternEffectKind::WritesArg0}},
      {"memset", {ExternEffectKind::WritesArg0}},
      {"snprintf", {ExternEffectKind::WritesArg0}},
      {"strcpy", {ExternEffectKind::WritesArg0}},
      {"strncpy", {ExternEffectKind::WritesArg0}},
      {"strcat", {ExternEffectKind::WritesArg0}},
      {"strncat", {ExternEffectKind::WritesArg0}},
      {"strlen", {ExternEffectKind::ReadOnly}},
      {"memcmp", {ExternEffectKind::ReadOnly}},
      {"memchr", {ExternEffectKind::ReadOnly}},
      {"strchr", {ExternEffectKind::ReadOnly}},
      {"strrchr", {ExternEffectKind::ReadOnly}},
      {"strncmp", {ExternEffectKind::ReadOnly}},
      {"strcspn", {ExternEffectKind::ReadOnly}},
      {"strspn", {ExternEffectKind::ReadOnly}},
      {"strstr", {ExternEffectKind::ReadOnly}},
      {"abs", {ExternEffectKind::ReadOnly}},
      {"labs", {ExternEffectKind::ReadOnly}},
      // math.h value functions: no pointer arguments at all, so modeling
      // them ReadOnly is trivially sound. They were already in the pure
      // seed hashset; listing them here makes the effect model explicit
      // and records them in EffectSummary::extern_calls for downstream
      // analyses (memoization, reporting).
      {"fmin", {ExternEffectKind::ReadOnly}},
      {"fmax", {ExternEffectKind::ReadOnly}},
      {"fabs", {ExternEffectKind::ReadOnly}},
      {"sqrt", {ExternEffectKind::ReadOnly}},
      {"fminf", {ExternEffectKind::ReadOnly}},
      {"fmaxf", {ExternEffectKind::ReadOnly}},
      {"fabsf", {ExternEffectKind::ReadOnly}},
      {"sqrtf", {ExternEffectKind::ReadOnly}},
      // ctype.h classifiers/converters: value in, value out. Sound under
      // the "C" locale assumption the chain already makes everywhere
      // (glibc implements them as table lookups; the chain never calls
      // setlocale, and emitted programs do not either).
      {"isalpha", {ExternEffectKind::ReadOnly}},
      {"isdigit", {ExternEffectKind::ReadOnly}},
      {"isspace", {ExternEffectKind::ReadOnly}},
      {"tolower", {ExternEffectKind::ReadOnly}},
      {"toupper", {ExternEffectKind::ReadOnly}},
      // Numeric parsers that only *read* their argument string. atoi/atol
      // on invalid input are UB per the standard, so errno is not a
      // concern.
      {"atoi", {ExternEffectKind::ReadOnly}},
      {"atol", {ExternEffectKind::ReadOnly}},
      // The strtol family writes through its endptr out-parameter and
      // nothing else, so it gets the WritesArg1 model: fine with a null
      // endptr or an &local, rejected when the end pointer could land in
      // caller or global memory. (Purity tolerates these; memoization
      // still rejects them as locale-sensitive — see memoizable.cpp.)
      {"strtol", {ExternEffectKind::WritesArg1}},
      {"strtoul", {ExternEffectKind::WritesArg1}},
      {"strtod", {ExternEffectKind::WritesArg1}},
      {"strtof", {ExternEffectKind::WritesArg1}},
  };
  const auto it = kDatabase.find(name);
  return it == kDatabase.end() ? nullptr : &it->second;
}

struct WritesArg0Oracle::Impl {
  Impl(const FunctionDecl& fn, const FunctionScopeInfo& scope)
      : oracle(fn, scope) {}
  PointerOracle oracle;
};

WritesArg0Oracle::WritesArg0Oracle(const FunctionDecl& fn,
                                   const FunctionScopeInfo& scope)
    : impl_(std::make_unique<Impl>(fn, scope)) {}

WritesArg0Oracle::~WritesArg0Oracle() = default;

std::string WritesArg0Oracle::violation(const CallExpr& call,
                                        const std::string& name) const {
  const ExternEffect* known = extern_effect(name);
  if (known != nullptr && known->kind == ExternEffectKind::WritesArg1) {
    return check_writes_arg1(impl_->oracle, call, name).reason;
  }
  return check_writes_arg0(impl_->oracle, call, name).reason;
}

PointerBaseMap local_pointer_bases(const FunctionDecl& fn,
                                   const FunctionScopeInfo& scope) {
  if (!fn.is_definition()) return {};
  return ProvenanceMap(fn, scope).bases();
}

EffectSummary compute_effects(const FunctionDecl& fn,
                              const FunctionScopeInfo& scope,
                              bool allow_malloc_free) {
  EffectSummary summary;
  summary.function = fn.name;
  if (!fn.is_definition()) {
    summary.pure_locally = false;
    summary.impurity_reason = "has no definition in this translation unit";
    summary.impurity_loc = fn.loc;
    return summary;
  }
  return EffectScanner(fn, scope, allow_malloc_free).run();
}

}  // namespace purec
