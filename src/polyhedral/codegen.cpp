#include "polyhedral/codegen.h"

#include <algorithm>
#include <functional>
#include <set>

#include "ast/walk.h"
#include "support/rational.h"

namespace purec::poly {

const std::string& codegen_prelude() {
  static const std::string kPrelude =
      "#ifndef PUREC_POLY_HELPERS\n"
      "#define PUREC_POLY_HELPERS\n"
      "#define floord(n, d) "
      "(((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))\n"
      "#define ceild(n, d) floord((n) + (d) - 1, (d))\n"
      "#define purec_max(a, b) (((a) > (b)) ? (a) : (b))\n"
      "#define purec_min(a, b) (((a) < (b)) ? (a) : (b))\n"
      "#endif\n";
  return kPrelude;
}

namespace {

/// Builds an AST expression for an affine combination of named variables.
[[nodiscard]] ExprPtr affine_to_expr(const IntVec& coeffs,
                                     std::int64_t constant,
                                     const std::vector<std::string>& names) {
  ExprPtr acc;
  const auto add_term = [&](ExprPtr term, bool negative) {
    if (!acc) {
      if (negative) {
        acc = std::make_unique<UnaryExpr>(UnaryOp::Minus, std::move(term));
      } else {
        acc = std::move(term);
      }
      return;
    }
    acc = std::make_unique<BinaryExpr>(
        negative ? BinaryOp::Sub : BinaryOp::Add, std::move(acc),
        std::move(term));
  };

  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] == 0) continue;
    const std::int64_t a = coeffs[i] < 0 ? -coeffs[i] : coeffs[i];
    ExprPtr term = std::make_unique<IdentExpr>(names[i]);
    if (a != 1) {
      term = std::make_unique<BinaryExpr>(
          BinaryOp::Mul, std::make_unique<IntLiteralExpr>(a),
          std::move(term));
    }
    add_term(std::move(term), coeffs[i] < 0);
  }
  if (constant != 0 || !acc) {
    if (!acc) {
      acc = std::make_unique<IntLiteralExpr>(constant);
    } else if (constant > 0) {
      acc = std::make_unique<BinaryExpr>(
          BinaryOp::Add, std::move(acc),
          std::make_unique<IntLiteralExpr>(constant));
    } else {
      acc = std::make_unique<BinaryExpr>(
          BinaryOp::Sub, std::move(acc),
          std::make_unique<IntLiteralExpr>(-constant));
    }
  }
  return acc;
}

[[nodiscard]] ExprPtr call_helper(const std::string& name, ExprPtr a,
                                  ExprPtr b) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(a));
  args.push_back(std::move(b));
  return std::make_unique<CallExpr>(std::make_unique<IdentExpr>(name),
                                    std::move(args));
}

/// Renders one bound as an expression; divisor > 1 becomes ceild/floord.
[[nodiscard]] ExprPtr bound_to_expr(const VarBound& bound, bool lower,
                                    const std::vector<std::string>& names) {
  ExprPtr base = affine_to_expr(bound.coeffs, bound.constant, names);
  if (bound.divisor == 1) return base;
  return call_helper(lower ? "ceild" : "floord", std::move(base),
                     std::make_unique<IntLiteralExpr>(bound.divisor));
}

/// Combines several bounds with purec_max (lower) / purec_min (upper).
[[nodiscard]] ExprPtr combine_bounds(const std::vector<VarBound>& bounds,
                                     bool lower,
                                     const std::vector<std::string>& names) {
  ExprPtr acc;
  for (const VarBound& b : bounds) {
    ExprPtr e = bound_to_expr(b, lower, names);
    if (!acc) {
      acc = std::move(e);
    } else {
      acc = call_helper(lower ? "purec_max" : "purec_min", std::move(acc),
                        std::move(e));
    }
  }
  return acc;
}

/// for (int name = lower; name <= upper; name++) { body }
[[nodiscard]] StmtPtr make_loop(const std::string& name, ExprPtr lower,
                                ExprPtr upper, StmtPtr body) {
  auto loop = std::make_unique<ForStmt>();
  auto init = std::make_unique<DeclStmt>();
  VarDecl v;
  v.name = name;
  v.type = Type::make_builtin(BuiltinKind::Int);
  v.init = std::move(lower);
  init->decls.push_back(std::move(v));
  loop->init = std::move(init);
  loop->cond = std::make_unique<BinaryExpr>(
      BinaryOp::LessEqual, std::make_unique<IdentExpr>(name),
      std::move(upper));
  loop->inc = std::make_unique<UnaryExpr>(
      UnaryOp::PostInc, std::make_unique<IdentExpr>(name));
  loop->body = std::move(body);
  return loop;
}

}  // namespace

namespace {

[[nodiscard]] std::int64_t substitution_constant(
    const IteratorSubstitution& substitution, std::size_t j) {
  return j < substitution.iterator_constant.size()
             ? substitution.iterator_constant[j]
             : 0;
}

/// The slot callback both overloads share: an old iterator's identifier
/// becomes its affine replacement, and the walk does not descend into the
/// replacement.
[[nodiscard]] ExprSlotFn iterator_substituter(
    const std::vector<std::string>& old_names,
    const IteratorSubstitution& substitution) {
  return [&old_names, &substitution](ExprPtr& slot) -> bool {
    const auto* ident = expr_cast<IdentExpr>(slot.get());
    if (ident == nullptr) return false;
    for (std::size_t j = 0; j < old_names.size(); ++j) {
      if (ident->name == old_names[j]) {
        slot = affine_to_expr(substitution.iterator_replacement[j],
                              substitution_constant(substitution, j),
                              substitution.names);
        return true;
      }
    }
    return false;
  };
}

}  // namespace

void apply_iterator_substitution(ExprPtr& expr,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution) {
  for_each_expr_slot(expr, iterator_substituter(old_names, substitution));
}

void apply_iterator_substitution(StmtPtr& stmt,
                                 const std::vector<std::string>& old_names,
                                 const IteratorSubstitution& substitution) {
  for_each_expr_slot(*stmt, iterator_substituter(old_names, substitution));
}

namespace {

/// Composes "reduction(op:acc,...)" clauses for every exemptible
/// reduction statement accepted by `in_scope`, grouped by operator token
/// in first-appearance order. Empty when no reduction is in scope.
[[nodiscard]] std::string reduction_clauses(
    const Scop& scop,
    const std::function<bool(const ScopStatement&)>& in_scope) {
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  for (const ScopStatement& stmt : scop.statements) {
    if (!reduction_exemptible(stmt.reduction_op) || !in_scope(stmt)) {
      continue;
    }
    const std::string token = reduction_token(stmt.reduction_op);
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const auto& g) { return g.first == token; });
    if (it == groups.end()) {
      groups.emplace_back(token, std::vector<std::string>{});
      it = std::prev(groups.end());
    }
    if (std::find(it->second.begin(), it->second.end(),
                  stmt.reduction_accumulator) == it->second.end()) {
      it->second.push_back(stmt.reduction_accumulator);
    }
  }
  std::string out;
  for (const auto& [token, names] : groups) {
    if (!out.empty()) out += " ";
    out += "reduction(" + token + ":";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) out += ",";
      out += names[i];
    }
    out += ")";
  }
  return out;
}

/// The one place an OpenMP pragma's text is composed: `directive`, then
/// the non-empty clauses in a fixed order — collapse (only when `collapse`
/// covers at least two loops), schedule, reduction, private.
[[nodiscard]] StmtPtr omp_pragma(const char* directive, std::size_t collapse,
                                 const std::string& schedule,
                                 const std::string& reduction,
                                 const std::string& privates) {
  std::string text = directive;
  if (collapse >= 2) text += " collapse(" + std::to_string(collapse) + ")";
  for (const std::string* clause : {&schedule, &reduction, &privates}) {
    if (!clause->empty()) text += " " + *clause;
  }
  return std::make_unique<PragmaStmt>(std::move(text));
}

[[nodiscard]] bool couples_iterators(const ConstraintSystem& domain,
                                     std::size_t d) {
  for (const Constraint& c : domain.constraints()) {
    std::size_t coupled = 0;
    for (std::size_t i = 0; i < d && i < c.coeffs.size(); ++i) {
      if (c.coeffs[i] != 0) ++coupled;
    }
    if (coupled >= 2) return true;
  }
  return false;
}

}  // namespace

bool domain_is_imbalanced(const Scop& scop) {
  const std::size_t d = scop.depth();
  if (d < 2) return false;
  if (couples_iterators(scop.domain, d)) return true;
  for (const ScopStatement& stmt : scop.statements) {
    if (stmt.domain.dimensions() > 0 && couples_iterators(stmt.domain, d)) {
      return true;
    }
  }
  return false;
}

StmtPtr generate_code(const Scop& scop, const Transform& transform,
                      const CodegenOptions& options,
                      CodegenResult* result_out) {
  const std::size_t d = scop.depth();
  const std::size_t p = scop.parameters.size();
  const IntMat& T = transform.matrix;
  const IntMat Tinv = T.inverse_unimodular();

  // New iterator names t1..td (PluTo's convention), avoiding collisions
  // with parameters and arrays.
  std::vector<std::string> point_names;
  for (std::size_t i = 0; i < d; ++i) {
    std::string name = "t" + std::to_string(i + 1);
    while (std::find(scop.parameters.begin(), scop.parameters.end(), name) !=
               scop.parameters.end() ||
           std::find(scop.iterators.begin(), scop.iterators.end(), name) !=
               scop.iterators.end()) {
      name = "_" + name;
    }
    point_names.push_back(name);
  }

  const bool do_tile =
      options.tile && transform.band_size >= 2 && options.tile_size > 1;
  const std::size_t tiled_dims = do_tile ? transform.band_size : 0;

  std::vector<std::string> tile_names;
  for (std::size_t i = 0; i < tiled_dims; ++i) {
    tile_names.push_back(point_names[i] + "t");
  }

  // Variable order for generation: [tiles..., points..., params...].
  const std::size_t loop_vars = tiled_dims + d;
  const std::size_t dims = loop_vars + p;
  std::vector<std::string> names;
  names.insert(names.end(), tile_names.begin(), tile_names.end());
  names.insert(names.end(), point_names.begin(), point_names.end());
  names.insert(names.end(), scop.parameters.begin(), scop.parameters.end());

  ConstraintSystem sys(dims);
  // Transformed domain: original constraint a.i + b.p + k ~ 0 with
  // i = Tinv.c becomes (a.Tinv).c + b.p + k ~ 0.
  for (const Constraint& c : scop.domain.constraints()) {
    IntVec coeffs(dims, 0);
    for (std::size_t col = 0; col < d; ++col) {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < d; ++i) {
        acc = checked_add(acc, checked_mul(c.coeffs[i], Tinv.at(i, col)));
      }
      coeffs[tiled_dims + col] = acc;
    }
    for (std::size_t i = 0; i < p; ++i) {
      coeffs[loop_vars + i] = c.coeffs[d + i];
    }
    sys.add(Constraint{c.kind, std::move(coeffs), c.constant});
  }
  // Tile containment: 0 <= c_k - B*ct_k <= B-1.
  for (std::size_t k = 0; k < tiled_dims; ++k) {
    IntVec lo(dims, 0);
    lo[tiled_dims + k] = 1;
    lo[k] = -options.tile_size;
    sys.add_inequality(std::move(lo), 0);
    IntVec hi(dims, 0);
    hi[tiled_dims + k] = -1;
    hi[k] = options.tile_size;
    sys.add_inequality(std::move(hi), options.tile_size - 1);
  }

  const std::vector<VarBounds> bounds = sys.derive_bounds(loop_vars);

  // Statement body: original statements with iterators substituted by
  // rows of Tinv over the new point iterators. Strided levels fold their
  // normalization back in: i_j = origin_j + stride_j * (Tinv row j).c,
  // so the source expression the reader sees iterates the original
  // values while the domain variable counts trips.
  std::vector<IntVec> replacement(d);
  std::vector<std::int64_t> constants(d, 0);
  {
    for (std::size_t j = 0; j < d; ++j) {
      const std::int64_t stride =
          j < scop.strides.size() ? scop.strides[j] : 1;
      IntVec coeffs(names.size(), 0);
      for (std::size_t col = 0; col < d; ++col) {
        coeffs[tiled_dims + col] = checked_mul(stride, Tinv.at(j, col));
      }
      if (stride != 1 && j < scop.origins.size()) {
        const AffineForm& origin = scop.origins[j];
        for (std::size_t i = 0; i < p; ++i) {
          if (d + i < origin.coeffs.size()) {
            coeffs[loop_vars + i] = origin.coeffs[d + i];
          }
        }
        constants[j] = origin.constant;
      }
      replacement[j] = std::move(coeffs);
    }
  }

  IteratorSubstitution substitution;
  substitution.names = names;
  substitution.iterator_replacement = replacement;
  substitution.iterator_constant = constants;

  auto body = std::make_unique<CompoundStmt>();
  for (const ScopStatement& stmt : scop.statements) {
    StmtPtr cloned = stmt.ast->clone();
    apply_iterator_substitution(cloned, scop.iterators, substitution);
    body->stmts.push_back(std::move(cloned));
  }

  // Effective schedule: the user's spec wins; with no spec, an
  // imbalanced-looking domain (triangular inner trip counts) defaults to
  // guided so early big chunks amortize claims and the fine tail absorbs
  // the imbalance. Rectangular domains keep the implementation default.
  ScheduleSpec schedule = options.schedule;
  if (schedule.empty() && options.parallelize &&
      domain_is_imbalanced(scop)) {
    schedule.kind = OmpScheduleKind::Guided;
    schedule.chunk = 4;
  }
  const std::string schedule_clause = schedule.clause();

  // Accumulator clause for the whole band (every statement runs under the
  // pragma'd loop in a classic scop). The simd pragma needs it too: simd
  // asserts no lane-carried dependence, which for the accumulator is only
  // true under the clause's per-lane partials.
  const std::string reduction_clause = reduction_clauses(
      scop, [](const ScopStatement&) { return true; });

  // Privatized scalars (the chain's decision): shared cells whose value
  // never crosses an iteration, so each thread/lane gets its own copy.
  std::string private_clause;
  for (std::size_t i = 0; i < options.privatized.size(); ++i) {
    private_clause += (i == 0 ? "private(" : ", ") + options.privatized[i];
  }
  if (!private_clause.empty()) private_clause += ")";

  // Decide pragma placement.
  const std::size_t outer_parallel = transform.outermost_parallel();
  const bool parallel_outermost =
      options.parallelize && outer_parallel == 0;
  // When the outermost dimension is sequential but an inner one is
  // parallel, the OpenMP pragma goes on that inner *point* loop (valid:
  // all outer point dimensions are fixed there).
  const std::size_t inner_parallel_point =
      (options.parallelize && !parallel_outermost &&
       outer_parallel != Transform::npos)
          ? outer_parallel
          : Transform::npos;

  // Innermost parallel point dimension for the SICA simd pragma.
  std::size_t simd_dim = Transform::npos;
  if (options.simd && d > 0 && transform.parallel[d - 1]) {
    simd_dim = d - 1;
  }

  // Build loops inside-out: points innermost-first, then tiles.
  StmtPtr current = std::move(body);
  for (std::size_t k = d; k-- > 0;) {
    const VarBounds& vb = bounds[tiled_dims + k];
    ExprPtr lower = combine_bounds(vb.lower, true, names);
    ExprPtr upper = combine_bounds(vb.upper, false, names);
    if (!lower || !upper) {
      // Unbounded loop variable: cannot generate; signal by returning the
      // original nest untouched. (Callers treat this as "no transform".)
      return nullptr;
    }
    StmtPtr loop = make_loop(point_names[k], std::move(lower),
                             std::move(upper), std::move(current));
    auto wrapper = std::make_unique<CompoundStmt>();
    if (k == simd_dim && k != 0) {
      wrapper->stmts.push_back(omp_pragma("#pragma omp simd", 1, "",
                                          reduction_clause, private_clause));
    }
    if (k == inner_parallel_point && k != 0) {
      wrapper->stmts.push_back(
          omp_pragma("#pragma omp parallel for", 1, schedule_clause,
                     reduction_clause, private_clause));
    }
    if (wrapper->stmts.empty()) {
      current = std::move(loop);
    } else {
      wrapper->stmts.push_back(std::move(loop));
      current = std::move(wrapper);
    }
  }
  for (std::size_t k = tiled_dims; k-- > 0;) {
    const VarBounds& vb = bounds[k];
    ExprPtr lower = combine_bounds(vb.lower, true, names);
    ExprPtr upper = combine_bounds(vb.upper, false, names);
    if (!lower || !upper) return nullptr;
    current = make_loop(tile_names[k], std::move(lower), std::move(upper),
                        std::move(current));
  }

  // Collapse the leading tile loops t1t..tkt when each is parallel (in a
  // permutable band: every dependence has distance 0 there, so tile
  // tuples are independent) and the tile space is rectangular up to it
  // (no bound of tile loop m refers to an earlier tile variable). A
  // short outermost tile loop then no longer caps the nest's parallelism.
  std::size_t collapse = 1;
  if (parallel_outermost) {
    const auto rectangular = [&](std::size_t m) {
      const auto independent = [&](const VarBound& b) {
        return std::all_of(b.coeffs.begin(), b.coeffs.begin() + m,
                           [](std::int64_t c) { return c == 0; });
      };
      return std::all_of(bounds[m].lower.begin(), bounds[m].lower.end(),
                         independent) &&
             std::all_of(bounds[m].upper.begin(), bounds[m].upper.end(),
                         independent);
    };
    std::size_t k = 1;
    while (k < tiled_dims && transform.parallel[k] && rectangular(k)) ++k;
    if (k >= 2) collapse = k;
  }

  auto result = std::make_unique<CompoundStmt>();
  if (options.parallelize &&
      (parallel_outermost ||
       (inner_parallel_point == 0 && tiled_dims == 0))) {
    result->stmts.push_back(
        omp_pragma("#pragma omp parallel for", collapse, schedule_clause,
                   reduction_clause, private_clause));
  }
  result->stmts.push_back(std::move(current));
  if (result_out != nullptr) {
    result_out->substitution = std::move(substitution);
    result_out->collapse = collapse;
    result_out->schedule_clause = schedule_clause;
    result_out->tiled = do_tile;
  }
  return result;
}

StmtPtr schedule_region(const Scop& scop,
                        const std::vector<Dependence>& deps,
                        const CodegenOptions& options,
                        const std::vector<std::string>& privatizable,
                        RegionSchedule* result) {
  RegionSchedule local;
  RegionSchedule& rs = result != nullptr ? *result : local;
  rs = RegionSchedule{};
  if (!options.parallelize || scop.root == nullptr) return nullptr;
  const std::size_t d = scop.depth();
  const std::size_t n = scop.statements.size();
  if (d == 0 || n == 0) return nullptr;

  // Per-loop privatizable scalars: the structural write-before-read rule,
  // restricted to what the chain's liveness analysis allows.
  std::vector<std::vector<std::string>> priv(d);
  if (!privatizable.empty()) {
    for (std::size_t j = 0; j < d; ++j) {
      for (const std::string& t : privatizable_scalars(scop, j)) {
        if (std::find(privatizable.begin(), privatizable.end(), t) !=
            privatizable.end()) {
          priv[j].push_back(t);
        }
      }
    }
  }

  // First try the nest whole; when no loop parallelizes (even with
  // privatization) fall back to loop fission so a partially parallel
  // nest splits instead of serializing outright.
  std::vector<FissionGroup> groups;
  {
    const std::vector<bool> all_stmts(n, true);
    bool any_parallel = false;
    for (std::size_t j = 0; j < d && !any_parallel; ++j) {
      any_parallel = loop_is_parallel_for_group(deps, j, all_stmts,
                                                priv[j]);
    }
    if (any_parallel) {
      FissionGroup whole;
      for (std::size_t s = 0; s < n; ++s) whole.statements.push_back(s);
      whole.parallel =
          loop_is_parallel_for_group(deps, 0, all_stmts, priv[0]);
      groups.push_back(std::move(whole));
    } else {
      groups = fission_groups(
          scop, deps,
          priv.empty() ? std::vector<std::string>{} : priv[0]);
      if (groups.size() < 2) return nullptr;
    }
  }

  auto fission_block = std::make_unique<CompoundStmt>();
  StmtPtr single_nest;
  std::size_t total_selected = 0;

  for (const FissionGroup& group : groups) {
    std::vector<bool> in_group(n, false);
    std::set<std::size_t> keep_positions;
    for (std::size_t s : group.statements) {
      in_group[s] = true;
      keep_positions.insert(scop.statements[s].position);
    }

    // Loops present in this group's pruned nest.
    std::vector<bool> relevant(d, false);
    for (std::size_t s : group.statements) {
      for (std::size_t j : statement_loops(scop, scop.statements[s])) {
        relevant[j] = true;
      }
    }

    // Parallel loops for this group (privatization-aware), and the
    // outermost-parallel selection: a loop gets the pragma when no
    // enclosing loop already has one (no nested parallel regions).
    std::vector<bool> parallel(d, false);
    std::vector<bool> parallel_plain(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (!relevant[j]) continue;
      parallel[j] = loop_is_parallel_for_group(deps, j, in_group, priv[j]);
      parallel_plain[j] = loop_is_parallel_for_group(deps, j, in_group, {});
    }
    std::vector<bool> selected(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (!parallel[j]) continue;
      bool under_selected = false;
      for (std::size_t a = scop.loop_parents[j]; a != Scop::npos;
           a = scop.loop_parents[a]) {
        if (selected[a]) {
          under_selected = true;
          break;
        }
      }
      selected[j] = !under_selected;
    }

    // SICA mode: parallel leaf loops (within this group's pruned nest)
    // that did not take the parallel pragma get the vectorization hint.
    // Only plainly parallel loops qualify — a privatization-dependent
    // loop would need its own private clause on the simd pragma.
    std::vector<bool> has_child(d, false);
    for (std::size_t j = 0; j < d; ++j) {
      if (relevant[j] && scop.loop_parents[j] != Scop::npos) {
        has_child[scop.loop_parents[j]] = true;
      }
    }
    std::vector<bool> simd(d, false);
    if (options.simd) {
      for (std::size_t j = 0; j < d; ++j) {
        simd[j] = relevant[j] && !has_child[j] && parallel_plain[j] &&
                  !selected[j];
      }
    }

    // Effective schedule, per pragma'd loop: the user's spec wins; with
    // no spec, a loop whose in-group statements have iterator-coupled
    // (triangular/trapezoidal) domains defaults to guided so the fine
    // tail absorbs the imbalance. Evaluating post-fission, per loop,
    // keeps a fissioned-off rectangular loop from inheriting a
    // triangular sibling's clause.
    const auto clause_for_loop = [&](std::size_t j) -> std::string {
      ScheduleSpec schedule = options.schedule;
      if (schedule.empty()) {
        for (std::size_t s : group.statements) {
          const ScopStatement& stmt = scop.statements[s];
          const std::vector<std::size_t> chain =
              statement_loops(scop, stmt);
          if (std::find(chain.begin(), chain.end(), j) == chain.end()) {
            continue;
          }
          if (couples_iterators(statement_domain(scop, stmt), d)) {
            schedule.kind = OmpScheduleKind::Guided;
            schedule.chunk = 4;
            break;
          }
        }
      }
      return schedule.clause();
    };

    // Accumulators of the group's reduction statements: the pragma gets
    // them as reduction clauses (and the private clause below must never
    // list them — GCC rejects a name in both).
    std::vector<std::string> accumulators;
    for (std::size_t s : group.statements) {
      if (reduction_exemptible(scop.statements[s].reduction_op)) {
        accumulators.push_back(scop.statements[s].reduction_accumulator);
      }
    }
    const auto reduction_for_loop = [&](std::size_t loop_index) {
      return reduction_clauses(scop, [&](const ScopStatement& stmt) {
        const std::size_t idx =
            static_cast<std::size_t>(&stmt - scop.statements.data());
        if (!in_group[idx]) return false;
        const std::vector<std::size_t> chain = statement_loops(scop, stmt);
        return std::find(chain.begin(), chain.end(), loop_index) !=
               chain.end();
      });
    };

    // OpenMP privatizes only the pragma'd loop's own iteration variable.
    // A descendant loop whose iterator lives in an enclosing scope
    // (`int j; ... for (j = 0; ...)` — C89 style, or a canonicalized
    // while whose variable is read after its loop) would be *shared*
    // across threads, racing; list those in an explicit private clause,
    // followed by the privatized scalars the loop's parallelism depends
    // on. (Decl-init descendants are block-scoped and already
    // per-thread.)
    const auto private_for_loop = [&](std::size_t s) -> std::string {
      std::vector<std::string> names;
      for (std::size_t k = 0; k < d; ++k) {
        if (k == s || !relevant[k]) continue;
        bool under = false;
        for (std::size_t a = scop.loop_parents[k]; a != Scop::npos;
             a = scop.loop_parents[a]) {
          if (a == s) {
            under = true;
            break;
          }
        }
        if (!under) continue;
        const ForStmt* ast = scop.loop_asts[k];
        if (ast == nullptr || !ast->init ||
            stmt_cast<ExprStmt>(ast->init.get()) == nullptr) {
          continue;
        }
        if (std::find(accumulators.begin(), accumulators.end(),
                      scop.iterators[k]) != accumulators.end()) {
          continue;
        }
        if (std::find(names.begin(), names.end(), scop.iterators[k]) ==
            names.end()) {
          names.push_back(scop.iterators[k]);
        }
      }
      for (const std::string& t : priv[s]) {
        bool needed = false;
        for (const Dependence& dep : deps) {
          if (dep.is_reduction || dep.array != t ||
              dep.carrier_loop != s) {
            continue;
          }
          if (!in_group[dep.src_stmt] || !in_group[dep.dst_stmt]) {
            continue;
          }
          needed = true;
          break;
        }
        if (!needed) continue;
        if (std::find(names.begin(), names.end(), t) == names.end()) {
          names.push_back(t);
        }
        if (std::find(rs.privatized.begin(), rs.privatized.end(), t) ==
            rs.privatized.end()) {
          rs.privatized.push_back(t);
        }
      }
      if (names.empty()) return "";
      std::string clause = "private(";
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (i != 0) clause += ", ";
        clause += names[i];
      }
      clause += ")";
      return clause;
    };

    // Clone the nest, prune it to the group's statements (empty guards,
    // compounds and loops dissolve), and wrap selected loops in their
    // pragmas. The DFS mirrors extraction's pre-order numbering: loops
    // count at entry, assignments count in source order, guard branches
    // descend then-before-else.
    StmtPtr cloned = scop.root->clone();
    std::size_t loop_counter = 0;
    std::size_t stmt_counter = 0;
    std::function<bool(StmtPtr&)> prune = [&](StmtPtr& slot) -> bool {
      if (!slot) return false;
      switch (slot->kind()) {
        case StmtKind::For: {
          const std::size_t index = loop_counter++;
          auto& loop = static_cast<ForStmt&>(*slot);
          const bool kept = prune(loop.body);
          if (!kept) return false;
          if (index >= d || (!selected[index] && !simd[index])) {
            return true;
          }
          auto wrapper = std::make_unique<CompoundStmt>();
          if (simd[index]) {
            wrapper->stmts.push_back(omp_pragma(
                "#pragma omp simd", 1, "", reduction_for_loop(index), ""));
          }
          if (selected[index]) {
            wrapper->stmts.push_back(omp_pragma(
                "#pragma omp parallel for", 1, clause_for_loop(index),
                reduction_for_loop(index), private_for_loop(index)));
          }
          wrapper->stmts.push_back(std::move(slot));
          slot = std::move(wrapper);
          return true;
        }
        case StmtKind::Compound: {
          auto& block = static_cast<CompoundStmt&>(*slot);
          std::vector<StmtPtr> kept;
          for (StmtPtr& child : block.stmts) {
            if (prune(child)) kept.push_back(std::move(child));
          }
          block.stmts = std::move(kept);
          return !block.stmts.empty();
        }
        case StmtKind::If: {
          auto& branch = static_cast<IfStmt&>(*slot);
          const bool kept_then = prune(branch.then_stmt);
          const bool kept_else =
              branch.else_stmt ? prune(branch.else_stmt) : false;
          if (!kept_then && !kept_else) return false;
          if (!kept_then) branch.then_stmt = std::make_unique<NullStmt>();
          if (!kept_else) branch.else_stmt = nullptr;
          return true;
        }
        case StmtKind::Expr: {
          const auto& es = static_cast<const ExprStmt&>(*slot);
          if (expr_cast<AssignExpr>(es.expr.get()) == nullptr) {
            return false;
          }
          return keep_positions.count(stmt_counter++) != 0;
        }
        default:
          // Null statements (and stray pragmas) carry no computation;
          // pruned copies drop them.
          return false;
      }
    };
    if (!prune(cloned)) continue;

    bool group_selected = false;
    for (std::size_t j = 0; j < d; ++j) {
      if (!selected[j]) continue;
      group_selected = true;
      ++total_selected;
      rs.parallel_loops.push_back(j);
      if (rs.schedule_clause.empty()) {
        rs.schedule_clause = clause_for_loop(j);
      }
    }
    if (group_selected) ++rs.parallel_groups;
    if (groups.size() == 1) {
      single_nest = std::move(cloned);
    } else {
      fission_block->stmts.push_back(std::move(cloned));
    }
  }

  if (total_selected == 0) {
    rs = RegionSchedule{};
    return nullptr;
  }
  rs.groups = groups.size();
  rs.fissioned = groups.size() > 1;
  if (!rs.fissioned) return single_nest;
  return fission_block;
}

}  // namespace purec::poly
