#include "polyhedral/dependence.h"

#include <algorithm>
#include <sstream>

#include "support/rational.h"

namespace purec::poly {

std::string_view to_string(DependenceKind kind) noexcept {
  switch (kind) {
    case DependenceKind::Flow: return "flow";
    case DependenceKind::Anti: return "anti";
    case DependenceKind::Output: return "output";
  }
  return "?";
}

std::string Dependence::to_string(const Scop& scop) const {
  std::ostringstream out;
  out << purec::poly::to_string(kind) << " dep on " << array << " S"
      << src_stmt << " -> S" << dst_stmt << " at level " << level;
  out << " distance (";
  for (std::size_t i = 0; i < distance.size(); ++i) {
    if (i != 0) out << ", ";
    if (distance[i]) {
      out << *distance[i];
    } else {
      out << "*";
    }
  }
  out << ")";
  (void)scop;
  return std::move(out).str();
}

namespace {

/// Builds the base dependence system over [src iters (D), dst iters (D),
/// params (p)]: each statement's own domain + subscript equalities. D is
/// the scop's full iterator count; loops not enclosing a statement are
/// simply unconstrained on its side (its domain never mentions them).
[[nodiscard]] ConstraintSystem base_system(const Scop& scop,
                                           const ScopStatement& S,
                                           const Access& src,
                                           const ScopStatement& T,
                                           const Access& dst) {
  const std::size_t d = scop.depth();
  const std::size_t p = scop.parameters.size();
  const std::size_t dims = 2 * d + p;
  ConstraintSystem sys(dims);

  // Source domain: coefficients over [iters, params] -> [src, ..., params].
  for (const Constraint& c : statement_domain(scop, S).constraints()) {
    IntVec coeffs(dims, 0);
    for (std::size_t i = 0; i < d; ++i) coeffs[i] = c.coeffs[i];
    for (std::size_t i = 0; i < p; ++i) coeffs[2 * d + i] = c.coeffs[d + i];
    sys.add(Constraint{c.kind, std::move(coeffs), c.constant});
  }
  // Destination domain -> [_, dst, params].
  for (const Constraint& c : statement_domain(scop, T).constraints()) {
    IntVec coeffs(dims, 0);
    for (std::size_t i = 0; i < d; ++i) coeffs[d + i] = c.coeffs[i];
    for (std::size_t i = 0; i < p; ++i) coeffs[2 * d + i] = c.coeffs[d + i];
    sys.add(Constraint{c.kind, std::move(coeffs), c.constant});
  }
  // Subscript equality per dimension: sub_src(i) == sub_dst(i'). A
  // pure call's read of any element meets every element.
  if (src.any_element || dst.any_element) return sys;
  for (std::size_t s = 0; s < src.subscripts.size(); ++s) {
    const AffineForm& a = src.subscripts[s];
    const AffineForm& b = dst.subscripts[s];
    IntVec coeffs(dims, 0);
    for (std::size_t i = 0; i < d; ++i) coeffs[i] = a.coeffs[i];
    for (std::size_t i = 0; i < d; ++i) {
      coeffs[d + i] = checked_sub(coeffs[d + i], b.coeffs[i]);
    }
    for (std::size_t i = 0; i < p; ++i) {
      coeffs[2 * d + i] =
          checked_sub(a.coeffs[d + i], b.coeffs[d + i]);
    }
    sys.add_equality(std::move(coeffs),
                     checked_sub(a.constant, b.constant));
  }
  return sys;
}

/// Adds precedence "carried at common-chain position l" (1-based): the
/// first l-1 common loops agree, the l-th strictly increases.
void add_carried_constraints(ConstraintSystem& sys, std::size_t d,
                             const std::vector<std::size_t>& common,
                             std::size_t level) {
  for (std::size_t k = 0; k + 1 < level; ++k) {
    IntVec eq(sys.dimensions(), 0);
    eq[common[k]] = 1;
    eq[d + common[k]] = -1;
    sys.add_equality(std::move(eq), 0);
  }
  IntVec lt(sys.dimensions(), 0);
  lt[common[level - 1]] = -1;
  lt[d + common[level - 1]] = 1;
  sys.add_inequality(std::move(lt), -1);  // dst - src - 1 >= 0
}

void add_equal_constraints(ConstraintSystem& sys, std::size_t d,
                           const std::vector<std::size_t>& common) {
  for (std::size_t k : common) {
    IntVec eq(sys.dimensions(), 0);
    eq[k] = 1;
    eq[d + k] = -1;
    sys.add_equality(std::move(eq), 0);
  }
}

[[nodiscard]] DependenceKind classify(AccessKind src, AccessKind dst) {
  if (src == AccessKind::Write && dst == AccessKind::Read) {
    return DependenceKind::Flow;
  }
  if (src == AccessKind::Read && dst == AccessKind::Write) {
    return DependenceKind::Anti;
  }
  return DependenceKind::Output;
}

}  // namespace

std::vector<Dependence> analyze_dependences(const Scop& scop) {
  std::vector<Dependence> deps;
  const std::size_t d = scop.depth();

  for (std::size_t si = 0; si < scop.statements.size(); ++si) {
    for (std::size_t ti = 0; ti < scop.statements.size(); ++ti) {
      const ScopStatement& S = scop.statements[si];
      const ScopStatement& T = scop.statements[ti];
      const std::vector<std::size_t> src_chain = statement_loops(scop, S);
      const std::vector<std::size_t> dst_chain = statement_loops(scop, T);
      std::vector<std::size_t> common;
      for (std::size_t k = 0;
           k < src_chain.size() && k < dst_chain.size() &&
           src_chain[k] == dst_chain[k];
           ++k) {
        common.push_back(src_chain[k]);
      }
      // The accumulator's self-dependences (flow, anti, and output, at
      // every carried level) are exactly what an OpenMP reduction clause
      // is licensed to reorder — tag them so the parallelism verdicts and
      // the scheduler's legality filter can exempt them. Disjunct copies
      // of one source statement are the same update, so pairs between
      // copies (same ast) are self-dependences too.
      const bool reduction_pair =
          (si == ti || (S.ast != nullptr && S.ast == T.ast)) &&
          reduction_exemptible(S.reduction_op);
      for (std::size_t ai = 0; ai < S.accesses.size(); ++ai) {
        const Access& a = S.accesses[ai];
        for (std::size_t bi = 0; bi < T.accesses.size(); ++bi) {
          const Access& b = T.accesses[bi];
          if (a.array != b.array) continue;
          if (a.kind == AccessKind::Read && b.kind == AccessKind::Read) {
            continue;
          }
          if (a.subscripts.size() != b.subscripts.size() &&
              !a.any_element && !b.any_element) {
            continue;
          }
          const bool is_reduction =
              reduction_pair && a.array == S.reduction_accumulator;

          const ConstraintSystem base = base_system(scop, S, a, T, b);

          // Carried levels over the pair's common chain.
          for (std::size_t level = 1; level <= common.size(); ++level) {
            ConstraintSystem sys = base;
            add_carried_constraints(sys, d, common, level);
            if (sys.is_empty()) continue;
            Dependence dep;
            dep.src_stmt = si;
            dep.dst_stmt = ti;
            dep.src_access = ai;
            dep.dst_access = bi;
            dep.array = a.array;
            dep.kind = classify(a.kind, b.kind);
            dep.level = level;
            dep.carrier_loop = common[level - 1];
            dep.polyhedron = sys;
            dep.is_reduction = is_reduction;
            for (std::size_t k : common) {
              IntVec diff(sys.dimensions(), 0);
              diff[k] = -1;
              diff[d + k] = 1;
              dep.distance.push_back(sys.forced_value(diff, 0));
            }
            deps.push_back(std::move(dep));
          }

          // Loop-independent (same common iteration, textual order).
          if (S.position < T.position ||
              (S.position == T.position && si < ti)) {
            ConstraintSystem sys = base;
            add_equal_constraints(sys, d, common);
            if (!sys.is_empty()) {
              Dependence dep;
              dep.src_stmt = si;
              dep.dst_stmt = ti;
              dep.src_access = ai;
              dep.dst_access = bi;
              dep.array = a.array;
              dep.kind = classify(a.kind, b.kind);
              dep.level = d + 1;
              dep.carrier_loop = Scop::npos;
              dep.polyhedron = sys;
              dep.distance.assign(common.size(),
                                  std::optional<std::int64_t>(0));
              deps.push_back(std::move(dep));
            }
          }
        }
      }
    }
  }
  return deps;
}

std::string pure_call_read(const Scop& scop, const Dependence& dep) {
  const Access* src = &scop.statements[dep.src_stmt].accesses[dep.src_access];
  const Access* dst = &scop.statements[dep.dst_stmt].accesses[dep.dst_access];
  // Reads never pair with reads, so the other end is the write.
  const Access* read = !src->pure_call.empty() ? src : dst;
  const Access* write = read == src ? dst : src;
  if (read->pure_call.empty()) return {};
  return "pure function '" + read->pure_call + "' reads '" + dep.array +
         "'" + (read->via.empty() ? "" : " through " + read->via) +
         ", which is written" +
         (write->via.empty() ? "" : " through " + write->via) +
         " in the same loop nest";
}

bool level_is_parallel(const std::vector<Dependence>& deps, std::size_t level,
                       std::size_t depth) {
  for (const Dependence& dep : deps) {
    if (dep.is_reduction || dep.is_private) continue;
    if (dep.loop_carried(depth) && dep.level == level) return false;
  }
  return true;
}

bool loop_is_parallel(const std::vector<Dependence>& deps,
                      std::size_t loop_index) {
  for (const Dependence& dep : deps) {
    if (dep.is_reduction || dep.is_private) continue;
    if (dep.carrier_loop == loop_index) return false;
  }
  return true;
}

namespace {

[[nodiscard]] bool name_in(const std::vector<std::string>& names,
                           const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

[[nodiscard]] bool exempt_dependence(const Dependence& dep,
                                     const std::vector<std::string>& priv) {
  return dep.is_reduction || dep.is_private || name_in(priv, dep.array);
}

}  // namespace

std::vector<std::string> privatizable_scalars(const Scop& scop,
                                              std::size_t loop_index) {
  // Candidate scalars: written somewhere with no subscripts. Reduction
  // accumulators are excluded — their carried self-dependence is already
  // licensed by the reduction clause, and privatizing one would drop the
  // combine step.
  std::vector<std::string> candidates;
  std::vector<std::string> excluded;
  for (const ScopStatement& stmt : scop.statements) {
    if (stmt.reduction_op != ReductionOp::None) {
      excluded.push_back(stmt.reduction_accumulator);
    }
    for (const Access& a : stmt.accesses) {
      if (a.kind == AccessKind::Write && a.subscripts.empty() &&
          !name_in(candidates, a.array)) {
        candidates.push_back(a.array);
      }
    }
  }

  std::vector<std::string> result;
  for (const std::string& t : candidates) {
    if (name_in(excluded, t)) continue;
    // Accessor statements in textual order (statements are emitted in
    // position order; disjunct copies are adjacent).
    std::vector<const ScopStatement*> accessors;
    bool scalar_everywhere = true;
    for (const ScopStatement& stmt : scop.statements) {
      bool touches = false;
      for (const Access& a : stmt.accesses) {
        if (a.array != t) continue;
        touches = true;
        if (!a.subscripts.empty()) scalar_everywhere = false;
      }
      if (touches) accessors.push_back(&stmt);
    }
    if (!scalar_everywhere || accessors.empty()) continue;

    // Every accessor under loop_index, and the common chain prefix.
    std::vector<std::size_t> common =
        statement_loops(scop, *accessors.front());
    bool all_under = true;
    for (const ScopStatement* stmt : accessors) {
      const std::vector<std::size_t> chain = statement_loops(scop, *stmt);
      if (std::find(chain.begin(), chain.end(), loop_index) ==
          chain.end()) {
        all_under = false;
        break;
      }
      std::size_t k = 0;
      while (k < common.size() && k < chain.size() &&
             common[k] == chain[k]) {
        ++k;
      }
      common.resize(k);
    }
    if (!all_under) continue;

    // The first accessor must dominate the rest within one iteration of
    // the common chain: an unguarded write (no read) sitting directly at
    // the common depth, so every deeper or later read in the same
    // iteration sees a value written in that iteration.
    const ScopStatement& first = *accessors.front();
    bool first_writes = false;
    bool first_reads = false;
    for (const Access& a : first.accesses) {
      if (a.array != t) continue;
      if (a.kind == AccessKind::Write) first_writes = true;
      if (a.kind == AccessKind::Read) first_reads = true;
    }
    if (!first_writes || first_reads || first.guarded) continue;
    if (statement_loops(scop, first) != common) continue;
    result.push_back(t);
  }
  return result;
}

void mark_private_dependences(std::vector<Dependence>& deps,
                              const std::vector<std::string>& names) {
  for (Dependence& dep : deps) {
    if (!dep.is_reduction && name_in(names, dep.array)) {
      dep.is_private = true;
    }
  }
}

bool loop_is_parallel_for_group(const std::vector<Dependence>& deps,
                                std::size_t loop_index,
                                const std::vector<bool>& in_group,
                                const std::vector<std::string>& private_ok) {
  for (const Dependence& dep : deps) {
    if (dep.carrier_loop != loop_index) continue;
    if (exempt_dependence(dep, private_ok)) continue;
    if (!in_group[dep.src_stmt] || !in_group[dep.dst_stmt]) continue;
    return false;
  }
  return true;
}

std::vector<FissionGroup> fission_groups(
    const Scop& scop, const std::vector<Dependence>& deps,
    const std::vector<std::string>& private_ok) {
  // Nodes: one per source statement (disjunct copies collapse — they are
  // alternative domains of the same text, not separable statements).
  const std::size_t n_stmts = scop.statements.size();
  std::vector<std::size_t> node_of(n_stmts);
  std::vector<std::vector<std::size_t>> stmts_of;
  for (std::size_t s = 0; s < n_stmts; ++s) {
    if (s > 0 && scop.statements[s].ast != nullptr &&
        scop.statements[s].ast == scop.statements[s - 1].ast) {
      node_of[s] = node_of[s - 1];
      stmts_of[node_of[s]].push_back(s);
      continue;
    }
    node_of[s] = stmts_of.size();
    stmts_of.push_back({s});
  }
  const std::size_t n = stmts_of.size();

  // Edges from every dependence (exempt ones too: a privatized scalar's
  // writer and readers must still land in the same loop — the private
  // copy only lives within one iteration).
  std::vector<std::vector<std::size_t>> succ(n);
  for (const Dependence& dep : deps) {
    const std::size_t u = node_of[dep.src_stmt];
    const std::size_t v = node_of[dep.dst_stmt];
    if (u == v) continue;
    if (std::find(succ[u].begin(), succ[u].end(), v) == succ[u].end()) {
      succ[u].push_back(v);
    }
  }

  // Tarjan SCC (iterative; nests are tiny but recursion depth is cheap to
  // avoid).
  std::vector<std::size_t> scc_of(n, Scop::npos);
  {
    std::vector<std::size_t> index(n, Scop::npos);
    std::vector<std::size_t> low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;
    std::size_t next_index = 0;
    std::size_t scc_count = 0;
    struct Frame {
      std::size_t node;
      std::size_t child;
    };
    for (std::size_t start = 0; start < n; ++start) {
      if (index[start] != Scop::npos) continue;
      std::vector<Frame> frames{{start, 0}};
      index[start] = low[start] = next_index++;
      stack.push_back(start);
      on_stack[start] = true;
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.child < succ[f.node].size()) {
          const std::size_t w = succ[f.node][f.child++];
          if (index[w] == Scop::npos) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = true;
            frames.push_back({w, 0});
          } else if (on_stack[w]) {
            low[f.node] = std::min(low[f.node], index[w]);
          }
          continue;
        }
        if (low[f.node] == index[f.node]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc_of[w] = scc_count;
            if (w == f.node) break;
          }
          ++scc_count;
        }
        const std::size_t done = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] =
              std::min(low[frames.back().node], low[done]);
        }
      }
    }
    // Renumber components and topo-order them below.
    (void)scc_count;
  }
  std::size_t n_sccs = 0;
  for (std::size_t c : scc_of) n_sccs = std::max(n_sccs, c + 1);

  // Condensation + Kahn topological order, preferring the component with
  // the textually earliest statement so serial pieces reassemble in
  // source order.
  std::vector<std::vector<std::size_t>> members(n_sccs);
  for (std::size_t v = 0; v < n; ++v) members[scc_of[v]].push_back(v);
  std::vector<std::size_t> indegree(n_sccs, 0);
  std::vector<std::vector<std::size_t>> csucc(n_sccs);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : succ[u]) {
      const std::size_t cu = scc_of[u];
      const std::size_t cv = scc_of[v];
      if (cu == cv) continue;
      if (std::find(csucc[cu].begin(), csucc[cu].end(), cv) ==
          csucc[cu].end()) {
        csucc[cu].push_back(cv);
        ++indegree[cv];
      }
    }
  }
  std::vector<std::size_t> order;
  std::vector<bool> emitted(n_sccs, false);
  while (order.size() < n_sccs) {
    std::size_t best = Scop::npos;
    for (std::size_t c = 0; c < n_sccs; ++c) {
      if (emitted[c] || indegree[c] != 0) continue;
      if (best == Scop::npos ||
          members[c].front() < members[best].front()) {
        best = c;
      }
    }
    emitted[best] = true;
    order.push_back(best);
    for (std::size_t v : csucc[best]) --indegree[v];
  }

  // Component parallelism, then greedy merge of consecutive components.
  const auto component_parallel = [&](const std::vector<std::size_t>& ns) {
    for (const Dependence& dep : deps) {
      if (dep.carrier_loop != 0) continue;
      if (exempt_dependence(dep, private_ok)) continue;
      const bool src_in =
          std::find(ns.begin(), ns.end(), node_of[dep.src_stmt]) !=
          ns.end();
      const bool dst_in =
          std::find(ns.begin(), ns.end(), node_of[dep.dst_stmt]) !=
          ns.end();
      if (src_in && dst_in) return false;
    }
    return true;
  };
  const auto linked_at_root = [&](const std::vector<std::size_t>& a,
                                  const std::vector<std::size_t>& b) {
    for (const Dependence& dep : deps) {
      if (dep.carrier_loop != 0) continue;
      if (exempt_dependence(dep, private_ok)) continue;
      const std::size_t u = node_of[dep.src_stmt];
      const std::size_t v = node_of[dep.dst_stmt];
      const bool u_in_a = std::find(a.begin(), a.end(), u) != a.end();
      const bool v_in_b = std::find(b.begin(), b.end(), v) != b.end();
      const bool u_in_b = std::find(b.begin(), b.end(), u) != b.end();
      const bool v_in_a = std::find(a.begin(), a.end(), v) != a.end();
      if ((u_in_a && v_in_b) || (u_in_b && v_in_a)) return true;
    }
    return false;
  };

  std::vector<std::vector<std::size_t>> merged_nodes;
  std::vector<bool> merged_parallel;
  for (std::size_t c : order) {
    const bool par = component_parallel(members[c]);
    if (!merged_nodes.empty()) {
      const bool last_par = merged_parallel.back();
      const bool can_merge =
          (!last_par && !par) ||
          (last_par && par && !linked_at_root(merged_nodes.back(),
                                              members[c]));
      if (can_merge) {
        merged_nodes.back().insert(merged_nodes.back().end(),
                                   members[c].begin(), members[c].end());
        continue;
      }
    }
    merged_nodes.push_back(members[c]);
    merged_parallel.push_back(par);
  }

  std::vector<FissionGroup> groups;
  for (std::size_t g = 0; g < merged_nodes.size(); ++g) {
    FissionGroup group;
    group.parallel = merged_parallel[g];
    for (std::size_t v : merged_nodes[g]) {
      group.statements.insert(group.statements.end(),
                              stmts_of[v].begin(), stmts_of[v].end());
    }
    std::sort(group.statements.begin(), group.statements.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

const Dependence* fusion_blocker(const Scop& fused,
                                 const std::vector<Dependence>& deps,
                                 std::size_t position_boundary,
                                 bool* crossing) {
  const Dependence* local = nullptr;
  for (const Dependence& dep : deps) {
    if (dep.carrier_loop != 0) continue;
    if (dep.is_reduction || dep.is_private) continue;
    const bool src_first =
        fused.statements[dep.src_stmt].position < position_boundary;
    const bool dst_first =
        fused.statements[dep.dst_stmt].position < position_boundary;
    if (src_first != dst_first) {
      if (crossing != nullptr) *crossing = true;
      return &dep;
    }
    if (local == nullptr) local = &dep;
  }
  if (crossing != nullptr) *crossing = false;
  return local;
}

}  // namespace purec::poly
