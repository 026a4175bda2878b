#include "purity/inference.h"

#include <vector>

#include "purity/callgraph.h"
#include "purity/effects.h"

namespace purec {

namespace {

/// Purity of a callee as seen from outside its SCC.
struct CalleeView {
  bool pure = false;
  /// Citable cause when impure: "'g' writes to global 'c'".
  std::string cause;
  const std::set<std::string>* global_reads = nullptr;  // null = empty
};

class InferenceEngine {
 public:
  InferenceEngine(const TranslationUnit& tu, const SymbolTable& symbols,
                  const PurityOptions& options)
      : symbols_(symbols), options_(options), graph_(CallGraph::build(tu)) {}

  [[nodiscard]] InferenceResult run() {
    for (const std::vector<const CallGraphNode*>& scc : graph_.sccs()) {
      process_scc(scc);
    }
    for (auto& [name, purity] : result_.functions) {
      if (purity.inferred) result_.inferred_pure.insert(name);
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool is_seeded(const std::string& name) const {
    if (standard_pure_functions().count(name) != 0) return true;
    return options_.allow_malloc_free &&
           (name == "malloc" || name == "calloc" || name == "free");
  }

  [[nodiscard]] static bool is_annotated(const CallGraphNode& node) {
    return (node.declaration != nullptr && node.declaration->is_pure) ||
           (node.definition != nullptr && node.definition->is_pure);
  }

  [[nodiscard]] CalleeView view_of(const std::string& callee) const {
    const CallGraphNode* node = graph_.node(callee);
    // A defined function we already processed (callees-first order).
    if (node != nullptr && !node->is_external()) {
      const auto it = result_.functions.find(callee);
      if (it != result_.functions.end()) {
        const FunctionPurity& p = it->second;
        CalleeView view;
        view.pure = p.pure;
        view.global_reads = &p.global_reads;
        if (!p.pure) {
          // Cite the root cause, not the propagation chain.
          view.cause = p.reason.rfind("calls impure", 0) == 0 ||
                               p.reason.rfind("calls unknown", 0) == 0
                           ? "transitively " + p.reason
                           : "'" + callee + "' " + p.reason;
        }
        return view;
      }
      // In-flight: same SCC, handled by the caller. Not reached here.
    }
    if (node != nullptr && is_annotated(*node)) {
      return CalleeView{true, {}, nullptr};  // trusted `pure` prototype
    }
    if (is_seeded(callee)) return CalleeView{true, {}, nullptr};
    return CalleeView{
        false, "calls unknown external function '" + callee + "'", nullptr};
  }

  void process_scc(const std::vector<const CallGraphNode*>& scc) {
    std::set<std::string> members;
    for (const CallGraphNode* node : scc) members.insert(node->name);

    // Annotated members are the verifier's business: axiomatically pure,
    // never "inferred", and their bodies are not effect-scanned.
    std::vector<const CallGraphNode*> candidates;
    for (const CallGraphNode* node : scc) {
      if (is_annotated(*node)) {
        FunctionPurity& p = result_.functions[node->name];
        p.name = node->name;
        p.pure = true;
        p.annotated = true;
        p.loc = node->definition->loc;
      } else {
        candidates.push_back(node);
      }
    }

    // An SCC is pure as a unit: every member transitively calls every
    // other, so one impure member (or one impure escape edge) sinks all
    // unannotated members.
    std::string verdict;  // empty = pure
    SourceLocation verdict_loc;
    std::string verdict_member;
    std::set<std::string> scc_global_reads;
    std::set<std::string> call_reads;

    for (const CallGraphNode* node : candidates) {
      const FunctionScopeInfo* scope = symbols_.scope_for(*node->definition);
      if (scope == nullptr) {
        verdict = "has no resolvable symbol scope";
        verdict_loc = node->definition->loc;
        verdict_member = node->name;
        break;
      }
      EffectSummary effects = compute_effects(*node->definition, *scope,
                                              options_.allow_malloc_free);
      if (!effects.pure_locally) {
        verdict = effects.impurity_reason;
        verdict_loc = effects.impurity_loc;
        verdict_member = node->name;
        break;
      }
      scc_global_reads.insert(effects.global_reads.begin(),
                              effects.global_reads.end());
      call_reads.insert(effects.global_reads.begin(),
                        effects.global_reads.end());
      for (const std::string& callee : effects.callees) {
        if (members.count(callee) != 0) continue;  // optimistic intra-SCC
        const CalleeView view = view_of(callee);
        if (!view.pure) {
          verdict = view.cause.rfind("calls unknown", 0) == 0 ||
                            view.cause.rfind("transitively", 0) == 0
                        ? view.cause
                        : "calls impure function '" + callee + "' (" +
                              view.cause + ")";
          verdict_loc = node->definition->loc;
          verdict_member = node->name;
          break;
        }
        if (view.global_reads != nullptr) {
          scc_global_reads.insert(view.global_reads->begin(),
                                  view.global_reads->end());
        }
      }
      if (!verdict.empty()) break;
    }

    for (const CallGraphNode* node : candidates) {
      FunctionPurity& p = result_.functions[node->name];
      p.name = node->name;
      p.loc = node->definition->loc;
      if (verdict.empty()) {
        p.pure = true;
        p.inferred = true;
        p.global_reads = scc_global_reads;
      } else if (node->name == verdict_member) {
        p.reason = verdict;
        // Point at the offending construct, not just the definition.
        if (verdict_loc.valid()) p.loc = verdict_loc;
      } else {
        p.reason = "calls impure function '" + verdict_member + "' ('" +
                   verdict_member + "' " + verdict + ")";
      }
    }

    // Annotated members keep the paper's promise semantics for their OWN
    // body (pure casts are the programmer's word), but inference-derived
    // global reads must not be laundered through them: an annotated
    // wrapper around an inferred global-reading callee carries that
    // callee's read set, so the Listing-5 provenance rule still fires on
    // nests that call the wrapper.
    for (const CallGraphNode* node : scc) {
      if (!is_annotated(*node) || node->definition == nullptr) continue;
      if (const FunctionScopeInfo* scope =
              symbols_.scope_for(*node->definition)) {
        const EffectSummary effects = compute_effects(
            *node->definition, *scope, options_.allow_malloc_free);
        call_reads.insert(effects.global_reads.begin(),
                          effects.global_reads.end());
      }
      FunctionPurity& p = result_.functions[node->name];
      if (verdict.empty()) {
        p.global_reads.insert(scc_global_reads.begin(),
                              scc_global_reads.end());
      }
      for (const std::string& callee : node->callees) {
        if (members.count(callee) != 0) continue;
        const CalleeView view = view_of(callee);
        if (view.pure && view.global_reads != nullptr) {
          p.global_reads.insert(view.global_reads->begin(),
                                view.global_reads->end());
        }
      }
    }

    // A call to any member reads what every member and every callee
    // outside the SCC reads.
    for (const CallGraphNode* node : scc) {
      for (const std::string& callee : node->callees) {
        const auto it = result_.functions.find(callee);
        if (members.count(callee) == 0 && it != result_.functions.end()) {
          call_reads.insert(it->second.call_reads.begin(),
                            it->second.call_reads.end());
        }
      }
    }
    for (const CallGraphNode* node : scc) {
      const auto it = result_.functions.find(node->name);
      if (it != result_.functions.end()) it->second.call_reads = call_reads;
    }
  }

  const SymbolTable& symbols_;
  const PurityOptions& options_;
  CallGraph graph_;
  InferenceResult result_;
};

}  // namespace

std::map<std::string, std::set<std::string>>
InferenceResult::inferred_global_reads() const {
  std::map<std::string, std::set<std::string>> reads;
  for (const auto& [name, purity] : functions) {
    // Annotated functions appear too when inference-derived reads flow
    // through them (wrapper around an inferred global-reading callee).
    if (purity.pure && !purity.global_reads.empty()) {
      reads[name] = purity.global_reads;
    }
  }
  return reads;
}

std::string InferenceResult::summary() const {
  std::string inferred;
  std::string rejected;
  for (const auto& [name, purity] : functions) {
    if (purity.inferred) {
      if (!inferred.empty()) inferred += ", ";
      inferred += name;
    } else if (!purity.pure) {
      if (!rejected.empty()) rejected += ", ";
      rejected += name + " (" + purity.reason + ")";
    }
  }
  std::string out = "inferred pure: " + (inferred.empty() ? "-" : inferred);
  if (!rejected.empty()) out += "; rejected: " + rejected;
  return out;
}

InferenceResult infer_purity(const TranslationUnit& tu,
                             const SymbolTable& symbols,
                             const PurityOptions& options) {
  return InferenceEngine(tu, symbols, options).run();
}

}  // namespace purec
