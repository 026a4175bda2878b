#include "emit/instrument.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "ast/expr.h"
#include "ast/type.h"

namespace purec {

namespace {

constexpr const char* kParallelForPrefix = "#pragma omp parallel for";
constexpr const char* kCollapseClause = " collapse(";

[[nodiscard]] ExprPtr make_ident(std::string name) {
  return std::make_unique<IdentExpr>(std::move(name));
}

[[nodiscard]] ExprPtr make_call(std::string callee,
                                std::vector<ExprPtr> args) {
  return std::make_unique<CallExpr>(make_ident(std::move(callee)),
                                    std::move(args));
}

/// `purec_instr_chunk(&purec_instr_rN);`
[[nodiscard]] StmtPtr make_chunk_tally(const std::string& region) {
  std::vector<ExprPtr> args;
  args.push_back(
      std::make_unique<UnaryExpr>(UnaryOp::AddrOf, make_ident(region)));
  return std::make_unique<ExprStmt>(
      make_call("purec_instr_chunk", std::move(args)));
}

/// Loops the pragma's `collapse(k)` clause covers (1 when it has none).
[[nodiscard]] std::size_t collapse_depth(const std::string& pragma) {
  const std::size_t at = pragma.find(kCollapseClause);
  if (at == std::string::npos) return 1;
  return std::strtoul(pragma.c_str() + at + std::strlen(kCollapseClause),
                      nullptr, 10);
}

/// Plants the chunk tally at the top of the body of every loop that sits
/// directly under a `#pragma omp parallel for` sibling — under
/// `collapse(k)`, in the body of the k-th collapsed loop, since the loops
/// above it must stay perfectly nested: each iteration (tuple) a worker
/// claims bumps its padded cell exactly once, so the per-worker totals
/// read back the scheduler's actual work split.
void add_chunk_tallies(Stmt& s, const std::string& region) {
  std::function<void(Stmt&)> visit = [&](Stmt& node) {
    if (auto* block = stmt_cast<CompoundStmt>(&node)) {
      std::size_t parallel_depth = 0;  // 0 = not under a parallel pragma
      for (StmtPtr& child : block->stmts) {
        auto* pragma = stmt_cast<PragmaStmt>(child.get());
        if (pragma != nullptr) {
          parallel_depth = pragma->text.rfind(kParallelForPrefix, 0) == 0
                               ? collapse_depth(pragma->text)
                               : 0;
          continue;
        }
        auto* loop = stmt_cast<ForStmt>(child.get());
        for (std::size_t k = 1; loop != nullptr && k < parallel_depth; ++k) {
          loop = stmt_cast<ForStmt>(loop->body.get());
        }
        if (parallel_depth > 0 && loop != nullptr && loop->body) {
          auto* body = stmt_cast<CompoundStmt>(loop->body.get());
          if (body == nullptr) {
            auto wrapped = std::make_unique<CompoundStmt>();
            wrapped->stmts.push_back(std::move(loop->body));
            loop->body = std::move(wrapped);
            body = static_cast<CompoundStmt*>(loop->body.get());
          }
          body->stmts.insert(body->stmts.begin(),
                             make_chunk_tally(region));
        }
        parallel_depth = 0;
        visit(*child);
      }
      return;
    }
    switch (node.kind()) {
      case StmtKind::If: {
        auto& branch = static_cast<IfStmt&>(node);
        visit(*branch.then_stmt);
        if (branch.else_stmt) visit(*branch.else_stmt);
        return;
      }
      case StmtKind::For: {
        auto& loop = static_cast<ForStmt&>(node);
        if (loop.body) visit(*loop.body);
        return;
      }
      case StmtKind::While:
        visit(*static_cast<WhileStmt&>(node).body);
        return;
      case StmtKind::DoWhile:
        visit(*static_cast<DoWhileStmt&>(node).body);
        return;
      default:
        return;
    }
  };
  visit(s);
}

}  // namespace

std::string instrument_region_definition(std::size_t index,
                                         const std::string& name) {
  const std::string var = "purec_instr_r" + std::to_string(index);
  std::string out;
  out += "static purec_instr_region_t " + var + " = {\"" + name + "\", " +
         std::to_string(index) + "u};\n";
  out += "__attribute__((constructor)) static void " + var +
         "_register(void) {\n  purec_instr_register(&" + var + ");\n}\n";
  return out;
}

void instrument_region(StmtPtr& nest, std::size_t index) {
  if (!nest) return;
  const std::string region = "purec_instr_r" + std::to_string(index);
  add_chunk_tallies(*nest, region);

  auto block = std::make_unique<CompoundStmt>();
  VarDecl t0;
  t0.name = "purec_instr_t0";
  t0.type = Type::make_builtin(BuiltinKind::ULongLong);
  t0.init = make_call("purec_instr_now", {});
  auto decl = std::make_unique<DeclStmt>();
  decl->decls.push_back(std::move(t0));
  block->stmts.push_back(std::move(decl));
  block->stmts.push_back(std::move(nest));
  std::vector<ExprPtr> args;
  args.push_back(
      std::make_unique<UnaryExpr>(UnaryOp::AddrOf, make_ident(region)));
  args.push_back(make_ident("purec_instr_t0"));
  block->stmts.push_back(std::make_unique<ExprStmt>(
      make_call("purec_instr_region_done", std::move(args))));
  nest = std::move(block);
}

}  // namespace purec
