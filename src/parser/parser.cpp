#include "parser/parser.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "lexer/lexer.h"

namespace purec {

namespace {

/// Internal unwinding token for parse-error recovery; callers catch it at
/// statement/declaration boundaries. User-visible reporting goes through the
/// DiagnosticEngine before this is thrown.
struct ParseError {};

/// C binary operator precedence (higher binds tighter). Assignment and
/// conditional are handled separately.
[[nodiscard]] int precedence_of(TokenKind kind) {
  switch (kind) {
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent:
      return 10;
    case TokenKind::Plus:
    case TokenKind::Minus:
      return 9;
    case TokenKind::LessLess:
    case TokenKind::GreaterGreater:
      return 8;
    case TokenKind::Less:
    case TokenKind::Greater:
    case TokenKind::LessEqual:
    case TokenKind::GreaterEqual:
      return 7;
    case TokenKind::EqualEqual:
    case TokenKind::ExclaimEqual:
      return 6;
    case TokenKind::Amp:
      return 5;
    case TokenKind::Caret:
      return 4;
    case TokenKind::Pipe:
      return 3;
    case TokenKind::AmpAmp:
      return 2;
    case TokenKind::PipePipe:
      return 1;
    default:
      return -1;
  }
}

[[nodiscard]] BinaryOp binary_op_for(TokenKind kind) {
  switch (kind) {
    case TokenKind::Star: return BinaryOp::Mul;
    case TokenKind::Slash: return BinaryOp::Div;
    case TokenKind::Percent: return BinaryOp::Rem;
    case TokenKind::Plus: return BinaryOp::Add;
    case TokenKind::Minus: return BinaryOp::Sub;
    case TokenKind::LessLess: return BinaryOp::Shl;
    case TokenKind::GreaterGreater: return BinaryOp::Shr;
    case TokenKind::Less: return BinaryOp::Less;
    case TokenKind::Greater: return BinaryOp::Greater;
    case TokenKind::LessEqual: return BinaryOp::LessEqual;
    case TokenKind::GreaterEqual: return BinaryOp::GreaterEqual;
    case TokenKind::EqualEqual: return BinaryOp::Equal;
    case TokenKind::ExclaimEqual: return BinaryOp::NotEqual;
    case TokenKind::Amp: return BinaryOp::BitAnd;
    case TokenKind::Caret: return BinaryOp::BitXor;
    case TokenKind::Pipe: return BinaryOp::BitOr;
    case TokenKind::AmpAmp: return BinaryOp::LogicalAnd;
    case TokenKind::PipePipe: return BinaryOp::LogicalOr;
    default: throw std::logic_error("not a binary operator token");
  }
}

[[nodiscard]] bool is_assign_token(TokenKind kind) {
  switch (kind) {
    case TokenKind::Equal:
    case TokenKind::PlusEqual:
    case TokenKind::MinusEqual:
    case TokenKind::StarEqual:
    case TokenKind::SlashEqual:
    case TokenKind::PercentEqual:
    case TokenKind::AmpEqual:
    case TokenKind::PipeEqual:
    case TokenKind::CaretEqual:
    case TokenKind::LessLessEqual:
    case TokenKind::GreaterGreaterEqual:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] AssignOp assign_op_for(TokenKind kind) {
  switch (kind) {
    case TokenKind::Equal: return AssignOp::Assign;
    case TokenKind::PlusEqual: return AssignOp::AddAssign;
    case TokenKind::MinusEqual: return AssignOp::SubAssign;
    case TokenKind::StarEqual: return AssignOp::MulAssign;
    case TokenKind::SlashEqual: return AssignOp::DivAssign;
    case TokenKind::PercentEqual: return AssignOp::RemAssign;
    case TokenKind::AmpEqual: return AssignOp::AndAssign;
    case TokenKind::PipeEqual: return AssignOp::OrAssign;
    case TokenKind::CaretEqual: return AssignOp::XorAssign;
    case TokenKind::LessLessEqual: return AssignOp::ShlAssign;
    case TokenKind::GreaterGreaterEqual: return AssignOp::ShrAssign;
    default: throw std::logic_error("not an assignment operator token");
  }
}

}  // namespace

Parser::Parser(std::vector<Token> tokens, DiagnosticEngine& diags)
    : tokens_(std::move(tokens)), diags_(diags) {
  if (tokens_.empty() || !tokens_.back().is(TokenKind::EndOfFile)) {
    Token eof;
    eof.kind = TokenKind::EndOfFile;
    tokens_.push_back(eof);
  }
}

const Token& Parser::peek(std::size_t ahead) const {
  const std::size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::accept(TokenKind kind) {
  if (at(kind)) {
    advance();
    return true;
  }
  return false;
}

const Token& Parser::expect(TokenKind kind, std::string_view what) {
  if (at(kind)) return advance();
  error_here("expected " + std::string(to_string(kind)) + " " +
             std::string(what) + ", found '" + peek().str() + "'");
  throw ParseError{};
}

void Parser::error_here(std::string message) {
  diags_.error(peek().location(), "parser", std::move(message));
}

void Parser::synchronize_to_statement_boundary() {
  int depth = 0;
  while (!at_end()) {
    const TokenKind k = peek().kind;
    if (depth == 0 && (k == TokenKind::Semicolon || k == TokenKind::RBrace)) {
      if (k == TokenKind::Semicolon) advance();
      return;
    }
    if (k == TokenKind::LBrace) ++depth;
    if (k == TokenKind::RBrace) {
      if (depth == 0) return;
      --depth;
    }
    advance();
  }
}

// ---------------------------------------------------------------------------
// Types and declarators
// ---------------------------------------------------------------------------

bool Parser::at_declaration_start() const {
  const Token& t = peek();
  switch (t.kind) {
    case TokenKind::KwTypedef:
    case TokenKind::KwStatic:
    case TokenKind::KwExtern:
    case TokenKind::KwConst:
    case TokenKind::KwPure:
    case TokenKind::KwInline:
    case TokenKind::KwRegister:
    case TokenKind::KwVolatile:
    case TokenKind::KwUnsigned:
    case TokenKind::KwSigned:
    case TokenKind::KwVoid:
    case TokenKind::KwChar:
    case TokenKind::KwShort:
    case TokenKind::KwInt:
    case TokenKind::KwLong:
    case TokenKind::KwFloat:
    case TokenKind::KwDouble:
    case TokenKind::KwStruct:
    case TokenKind::KwUnion:
    case TokenKind::KwEnum:
      return true;
    case TokenKind::Identifier:
      // A typedef name followed by something that looks like a declarator.
      return typedef_names_.count(t.text) != 0 &&
             (peek(1).is(TokenKind::Identifier) ||
              peek(1).is(TokenKind::Star));
    default:
      return false;
  }
}

bool Parser::looks_like_type(std::size_t ahead) const {
  const Token& t = peek(ahead);
  if (t.is(TokenKind::KwConst) || t.is(TokenKind::KwPure) ||
      t.is(TokenKind::KwVolatile) || t.is(TokenKind::KwStruct) ||
      t.is(TokenKind::KwUnion) || is_type_specifier_keyword(t.kind)) {
    return true;
  }
  return t.is(TokenKind::Identifier) && typedef_names_.count(t.text) != 0;
}

Parser::DeclSpecifiers Parser::parse_decl_specifiers() {
  DeclSpecifiers specs;
  specs.loc = peek().location();

  bool saw_unsigned = false;
  bool saw_signed = false;
  int long_count = 0;
  bool saw_short = false;
  std::optional<BuiltinKind> base;
  std::string struct_tag;
  std::string typedef_name;
  bool is_struct = false;

  for (;;) {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::KwTypedef: specs.is_typedef = true; advance(); continue;
      case TokenKind::KwStatic: specs.is_static = true; advance(); continue;
      case TokenKind::KwExtern: specs.is_extern = true; advance(); continue;
      case TokenKind::KwConst: specs.is_const = true; advance(); continue;
      case TokenKind::KwPure: specs.is_pure = true; advance(); continue;
      case TokenKind::KwInline:
      case TokenKind::KwRegister:
      case TokenKind::KwVolatile:
      case TokenKind::KwRestrict:
        advance();  // accepted and ignored (no semantic effect in this chain)
        continue;
      case TokenKind::KwUnsigned: saw_unsigned = true; advance(); continue;
      case TokenKind::KwSigned: saw_signed = true; advance(); continue;
      case TokenKind::KwShort: saw_short = true; advance(); continue;
      case TokenKind::KwLong: ++long_count; advance(); continue;
      case TokenKind::KwVoid: base = BuiltinKind::Void; advance(); continue;
      case TokenKind::KwChar: base = BuiltinKind::Char; advance(); continue;
      case TokenKind::KwInt: base = BuiltinKind::Int; advance(); continue;
      case TokenKind::KwFloat: base = BuiltinKind::Float; advance(); continue;
      case TokenKind::KwDouble:
        base = BuiltinKind::Double;
        advance();
        continue;
      case TokenKind::KwStruct:
      case TokenKind::KwUnion: {
        advance();
        is_struct = true;
        if (at(TokenKind::Identifier)) struct_tag = advance().str();
        continue;
      }
      case TokenKind::KwEnum: {
        advance();
        if (at(TokenKind::Identifier)) advance();
        base = BuiltinKind::Int;  // enums behave as int in this dialect
        continue;
      }
      case TokenKind::Identifier:
        if (!base && !is_struct && typedef_name.empty() &&
            typedef_names_.count(t.text) != 0) {
          typedef_name = advance().str();
          continue;
        }
        break;
      default:
        break;
    }
    break;
  }

  if (is_struct) {
    specs.base_type = Type::make_struct(struct_tag);
  } else if (!typedef_name.empty()) {
    specs.base_type = Type::make_named(typedef_name);
  } else {
    BuiltinKind k = base.value_or(BuiltinKind::Int);
    if (saw_short) {
      k = saw_unsigned ? BuiltinKind::UShort : BuiltinKind::Short;
    } else if (long_count >= 2) {
      k = saw_unsigned ? BuiltinKind::ULongLong : BuiltinKind::LongLong;
    } else if (long_count == 1) {
      if (base == BuiltinKind::Double) {
        k = BuiltinKind::LongDouble;
      } else {
        k = saw_unsigned ? BuiltinKind::ULong : BuiltinKind::Long;
      }
    } else if (base == BuiltinKind::Char) {
      if (saw_unsigned) k = BuiltinKind::UChar;
      if (saw_signed) k = BuiltinKind::SChar;
    } else if (saw_unsigned) {
      k = BuiltinKind::UInt;
    }
    if (!base && !saw_short && long_count == 0 && !saw_unsigned &&
        !saw_signed) {
      // No type specifier at all: caller decides whether that is an error.
      specs.base_type = nullptr;
      return specs;
    }
    specs.base_type = Type::make_builtin(k);
  }
  if (specs.is_const) specs.base_type = specs.base_type->with_const(true);
  return specs;
}

TypePtr Parser::parse_pointer_suffix(TypePtr base, bool decl_pure) {
  TypePtr type = std::move(base);
  while (at(TokenKind::Star)) {
    advance();
    bool ptr_const = false;
    bool ptr_pure = false;
    while (at(TokenKind::KwConst) || at(TokenKind::KwPure) ||
           at(TokenKind::KwRestrict) || at(TokenKind::KwVolatile)) {
      if (at(TokenKind::KwConst)) ptr_const = true;
      if (at(TokenKind::KwPure)) ptr_pure = true;
      advance();
    }
    type = Type::make_pointer(std::move(type), ptr_const, ptr_pure);
  }
  // The paper's prefix `pure` on a pointer declaration marks the pointer
  // itself: `pure int* p` == pointer that is single-assignment and
  // write-protected all the way down.
  if (decl_pure && type->is_pointer()) {
    type = type->with_pure(true);
  }
  return type;
}

Parser::Declarator Parser::parse_declarator(TypePtr base, bool decl_pure) {
  Declarator d;
  d.type = parse_pointer_suffix(std::move(base), decl_pure);
  d.loc = peek().location();

  if (at(TokenKind::Identifier)) {
    d.name = advance().str();
  }

  // Array suffixes.
  std::vector<std::optional<std::int64_t>> array_dims;
  while (at(TokenKind::LBracket)) {
    advance();
    if (at(TokenKind::RBracket)) {
      array_dims.push_back(std::nullopt);
    } else {
      const Token& size_tok = expect(TokenKind::IntegerLiteral, "array size");
      array_dims.push_back(std::strtoll(size_tok.str().c_str(), nullptr, 0));
    }
    expect(TokenKind::RBracket, "to close array declarator");
  }
  for (auto it = array_dims.rbegin(); it != array_dims.rend(); ++it) {
    d.type = Type::make_array(d.type, *it);
  }

  // Function suffix.
  if (at(TokenKind::LParen)) {
    advance();
    d.is_function = true;
    d.params = parse_parameter_list(d.is_variadic);
    expect(TokenKind::RParen, "to close parameter list");
  }
  return d;
}

std::vector<ParamDecl> Parser::parse_parameter_list(bool& variadic) {
  std::vector<ParamDecl> params;
  variadic = false;
  if (at(TokenKind::RParen)) return params;
  if (at(TokenKind::KwVoid) && peek(1).is(TokenKind::RParen)) {
    advance();
    return params;
  }
  for (;;) {
    if (at(TokenKind::Ellipsis)) {
      advance();
      variadic = true;
      break;
    }
    DeclSpecifiers specs = parse_decl_specifiers();
    if (!specs.base_type) {
      error_here("expected parameter type");
      throw ParseError{};
    }
    Declarator d = parse_declarator(specs.base_type, specs.is_pure);
    ParamDecl p;
    p.name = d.name;
    p.type = d.type;
    p.loc = d.loc;
    params.push_back(std::move(p));
    if (!accept(TokenKind::Comma)) break;
  }
  return params;
}

TypePtr Parser::parse_type_name() {
  DeclSpecifiers specs = parse_decl_specifiers();
  if (!specs.base_type) {
    error_here("expected type name");
    throw ParseError{};
  }
  TypePtr type = parse_pointer_suffix(specs.base_type, specs.is_pure);
  // Abstract array declarator, e.g. sizeof(int[4]).
  while (at(TokenKind::LBracket)) {
    advance();
    std::optional<std::int64_t> size;
    if (at(TokenKind::IntegerLiteral)) {
      size = std::strtoll(advance().str().c_str(), nullptr, 0);
    }
    expect(TokenKind::RBracket, "to close array type");
    type = Type::make_array(type, size);
  }
  // `pure` on a non-pointer cast target still records the qualifier.
  if (specs.is_pure && !type->is_pure) type = type->with_pure(true);
  return type;
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

TranslationUnit Parser::parse_translation_unit() {
  TranslationUnit tu;
  while (!at_end()) {
    const std::size_t start = pos_;
    try {
      parse_top_level(tu);
    } catch (const ParseError&) {
      synchronize_to_statement_boundary();
    }
    // Recovery stops before a depth-0 `}`; a failed item that consumed
    // nothing must still make progress, or that token is retried forever.
    if (pos_ == start && !at_end()) advance();
  }
  return tu;
}

std::unique_ptr<StructDecl> Parser::parse_struct_definition(
    DeclSpecifiers& specs) {
  auto decl = std::make_unique<StructDecl>();
  decl->tag = specs.base_type->name;
  decl->is_definition = true;
  decl->loc = specs.loc;
  expect(TokenKind::LBrace, "to open struct body");
  while (!at(TokenKind::RBrace) && !at_end()) {
    DeclSpecifiers field_specs = parse_decl_specifiers();
    if (!field_specs.base_type) {
      error_here("expected field type in struct");
      throw ParseError{};
    }
    for (;;) {
      Declarator d = parse_declarator(field_specs.base_type,
                                      field_specs.is_pure);
      decl->fields.push_back(StructField{d.name, d.type});
      if (!accept(TokenKind::Comma)) break;
    }
    expect(TokenKind::Semicolon, "after struct field");
  }
  expect(TokenKind::RBrace, "to close struct body");
  return decl;
}

void Parser::parse_top_level(TranslationUnit& tu) {
  if (at(TokenKind::HashLine)) {
    tu.items.push_back(TopLevelItem{std::string(advance().text)});
    return;
  }
  if (accept(TokenKind::Semicolon)) return;  // stray semicolon

  DeclSpecifiers specs = parse_decl_specifiers();
  if (!specs.base_type) {
    error_here("expected declaration, found '" + peek().str() + "'");
    throw ParseError{};
  }

  // Struct definition (possibly with trailing declarators or typedef name).
  if (specs.base_type->kind == TypeKind::Struct && at(TokenKind::LBrace)) {
    auto struct_decl = parse_struct_definition(specs);
    if (specs.is_typedef) {
      // `typedef struct tag {...} Alias;`
      const Token& alias = expect(TokenKind::Identifier, "typedef name");
      auto td = std::make_unique<TypedefDecl>();
      td->name = alias.str();
      td->underlying = Type::make_struct(struct_decl->tag);
      td->loc = specs.loc;
      typedef_names_.insert(td->name);
      tu.items.push_back(TopLevelItem{std::move(struct_decl)});
      tu.items.push_back(TopLevelItem{std::move(td)});
      expect(TokenKind::Semicolon, "after typedef");
      return;
    }
    tu.items.push_back(TopLevelItem{std::move(struct_decl)});
    expect(TokenKind::Semicolon, "after struct definition");
    return;
  }

  // Typedef of a non-struct type.
  if (specs.is_typedef) {
    Declarator d = parse_declarator(specs.base_type, specs.is_pure);
    auto td = std::make_unique<TypedefDecl>();
    td->name = d.name;
    td->underlying = d.type;
    td->loc = specs.loc;
    typedef_names_.insert(td->name);
    tu.items.push_back(TopLevelItem{std::move(td)});
    expect(TokenKind::Semicolon, "after typedef");
    return;
  }

  // Function or global variable(s).
  bool first = true;
  for (;;) {
    Declarator d = parse_declarator(specs.base_type, specs.is_pure);
    if (d.is_function) {
      auto fn = std::make_unique<FunctionDecl>();
      fn->name = d.name;
      // For functions, the leading `pure` marks the function (Listing 1);
      // strip it back off the return type.
      fn->is_pure = specs.is_pure;
      fn->return_type =
          d.type->is_pure ? d.type->with_pure(false) : d.type;
      fn->returns_pure_pointer = specs.is_pure && d.type->is_pointer();
      fn->is_static = specs.is_static;
      fn->is_variadic = d.is_variadic;
      fn->params = std::move(d.params);
      fn->loc = d.loc;
      if (at(TokenKind::LBrace)) {
        if (!first) {
          error_here("function definition cannot follow other declarators");
          throw ParseError{};
        }
        fn->body = parse_compound();
        tu.items.push_back(TopLevelItem{std::move(fn)});
        return;
      }
      tu.items.push_back(TopLevelItem{std::move(fn)});
    } else {
      auto global = std::make_unique<GlobalVarDecl>();
      global->var.name = d.name;
      global->var.type = d.type;
      global->var.loc = d.loc;
      global->is_static = specs.is_static;
      global->is_extern = specs.is_extern;
      if (accept(TokenKind::Equal)) {
        global->var.init = parse_assignment();
      }
      tu.items.push_back(TopLevelItem{std::move(global)});
    }
    first = false;
    if (!accept(TokenKind::Comma)) break;
  }
  expect(TokenKind::Semicolon, "after declaration");
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

std::unique_ptr<CompoundStmt> Parser::parse_compound() {
  auto block = std::make_unique<CompoundStmt>();
  block->loc = peek().location();
  expect(TokenKind::LBrace, "to open block");
  while (!at(TokenKind::RBrace) && !at_end()) {
    try {
      block->stmts.push_back(parse_statement());
    } catch (const ParseError&) {
      synchronize_to_statement_boundary();
    }
  }
  expect(TokenKind::RBrace, "to close block");
  return block;
}

StmtPtr Parser::parse_statement() {
  const SourceLocation loc = peek().location();
  switch (peek().kind) {
    case TokenKind::LBrace:
      return parse_compound();
    case TokenKind::KwIf:
      return parse_if();
    case TokenKind::KwFor:
      return parse_for();
    case TokenKind::KwWhile:
      return parse_while();
    case TokenKind::KwDo:
      return parse_do_while();
    case TokenKind::KwReturn: {
      advance();
      ExprPtr value;
      if (!at(TokenKind::Semicolon)) value = parse_expression();
      expect(TokenKind::Semicolon, "after return");
      auto s = std::make_unique<ReturnStmt>(std::move(value));
      s->loc = loc;
      return s;
    }
    case TokenKind::KwBreak: {
      advance();
      expect(TokenKind::Semicolon, "after break");
      auto s = std::make_unique<BreakStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::KwContinue: {
      advance();
      expect(TokenKind::Semicolon, "after continue");
      auto s = std::make_unique<ContinueStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::Semicolon: {
      advance();
      auto s = std::make_unique<NullStmt>();
      s->loc = loc;
      return s;
    }
    case TokenKind::HashLine: {
      auto s = std::make_unique<PragmaStmt>(std::string(advance().text));
      s->loc = loc;
      return s;
    }
    default:
      break;
  }

  if (at_declaration_start()) return parse_declaration_statement();

  ExprPtr e = parse_expression();
  expect(TokenKind::Semicolon, "after expression");
  auto s = std::make_unique<ExprStmt>(std::move(e));
  s->loc = loc;
  return s;
}

StmtPtr Parser::parse_declaration_statement() {
  auto stmt = std::make_unique<DeclStmt>();
  stmt->loc = peek().location();
  DeclSpecifiers specs = parse_decl_specifiers();
  if (!specs.base_type) {
    error_here("expected type in declaration");
    throw ParseError{};
  }
  for (;;) {
    Declarator d = parse_declarator(specs.base_type, specs.is_pure);
    if (d.is_function) {
      // Local function prototypes are legal C; represent the declared name
      // as a variable of pointer-to-function-ish type is overkill here, so
      // we simply skip them (they do not appear in the paper's codes).
      diags_.warning(d.loc, "parser",
                     "local function prototype ignored: " + d.name);
    } else {
      VarDecl v;
      v.name = d.name;
      v.type = d.type;
      v.loc = d.loc;
      v.is_static = specs.is_static;
      if (accept(TokenKind::Equal)) v.init = parse_assignment();
      stmt->decls.push_back(std::move(v));
    }
    if (!accept(TokenKind::Comma)) break;
  }
  expect(TokenKind::Semicolon, "after declaration");
  return stmt;
}

StmtPtr Parser::parse_if() {
  const SourceLocation loc = peek().location();
  expect(TokenKind::KwIf, "");
  expect(TokenKind::LParen, "after if");
  ExprPtr cond = parse_expression();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr then_stmt = parse_statement();
  StmtPtr else_stmt;
  if (accept(TokenKind::KwElse)) else_stmt = parse_statement();
  auto s = std::make_unique<IfStmt>(std::move(cond), std::move(then_stmt),
                                    std::move(else_stmt));
  s->loc = loc;
  return s;
}

StmtPtr Parser::parse_for() {
  const SourceLocation loc = peek().location();
  expect(TokenKind::KwFor, "");
  expect(TokenKind::LParen, "after for");
  auto s = std::make_unique<ForStmt>();
  s->loc = loc;

  if (at(TokenKind::Semicolon)) {
    advance();
    auto n = std::make_unique<NullStmt>();
    n->loc = loc;
    s->init = std::move(n);
  } else if (at_declaration_start()) {
    s->init = parse_declaration_statement();  // consumes ';'
  } else {
    ExprPtr e = parse_expression();
    expect(TokenKind::Semicolon, "after for-init");
    s->init = std::make_unique<ExprStmt>(std::move(e));
  }

  if (!at(TokenKind::Semicolon)) s->cond = parse_expression();
  expect(TokenKind::Semicolon, "after for-condition");
  if (!at(TokenKind::RParen)) s->inc = parse_expression();
  expect(TokenKind::RParen, "after for-increment");
  s->body = parse_statement();
  return s;
}

StmtPtr Parser::parse_while() {
  const SourceLocation loc = peek().location();
  expect(TokenKind::KwWhile, "");
  expect(TokenKind::LParen, "after while");
  ExprPtr cond = parse_expression();
  expect(TokenKind::RParen, "after while condition");
  StmtPtr body = parse_statement();
  auto s = std::make_unique<WhileStmt>(std::move(cond), std::move(body));
  s->loc = loc;
  return s;
}

StmtPtr Parser::parse_do_while() {
  const SourceLocation loc = peek().location();
  expect(TokenKind::KwDo, "");
  StmtPtr body = parse_statement();
  expect(TokenKind::KwWhile, "after do body");
  expect(TokenKind::LParen, "after while");
  ExprPtr cond = parse_expression();
  expect(TokenKind::RParen, "after do-while condition");
  expect(TokenKind::Semicolon, "after do-while");
  auto s = std::make_unique<DoWhileStmt>(std::move(body), std::move(cond));
  s->loc = loc;
  return s;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parse_standalone_expression() {
  ExprPtr e = parse_expression();
  if (!at_end()) {
    error_here("trailing tokens after expression");
  }
  return e;
}

ExprPtr Parser::parse_expression() {
  ExprPtr e = parse_assignment();
  while (at(TokenKind::Comma)) {
    const SourceLocation loc = peek().location();
    advance();
    ExprPtr rhs = parse_assignment();
    auto c = std::make_unique<BinaryExpr>(BinaryOp::Comma, std::move(e),
                                          std::move(rhs));
    c->loc = loc;
    e = std::move(c);
  }
  return e;
}

ExprPtr Parser::parse_assignment() {
  ExprPtr lhs = parse_conditional();
  if (is_assign_token(peek().kind)) {
    const SourceLocation loc = peek().location();
    const AssignOp op = assign_op_for(advance().kind);
    ExprPtr rhs = parse_assignment();  // right-associative
    auto a = std::make_unique<AssignExpr>(op, std::move(lhs), std::move(rhs));
    a->loc = loc;
    return a;
  }
  return lhs;
}

ExprPtr Parser::parse_conditional() {
  ExprPtr cond = parse_binary(1);
  if (at(TokenKind::Question)) {
    const SourceLocation loc = peek().location();
    advance();
    ExprPtr then_expr = parse_expression();
    expect(TokenKind::Colon, "in conditional expression");
    ExprPtr else_expr = parse_conditional();
    auto c = std::make_unique<ConditionalExpr>(
        std::move(cond), std::move(then_expr), std::move(else_expr));
    c->loc = loc;
    return c;
  }
  return cond;
}

ExprPtr Parser::parse_binary(int min_precedence) {
  ExprPtr lhs = parse_cast_expression();
  for (;;) {
    const int prec = precedence_of(peek().kind);
    if (prec < min_precedence) return lhs;
    const SourceLocation loc = peek().location();
    const BinaryOp op = binary_op_for(advance().kind);
    ExprPtr rhs = parse_binary(prec + 1);  // left-associative
    auto b =
        std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
    b->loc = loc;
    lhs = std::move(b);
  }
}

ExprPtr Parser::parse_cast_expression() {
  if (at(TokenKind::LParen) && looks_like_type(1)) {
    const SourceLocation loc = peek().location();
    advance();  // '('
    TypePtr type = parse_type_name();
    expect(TokenKind::RParen, "to close cast");
    ExprPtr operand = parse_cast_expression();
    auto c = std::make_unique<CastExpr>(std::move(type), std::move(operand));
    c->loc = loc;
    return c;
  }
  return parse_unary();
}

ExprPtr Parser::parse_unary() {
  const SourceLocation loc = peek().location();
  switch (peek().kind) {
    case TokenKind::PlusPlus: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::PreInc, parse_unary());
      e->loc = loc;
      return e;
    }
    case TokenKind::MinusMinus: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::PreDec, parse_unary());
      e->loc = loc;
      return e;
    }
    case TokenKind::Plus: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::Plus,
                                           parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::Minus: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::Minus,
                                           parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::Exclaim: {
      advance();
      auto e =
          std::make_unique<UnaryExpr>(UnaryOp::Not, parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::Tilde: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::BitNot,
                                           parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::Star: {
      advance();
      auto e =
          std::make_unique<UnaryExpr>(UnaryOp::Deref,
                                      parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::Amp: {
      advance();
      auto e = std::make_unique<UnaryExpr>(UnaryOp::AddrOf,
                                           parse_cast_expression());
      e->loc = loc;
      return e;
    }
    case TokenKind::KwSizeof: {
      advance();
      if (at(TokenKind::LParen) && looks_like_type(1)) {
        advance();
        TypePtr type = parse_type_name();
        expect(TokenKind::RParen, "to close sizeof");
        auto e = std::make_unique<SizeofExpr>(std::move(type), nullptr);
        e->loc = loc;
        return e;
      }
      auto e = std::make_unique<SizeofExpr>(nullptr, parse_unary());
      e->loc = loc;
      return e;
    }
    default:
      return parse_postfix();
  }
}

ExprPtr Parser::parse_postfix() {
  ExprPtr e = parse_primary();
  for (;;) {
    const SourceLocation loc = peek().location();
    if (at(TokenKind::LBracket)) {
      advance();
      ExprPtr index = parse_expression();
      expect(TokenKind::RBracket, "to close subscript");
      auto n = std::make_unique<IndexExpr>(std::move(e), std::move(index));
      n->loc = loc;
      e = std::move(n);
      continue;
    }
    if (at(TokenKind::LParen)) {
      advance();
      std::vector<ExprPtr> args;
      if (!at(TokenKind::RParen)) {
        for (;;) {
          args.push_back(parse_assignment());
          if (!accept(TokenKind::Comma)) break;
        }
      }
      expect(TokenKind::RParen, "to close call");
      auto n = std::make_unique<CallExpr>(std::move(e), std::move(args));
      n->loc = loc;
      e = std::move(n);
      continue;
    }
    if (at(TokenKind::Dot) || at(TokenKind::Arrow)) {
      const bool arrow = advance().is(TokenKind::Arrow);
      const Token& member = expect(TokenKind::Identifier, "member name");
      auto n =
          std::make_unique<MemberExpr>(std::move(e), member.str(), arrow);
      n->loc = loc;
      e = std::move(n);
      continue;
    }
    if (at(TokenKind::PlusPlus)) {
      advance();
      auto n = std::make_unique<UnaryExpr>(UnaryOp::PostInc, std::move(e));
      n->loc = loc;
      e = std::move(n);
      continue;
    }
    if (at(TokenKind::MinusMinus)) {
      advance();
      auto n = std::make_unique<UnaryExpr>(UnaryOp::PostDec, std::move(e));
      n->loc = loc;
      e = std::move(n);
      continue;
    }
    return e;
  }
}

ExprPtr Parser::parse_primary() {
  const Token& t = peek();
  const SourceLocation loc = t.location();
  switch (t.kind) {
    case TokenKind::IntegerLiteral: {
      advance();
      auto e = std::make_unique<IntLiteralExpr>(
          std::strtoll(t.str().c_str(), nullptr, 0), t.str());
      e->loc = loc;
      return e;
    }
    case TokenKind::FloatLiteral: {
      advance();
      auto e = std::make_unique<FloatLiteralExpr>(
          std::strtod(t.str().c_str(), nullptr), t.str());
      e->loc = loc;
      return e;
    }
    case TokenKind::CharLiteral: {
      advance();
      auto e = std::make_unique<CharLiteralExpr>(t.str());
      e->loc = loc;
      return e;
    }
    case TokenKind::StringLiteral: {
      advance();
      std::string spelling = t.str();
      // Adjacent string literal concatenation.
      while (at(TokenKind::StringLiteral)) spelling += " " + advance().str();
      auto e = std::make_unique<StringLiteralExpr>(std::move(spelling));
      e->loc = loc;
      return e;
    }
    case TokenKind::Identifier: {
      advance();
      auto e = std::make_unique<IdentExpr>(t.str());
      e->loc = loc;
      return e;
    }
    case TokenKind::LParen: {
      advance();
      ExprPtr e = parse_expression();
      expect(TokenKind::RParen, "to close parenthesized expression");
      return e;
    }
    default:
      error_here("expected expression, found '" + t.str() + "'");
      throw ParseError{};
  }
}

TranslationUnit parse(const SourceBuffer& buffer, DiagnosticEngine& diags) {
  Parser parser(lex(buffer, diags), diags);
  TranslationUnit tu = parser.parse_translation_unit();
  tu.source_name = buffer.name();
  return tu;
}

}  // namespace purec
