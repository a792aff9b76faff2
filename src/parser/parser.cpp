#include "parser/parser.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>

#include "obs/trace.h"

namespace jst {
namespace {

// Tokens lexed per window refill: the window's steady size.
constexpr std::size_t kWindowChunk = 256;

// Operator roles by token id: the Pratt tables of the expression parser.
struct OpInfo {
  // Binary precedence, higher binds tighter; 0 = not a binary operator.
  // Mirrors the ES spec's MultiplicativeExpression..RelationalExpression
  // ladder; && / || / ?? sit here too and build LogicalExpression nodes.
  std::int8_t precedence = 0;
  bool logical = false;
  bool assignment = false;
  bool unary = false;   // prefix ! ~ + - typeof void delete
  bool update = false;  // prefix/postfix ++ --
};

constexpr std::array<OpInfo, kTokenIdCount> kOps = [] {
  using enum TokenId;
  std::array<OpInfo, kTokenIdCount> ops{};
  const auto at = [&ops](TokenId id) -> OpInfo& {
    return ops[static_cast<std::size_t>(id)];
  };
  const auto binary = [&at](std::int8_t precedence,
                            std::initializer_list<TokenId> ids) {
    for (const TokenId id : ids) at(id).precedence = precedence;
  };
  binary(1, {kNullish});
  binary(2, {kOr});
  binary(3, {kAnd});
  binary(4, {kPipe});
  binary(5, {kCaret});
  binary(6, {kAmp});
  binary(7, {kEq, kNe, kStrictEq, kStrictNe});
  binary(8, {kLt, kGt, kLe, kGe, kIn, kInstanceof});
  binary(9, {kShl, kShr, kUshr});
  binary(10, {kPlus, kMinus});
  binary(11, {kStar, kSlash, kPercent});
  binary(12, {kExp});
  for (const TokenId id : {kAnd, kOr, kNullish}) at(id).logical = true;
  for (const TokenId id :
       {kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign,
        kPercentAssign, kShlAssign, kShrAssign, kUshrAssign, kAmpAssign,
        kPipeAssign, kCaretAssign, kExpAssign, kAndAssign, kOrAssign,
        kNullishAssign}) {
    at(id).assignment = true;
  }
  for (const TokenId id : {kNot, kTilde, kPlus, kMinus, kTypeof, kVoid,
                           kDelete}) {
    at(id).unary = true;
  }
  at(kInc).update = true;
  at(kDec).update = true;
  return ops;
}();

const OpInfo& op_info(TokenId id) { return kOps[static_cast<std::size_t>(id)]; }

// Tokens after which `yield` takes no argument.
bool ends_yield_argument(const Token& token) {
  // A middle or tail closes the substitution `yield` ends.
  if (token.type == TokenType::kTemplate) return !opens_template(token);
  switch (token.id) {
    case TokenId::kRParen: case TokenId::kRBracket: case TokenId::kRBrace:
    case TokenId::kComma: case TokenId::kSemicolon: case TokenId::kColon:
      return true;
    default:
      return false;
  }
}

// Tokens that make a preceding `await` an AwaitExpression.
bool starts_await_operand(const Token& token) {
  switch (token.type) {
    case TokenType::kIdentifier: case TokenType::kNumericLiteral:
    case TokenType::kStringLiteral:
    case TokenType::kBooleanLiteral: case TokenType::kNullLiteral:
      return true;
    case TokenType::kTemplate:
      return opens_template(token);
    default:
      break;
  }
  switch (token.id) {
    case TokenId::kLParen: case TokenId::kLBracket: case TokenId::kThis:
    case TokenId::kNew: case TokenId::kFunction: case TokenId::kTypeof:
    case TokenId::kNot:
      return true;
    default:
      return false;
  }
}

}  // namespace

// RAII nesting-depth guard (see Parser::kMaxNestingDepth). The budget's
// configurable depth ceiling is checked first so it trips as a structured
// BudgetExceeded before the hard recursion guard's ParseError.
struct ParserDepthGuard {
  explicit ParserDepthGuard(Parser& parser) : parser_(parser) {
    ++parser_.nesting_depth_;
    if (parser_.budget_ != nullptr) {
      parser_.budget_->check_depth(
          static_cast<std::size_t>(parser_.nesting_depth_));
    }
    if (parser_.nesting_depth_ > Parser::kMaxNestingDepth) {
      parser_.fail("nesting depth exceeded");
    }
  }
  ~ParserDepthGuard() { --parser_.nesting_depth_; }
  Parser& parser_;
};

ParseResult parse_program(std::string_view source, Budget* budget,
                          support::Arena* arena, support::AtomTable* atoms,
                          TokenWindow* window) {
  // Pooled contract: the caller's arena is rewound for this script; any
  // previous ParseResult built in it is dead from here on. The pooled
  // atom table is cleared in the same breath — its views alias the arena.
  check_lexable_size(source.size());  // before copying a source this large
  if (arena != nullptr) arena->reset();
  if (atoms != nullptr) atoms->clear();
  ParseResult result{arena != nullptr ? Ast(arena, atoms) : Ast()};
  support::Arena& frontend_arena = result.ast.arena();
  // Copy the script into the arena so token/node views never dangle on
  // the caller's buffer (one memcpy; reclaimed by the pooled reset).
  const std::string_view stable_source = frontend_arena.alloc_string(source);

  JST_SPAN("parse");
  Lexer lexer(stable_source, frontend_arena, budget);
  result.ast.set_budget(budget);
  try {
    Parser parser(lexer, window, result.ast, budget);
    Node* root = parser.parse_program_body();
    result.ast.set_root(root);
    result.ast.finalize();
    result.token_stats = parser.token_stats();
  } catch (...) {
    result.ast.set_budget(nullptr);
    throw;
  }
  // The Ast outlives the per-script budget; never let the pointer escape.
  result.ast.set_budget(nullptr);
  result.comment_count = lexer.comment_count();
  result.comment_bytes = lexer.comment_bytes();
  result.source_bytes = source.size();
  result.source_lines = lexer.line();
  return result;
}

bool parses(std::string_view source) {
  try {
    parse_program(source);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

Parser::Parser(std::span<const Token> tokens, Ast& ast, Budget* budget)
    : tokens_(tokens), window_(&owned_window_), ast_(ast), budget_(budget) {
  if (tokens_.empty()) return;
  // The input ends where its last token does.
  const std::string_view last = tokens_.back().raw;
  const std::size_t newline = last.rfind('\n');
  eof_token_.line = tokens_.back().line +
                    static_cast<std::uint32_t>(
                        std::count(last.begin(), last.end(), '\n'));
  eof_token_.column = static_cast<std::uint32_t>(
      newline == std::string_view::npos ? tokens_.back().column + last.size()
                                        : last.size() - newline - 1);
}

Parser::Parser(Lexer& lexer, TokenWindow* window, Ast& ast, Budget* budget)
    : lexer_(&lexer),
      lexer_done_(false),
      window_(window != nullptr ? window : &owned_window_),
      ast_(ast),
      budget_(budget) {
  if (budget_ != nullptr) budget_->set_stage("parse");
  window_->tokens.clear();
  window_->closers.clear();
  window_->open.clear();
}

bool Parser::pull(std::size_t position) {
  std::vector<Token>& buffer = window_->tokens;
  // Dropping the consumed tokens only once they are half the buffer
  // moves each kept token at most once per consumed one. Positions before
  // the current token are never read again, and a dropped bracket cannot
  // change where a later one closes.
  const std::size_t consumed = index_ - base_;
  if (consumed > 0 && consumed >= buffer.size() / 2) {
    std::vector<std::uint32_t>& closers = window_->closers;
    std::vector<std::uint32_t>& open = window_->open;
    buffer.erase(buffer.begin(), buffer.begin() + consumed);
    closers.erase(closers.begin(),
                  closers.begin() + std::min(consumed, closers.size()));
    open.erase(open.begin(), std::lower_bound(open.begin(), open.end(), index_));
    base_ = index_;
    scanned_ = std::max(scanned_, index_);
  }
  const std::size_t target =
      std::max(position + 1, base_ + buffer.size() + kWindowChunk);
  if (budget_ != nullptr) budget_->set_stage("lex");
  lexer_done_ = true;  // stays set if the lexer throws
  bool at_eof = false;
  while (!at_eof && base_ + buffer.size() < target) {
    const Token token = lexer_->next();
    at_eof = token.type == TokenType::kEndOfFile;
    if (at_eof) {
      eof_token_ = token;
    } else {
      stats_.add(token);
      buffer.push_back(token);
    }
  }
  lexer_done_ = at_eof;
  if (budget_ != nullptr) budget_->set_stage("parse");
  tokens_ = buffer;
  return position < base_ + buffer.size();
}

void Parser::drain_lexer() {
  if (lexer_done_) return;
  if (budget_ != nullptr) budget_->set_stage("lex");
  while (lexer_->next().type != TokenType::kEndOfFile) continue;
}

const Token& Parser::advance() {
  if (at_end()) fail("unexpected end of input");
  return tokens_[index_++ - base_];
}

bool Parser::match(TokenId id) {
  if (!check(id)) return false;
  advance();
  return true;
}

void Parser::expect(TokenId id) {
  if (match(id)) return;
  const std::string expected(token_id_text(id));
  if (is_keyword_id(id)) fail("expected keyword '" + expected + "'");
  fail("expected '" + expected + "' but found " + describe(current()));
}

std::string_view Parser::text(const Token& token) const {
  return token_value(token, ast_.arena());
}

std::string Parser::describe(const Token& token) const {
  if (token.type == TokenType::kEndOfFile) return "end of input";
  return "'" + std::string(text(token)) + "'";
}

void Parser::fail(const std::string& message) {
  const Token token = current();
  throw ParseError("parse error: " + message, token.line, token.column);
}

void Parser::consume_semicolon() {
  if (match(TokenId::kSemicolon)) return;
  // Automatic semicolon insertion: allowed before '}', at EOF, or when the
  // offending token sits on a new line.
  if (at_end() || check(TokenId::kRBrace) || current().newline_before) return;
  fail("expected ';' but found " + describe(current()));
}

bool Parser::is_arrow_ahead(std::size_t ahead) {
  if (!check(TokenId::kLParen, ahead)) return false;
  const std::size_t close = closer_of(index_ + ahead);
  return close != kNoClose && check(TokenId::kArrow, close + 1 - index_);
}

std::size_t Parser::closer_of(std::size_t open) {
  std::vector<std::uint32_t>& closers = window_->closers;
  std::vector<std::uint32_t>& stack = window_->open;
  while (scanned_ <= open || closers[open - base_] == kOpen) {
    if (scanned_ - base_ == tokens_.size() &&
        (lexer_done_ || !pull(scanned_))) {
      return kNoClose;  // end of input with `open` unclosed
    }
    // Token counts fit u32 (check_lexable_size).
    const auto position = static_cast<std::uint32_t>(scanned_++);
    std::uint32_t slot = kNoClose;
    switch (tokens_[position - base_].id) {
      case TokenId::kLParen: case TokenId::kLBracket: case TokenId::kLBrace:
        slot = kOpen;
        stack.push_back(position);
        break;
      case TokenId::kRParen: case TokenId::kRBracket: case TokenId::kRBrace:
        if (!stack.empty()) {
          closers[stack.back() - base_] = position;
          stack.pop_back();
        }
        break;
      default:
        break;
    }
    closers.push_back(slot);
  }
  return closers[open - base_];
}

Node* Parser::parse_program_body() {
  try {
    Node* program = ast_.make(NodeKind::kProgram);
    program->line = current().line;  // 1 for an empty program
    while (!at_end()) {
      ast_.push_kid(program, parse_statement());
    }
    return program;
  } catch (const ParseError&) {
    drain_lexer();
    throw;
  } catch (const BudgetExceeded& error) {
    if (error.trip().kind != ResourceKind::kDeadline) drain_lexer();
    throw;
  }
}

Node* Parser::parse_statement() {
  ParserDepthGuard depth_guard(*this);
  const Token token = current();
  switch (token.id) {
    case TokenId::kLBrace:
      return parse_block();
    case TokenId::kSemicolon: {
      Node* node = ast_.make(NodeKind::kEmptyStatement);
      node->line = token.line;
      advance();
      return node;
    }
    case TokenId::kLet:
      if (!let_declaration_ahead()) break;
      [[fallthrough]];
    case TokenId::kVar:
    case TokenId::kConst: {
      Node* decl = parse_variable_declaration();
      consume_semicolon();
      return decl;
    }
    case TokenId::kIf: return parse_if();
    case TokenId::kFor: return parse_for();
    case TokenId::kWhile: return parse_while();
    case TokenId::kDo: return parse_do_while();
    case TokenId::kSwitch: return parse_switch();
    case TokenId::kTry: return parse_try();
    case TokenId::kReturn: return parse_return();
    case TokenId::kThrow: return parse_throw();
    case TokenId::kBreak: return parse_break_continue(true);
    case TokenId::kContinue: return parse_break_continue(false);
    case TokenId::kFunction:
      advance();
      return parse_function(/*is_declaration=*/true, /*is_async=*/false);
    case TokenId::kClass: return parse_class(/*is_declaration=*/true);
    case TokenId::kDebugger: {
      Node* node = ast_.make(NodeKind::kDebuggerStatement);
      node->line = token.line;
      advance();
      consume_semicolon();
      return node;
    }
    case TokenId::kWith: return parse_with();
    case TokenId::kAsync:
      // `async function` declaration.
      if (check(TokenId::kFunction, 1) && !peek(1).newline_before) {
        advance();
        advance();
        return parse_function(/*is_declaration=*/true, /*is_async=*/true);
      }
      break;
    default:
      break;
  }
  return parse_labeled_or_expression_statement();
}

Node* Parser::parse_block() {
  Node* block = ast_.make(NodeKind::kBlockStatement);
  block->line = current().line;
  expect(TokenId::kLBrace);
  while (!check(TokenId::kRBrace)) {
    if (at_end()) fail("unterminated block");
    ast_.push_kid(block, parse_statement());
  }
  expect(TokenId::kRBrace);
  return block;
}

Node* Parser::parse_variable_declaration() {
  Node* declaration = ast_.make(NodeKind::kVariableDeclaration);
  declaration->line = current().line;
  declaration->str_value = text(advance());  // var / let / const
  while (true) {
    Node* declarator = ast_.make(NodeKind::kVariableDeclarator);
    declarator->line = current().line;
    Node* target = parse_binding_target();
    Node* init = nullptr;
    if (match(TokenId::kAssign)) init = parse_assignment();
    ast_.set_kids(declarator, {target, init});
    ast_.push_kid(declaration, declarator);
    if (!match(TokenId::kComma)) break;
  }
  return declaration;
}

Node* Parser::parse_paren_expression() {
  expect(TokenId::kLParen);
  Node* expression = parse_expression();
  expect(TokenId::kRParen);
  return expression;
}

bool Parser::let_declaration_ahead() {
  return check(TokenId::kLet) &&
         (peek(1).type == TokenType::kIdentifier ||
          check(TokenId::kLBracket, 1) || check(TokenId::kLBrace, 1));
}

Node* Parser::parse_if() {
  Node* node = ast_.make(NodeKind::kIfStatement);
  node->line = current().line;
  expect(TokenId::kIf);
  Node* test = parse_paren_expression();
  Node* consequent = parse_statement();
  Node* alternate = nullptr;
  if (match(TokenId::kElse)) alternate = parse_statement();
  ast_.set_kids(node, {test, consequent, alternate});
  return node;
}

Node* Parser::parse_for() {
  const std::size_t line = current().line;
  expect(TokenId::kFor);
  expect(TokenId::kLParen);

  Node* init = nullptr;
  if (check(TokenId::kSemicolon)) {
    advance();
  } else {
    if (check(TokenId::kVar) || check(TokenId::kConst) ||
        let_declaration_ahead()) {
      init = parse_variable_declaration();
    } else {
      init = parse_expression();
    }
    if (check(TokenId::kIn) || check(TokenId::kOf)) {
      const bool is_of = check(TokenId::kOf);
      advance();
      Node* node = ast_.make(is_of ? NodeKind::kForOfStatement
                                   : NodeKind::kForInStatement);
      node->line = line;
      Node* right = parse_assignment();
      expect(TokenId::kRParen);
      Node* body = parse_statement();
      ast_.set_kids(node, {init, right, body});
      return node;
    }
    // `for (a in b)` with an expression head: the `in` was consumed as a
    // binary operator by parse_expression; unfold it back.
    if (init != nullptr && init->kind == NodeKind::kBinaryExpression &&
        init->str_value == "in" && check(TokenId::kRParen)) {
      Node* node = ast_.make(NodeKind::kForInStatement);
      node->line = line;
      advance();  // ')'
      Node* body = parse_statement();
      ast_.set_kids(node, {init->kids[0], init->kids[1], body});
      return node;
    }
    expect(TokenId::kSemicolon);
  }

  Node* node = ast_.make(NodeKind::kForStatement);
  node->line = line;
  Node* test = nullptr;
  if (!check(TokenId::kSemicolon)) test = parse_expression();
  expect(TokenId::kSemicolon);
  Node* update = nullptr;
  if (!check(TokenId::kRParen)) update = parse_expression();
  expect(TokenId::kRParen);
  Node* body = parse_statement();
  ast_.set_kids(node, {init, test, update, body});
  return node;
}

Node* Parser::parse_while() {
  Node* node = ast_.make(NodeKind::kWhileStatement);
  node->line = current().line;
  expect(TokenId::kWhile);
  Node* test = parse_paren_expression();
  Node* body = parse_statement();
  ast_.set_kids(node, {test, body});
  return node;
}

Node* Parser::parse_do_while() {
  Node* node = ast_.make(NodeKind::kDoWhileStatement);
  node->line = current().line;
  expect(TokenId::kDo);
  Node* body = parse_statement();
  expect(TokenId::kWhile);
  Node* test = parse_paren_expression();
  match(TokenId::kSemicolon);  // optional
  ast_.set_kids(node, {body, test});
  return node;
}

Node* Parser::parse_switch() {
  Node* node = ast_.make(NodeKind::kSwitchStatement);
  node->line = current().line;
  expect(TokenId::kSwitch);
  ast_.push_kid(node, parse_paren_expression());
  expect(TokenId::kLBrace);
  while (!check(TokenId::kRBrace)) {
    if (at_end()) fail("unterminated switch body");
    Node* switch_case = ast_.make(NodeKind::kSwitchCase);
    switch_case->line = current().line;
    Node* test = nullptr;
    if (match(TokenId::kCase)) {
      test = parse_expression();
    } else {
      expect(TokenId::kDefault);
    }
    expect(TokenId::kColon);
    ast_.push_kid(switch_case, test);
    while (!check(TokenId::kRBrace) && !check(TokenId::kCase) &&
           !check(TokenId::kDefault)) {
      if (at_end()) fail("unterminated switch case");
      ast_.push_kid(switch_case, parse_statement());
    }
    ast_.push_kid(node, switch_case);
  }
  expect(TokenId::kRBrace);
  return node;
}

Node* Parser::parse_try() {
  Node* node = ast_.make(NodeKind::kTryStatement);
  node->line = current().line;
  expect(TokenId::kTry);
  Node* block = parse_block();
  Node* handler = nullptr;
  Node* finalizer = nullptr;
  if (match(TokenId::kCatch)) {
    handler = ast_.make(NodeKind::kCatchClause);
    handler->line = current().line;
    Node* param = nullptr;
    if (match(TokenId::kLParen)) {
      param = parse_binding_target();
      expect(TokenId::kRParen);
    }
    Node* body = parse_block();
    ast_.set_kids(handler, {param, body});
  }
  if (match(TokenId::kFinally)) finalizer = parse_block();
  if (handler == nullptr && finalizer == nullptr) {
    fail("try statement requires catch or finally");
  }
  ast_.set_kids(node, {block, handler, finalizer});
  return node;
}

Node* Parser::parse_return() {
  Node* node = ast_.make(NodeKind::kReturnStatement);
  node->line = current().line;
  expect(TokenId::kReturn);
  Node* argument = nullptr;
  if (!check(TokenId::kSemicolon) && !check(TokenId::kRBrace) && !at_end() &&
      !current().newline_before) {
    argument = parse_expression();
  }
  consume_semicolon();
  ast_.set_kids(node, {argument});
  return node;
}

Node* Parser::parse_throw() {
  Node* node = ast_.make(NodeKind::kThrowStatement);
  node->line = current().line;
  expect(TokenId::kThrow);
  if (current().newline_before) fail("newline after throw");
  ast_.set_kids(node, {parse_expression()});
  consume_semicolon();
  return node;
}

Node* Parser::parse_break_continue(bool is_break) {
  Node* node = ast_.make(is_break ? NodeKind::kBreakStatement
                                  : NodeKind::kContinueStatement);
  node->line = current().line;
  advance();
  Node* label = nullptr;
  if (current().type == TokenType::kIdentifier && !current().newline_before) {
    label = ast_.make_identifier(text(advance()));
  }
  consume_semicolon();
  ast_.set_kids(node, {label});
  return node;
}

Node* Parser::parse_labeled_or_expression_statement() {
  if (current().type == TokenType::kIdentifier && check(TokenId::kColon, 1)) {
    Node* node = ast_.make(NodeKind::kLabeledStatement);
    node->line = current().line;
    Node* label = ast_.make_identifier(text(advance()));
    label->line = node->line;
    advance();  // ':'
    Node* body = parse_statement();
    ast_.set_kids(node, {label, body});
    return node;
  }
  Node* node = ast_.make(NodeKind::kExpressionStatement);
  node->line = current().line;
  ast_.set_kids(node, {parse_expression()});
  consume_semicolon();
  return node;
}

Node* Parser::parse_with() {
  Node* node = ast_.make(NodeKind::kWithStatement);
  node->line = current().line;
  expect(TokenId::kWith);
  Node* object = parse_paren_expression();
  Node* body = parse_statement();
  ast_.set_kids(node, {object, body});
  return node;
}

Node* Parser::parse_function(bool is_declaration, bool is_async) {
  Node* node = ast_.make(is_declaration ? NodeKind::kFunctionDeclaration
                                        : NodeKind::kFunctionExpression);
  node->line = current().line;
  node->flag_c = is_async;
  if (match(TokenId::kStar)) node->flag_b = true;  // generator
  Node* id = nullptr;
  if (current().type == TokenType::kIdentifier) {
    id = ast_.make_identifier(text(advance()));
  } else if (is_declaration) {
    fail("function declaration requires a name");
  }
  ast_.set_kids(node, {id, nullptr});  // body filled below
  return parse_function_rest(node);
}

Node* Parser::parse_function_rest(Node* function_node) {
  ++function_depth_;
  std::vector<Node*> params = parse_params();
  Node* body = parse_block();
  --function_depth_;
  function_node->kids[1] = body;
  for (Node* param : params) ast_.push_kid(function_node, param);
  return function_node;
}

Node* Parser::parse_method(std::uint32_t line, bool is_generator,
                           bool is_async) {
  Node* function = ast_.make(NodeKind::kFunctionExpression);
  function->line = line;
  function->flag_b = is_generator;
  function->flag_c = is_async;
  ast_.set_kids(function, {nullptr, nullptr});
  return parse_function_rest(function);
}

std::vector<Node*> Parser::parse_params() {
  expect(TokenId::kLParen);
  std::vector<Node*> params;
  while (!check(TokenId::kRParen)) {
    if (at_end()) fail("unterminated parameter list");
    if (match(TokenId::kEllipsis)) {
      Node* rest = ast_.make(NodeKind::kRestElement);
      rest->line = current().line;
      ast_.set_kids(rest, {parse_binding_target()});
      params.push_back(rest);
    } else {
      params.push_back(parse_binding_element());
    }
    if (!match(TokenId::kComma)) break;
  }
  expect(TokenId::kRParen);
  return params;
}

Node* Parser::parse_binding_element() {
  Node* target = parse_binding_target();
  if (match(TokenId::kAssign)) {
    Node* pattern = ast_.make(NodeKind::kAssignmentPattern);
    pattern->line = target->line;
    ast_.set_kids(pattern, {target, parse_assignment()});
    return pattern;
  }
  return target;
}

Node* Parser::parse_binding_target() {
  if (check(TokenId::kLBracket)) {
    Node* pattern = ast_.make(NodeKind::kArrayPattern);
    pattern->line = current().line;
    advance();
    while (!check(TokenId::kRBracket)) {
      if (at_end()) fail("unterminated array pattern");
      if (check(TokenId::kComma)) {
        ast_.push_kid(pattern, nullptr);  // hole
        advance();
        continue;
      }
      if (match(TokenId::kEllipsis)) {
        Node* rest = ast_.make(NodeKind::kRestElement);
        ast_.set_kids(rest, {parse_binding_target()});
        ast_.push_kid(pattern, rest);
      } else {
        ast_.push_kid(pattern, parse_binding_element());
      }
      if (!check(TokenId::kRBracket)) expect(TokenId::kComma);
    }
    expect(TokenId::kRBracket);
    return pattern;
  }
  if (check(TokenId::kLBrace)) {
    Node* pattern = ast_.make(NodeKind::kObjectPattern);
    pattern->line = current().line;
    advance();
    while (!check(TokenId::kRBrace)) {
      if (at_end()) fail("unterminated object pattern");
      if (match(TokenId::kEllipsis)) {
        Node* rest = ast_.make(NodeKind::kRestElement);
        ast_.set_kids(rest, {parse_binding_target()});
        ast_.push_kid(pattern, rest);
      } else {
        Node* property = ast_.make(NodeKind::kProperty);
        property->line = current().line;
        property->str_value = "init";
        bool computed = false;
        Node* key = parse_property_key(&computed);
        property->flag_a = computed;
        Node* value =
            match(TokenId::kColon)
                ? parse_binding_element()
                : parse_shorthand_value(
                      property, key,
                      "shorthand pattern property must be an identifier");
        ast_.set_kids(property, {key, value});
        ast_.push_kid(pattern, property);
      }
      if (!check(TokenId::kRBrace)) expect(TokenId::kComma);
    }
    expect(TokenId::kRBrace);
    return pattern;
  }
  if (current().type == TokenType::kIdentifier ||
      check(TokenId::kYield)) {  // sloppy-mode binding names
    return ast_.make_identifier(text(advance()));
  }
  fail("expected binding target");
}

Node* Parser::parse_class(bool is_declaration) {
  Node* node = ast_.make(is_declaration ? NodeKind::kClassDeclaration
                                        : NodeKind::kClassExpression);
  node->line = current().line;
  expect(TokenId::kClass);
  Node* id = nullptr;
  if (current().type == TokenType::kIdentifier) {
    id = ast_.make_identifier(text(advance()));
  } else if (is_declaration) {
    fail("class declaration requires a name");
  }
  Node* super_class = nullptr;
  if (match(TokenId::kExtends)) {
    super_class = parse_postfix();
  }
  Node* body = ast_.make(NodeKind::kClassBody);
  body->line = current().line;
  expect(TokenId::kLBrace);
  while (!check(TokenId::kRBrace)) {
    if (at_end()) fail("unterminated class body");
    if (match(TokenId::kSemicolon)) continue;
    Node* method = ast_.make(NodeKind::kMethodDefinition);
    method->line = current().line;
    if (check(TokenId::kStatic) && !check(TokenId::kLParen, 1) &&
        !check(TokenId::kAssign, 1)) {
      advance();
      method->flag_b = true;
    }
    bool is_async = false;
    bool is_generator = false;
    // View-safe: every candidate value has static storage.
    std::string_view method_kind = "method";
    if (check(TokenId::kAsync) && !check(TokenId::kLParen, 1) &&
        !peek(1).newline_before) {
      advance();
      is_async = true;
    }
    if (match(TokenId::kStar)) is_generator = true;
    if ((check(TokenId::kGet) || check(TokenId::kSet)) &&
        !check(TokenId::kLParen, 1)) {
      method_kind = text(advance());
    }
    bool computed = false;
    Node* key = parse_property_key(&computed);
    method->flag_a = computed;
    if (method_kind == "method" && key->kind == NodeKind::kIdentifier &&
        key->str_value == "constructor" && !method->flag_b) {
      method_kind = "constructor";
    }
    method->str_value = method_kind;
    ast_.set_kids(method,
                  {key, parse_method(method->line, is_generator, is_async)});
    ast_.push_kid(body, method);
  }
  expect(TokenId::kRBrace);
  ast_.set_kids(node, {id, super_class, body});
  return node;
}

Node* Parser::parse_expression() {
  Node* first = parse_assignment();
  if (!check(TokenId::kComma)) return first;
  Node* sequence = ast_.make(NodeKind::kSequenceExpression);
  sequence->line = first->line;
  ast_.push_kid(sequence, first);
  while (match(TokenId::kComma)) {
    ast_.push_kid(sequence, parse_assignment());
  }
  return sequence;
}

Node* Parser::parse_assignment() {
  ParserDepthGuard depth_guard(*this);
  // Arrow functions: ident => ... | (params) => ... | async forms.
  if (current().type == TokenType::kIdentifier && check(TokenId::kArrow, 1) &&
      !peek(1).newline_before) {
    Node* param = ast_.make_identifier(text(advance()));
    advance();  // '=>'
    return parse_arrow_tail({param}, /*is_async=*/false);
  }
  const bool is_async = check(TokenId::kAsync) && !peek(1).newline_before;
  if (is_async && peek(1).type == TokenType::kIdentifier &&
      check(TokenId::kArrow, 2)) {
    advance();  // async
    Node* param = ast_.make_identifier(text(advance()));
    advance();  // '=>'
    return parse_arrow_tail({param}, /*is_async=*/true);
  }
  if (is_arrow_ahead(is_async ? 1 : 0)) {
    if (is_async) advance();
    std::vector<Node*> params = parse_params();
    expect(TokenId::kArrow);
    return parse_arrow_tail(std::move(params), is_async);
  }
  if (check(TokenId::kYield)) {
    Node* node = ast_.make(NodeKind::kYieldExpression);
    node->line = current().line;
    advance();
    if (match(TokenId::kStar)) node->flag_a = true;
    Node* argument = nullptr;
    if (!at_end() && !current().newline_before &&
        !ends_yield_argument(current())) {
      argument = parse_assignment();
    }
    ast_.set_kids(node, {argument});
    return node;
  }

  Node* left = parse_conditional();
  if (op_info(current().id).assignment) {
    Node* node = ast_.make(NodeKind::kAssignmentExpression);
    node->line = left->line;
    node->str_value = text(advance());
    Node* right = parse_assignment();
    ast_.set_kids(node, {left, right});
    return node;
  }
  return left;
}

Node* Parser::parse_arrow_tail(std::vector<Node*> params, bool is_async) {
  Node* node = ast_.make(NodeKind::kArrowFunctionExpression);
  node->line = current().line;
  node->flag_c = is_async;
  Node* body = nullptr;
  if (check(TokenId::kLBrace)) {
    ++function_depth_;
    body = parse_block();
    --function_depth_;
  } else {
    node->flag_a = true;  // expression body
    body = parse_assignment();
  }
  ast_.push_kid(node, body);
  for (Node* param : params) ast_.push_kid(node, param);
  return node;
}

Node* Parser::parse_conditional() {
  Node* test = parse_binary(0);
  if (!match(TokenId::kQuestion)) return test;
  Node* node = ast_.make(NodeKind::kConditionalExpression);
  node->line = test->line;
  Node* consequent = parse_assignment();
  expect(TokenId::kColon);
  Node* alternate = parse_assignment();
  ast_.set_kids(node, {test, consequent, alternate});
  return node;
}

Node* Parser::parse_binary(int min_precedence) {
  Node* left = parse_unary();
  while (true) {
    const OpInfo& op = op_info(current().id);
    if (op.precedence == 0 || op.precedence < min_precedence) break;
    const TokenId id = advance().id;
    // '**' is right-associative; everything else left-associative.
    const int next_min =
        id == TokenId::kExp ? op.precedence : op.precedence + 1;
    Node* right = parse_binary(next_min);
    Node* node = ast_.make(op.logical ? NodeKind::kLogicalExpression
                                      : NodeKind::kBinaryExpression);
    node->line = left->line;
    node->str_value = token_id_text(id);
    ast_.set_kids(node, {left, right});
    left = node;
  }
  return left;
}

Node* Parser::parse_unary() {
  ParserDepthGuard depth_guard(*this);
  const Token token = current();
  const OpInfo& op = op_info(token.id);
  if (op.unary || op.update) {
    Node* node = ast_.make(op.unary ? NodeKind::kUnaryExpression
                                    : NodeKind::kUpdateExpression);
    node->line = token.line;
    node->str_value = token_id_text(advance().id);
    node->flag_a = true;  // prefix
    ast_.set_kids(node, {parse_unary()});
    return node;
  }
  if (check(TokenId::kAwait) && !peek(1).newline_before &&
      starts_await_operand(peek(1))) {
    Node* node = ast_.make(NodeKind::kAwaitExpression);
    node->line = token.line;
    advance();
    ast_.set_kids(node, {parse_unary()});
    return node;
  }
  return parse_postfix();
}

Node* Parser::parse_postfix() {
  Node* base = check(TokenId::kNew) ? parse_new() : parse_primary();
  Node* expression = parse_call_member(base, /*allow_call=*/true);
  if (op_info(current().id).update && !current().newline_before) {
    Node* node = ast_.make(NodeKind::kUpdateExpression);
    node->line = expression->line;
    node->str_value = token_id_text(advance().id);
    node->flag_a = false;  // postfix
    ast_.set_kids(node, {expression});
    return node;
  }
  return expression;
}

Node* Parser::parse_new() {
  const std::size_t line = current().line;
  expect(TokenId::kNew);
  Node* callee = nullptr;
  if (check(TokenId::kNew)) {
    callee = parse_new();
  } else {
    callee = parse_primary();
    callee = parse_call_member(callee, /*allow_call=*/false);
  }
  Node* node = ast_.make(NodeKind::kNewExpression);
  node->line = line;
  ast_.set_kids(node, {callee});
  if (match(TokenId::kLParen)) parse_arguments(node);
  return parse_call_member(node, /*allow_call=*/true);
}

void Parser::parse_arguments(Node* call) {
  while (!check(TokenId::kRParen)) {
    if (at_end()) fail("unterminated argument list");
    if (match(TokenId::kEllipsis)) {
      Node* spread = ast_.make(NodeKind::kSpreadElement);
      ast_.set_kids(spread, {parse_assignment()});
      ast_.push_kid(call, spread);
    } else {
      ast_.push_kid(call, parse_assignment());
    }
    if (!match(TokenId::kComma)) break;
  }
  expect(TokenId::kRParen);
}

Node* Parser::parse_call_member(Node* base, bool allow_call) {
  while (true) {
    // Optional chaining `?.` is modeled as a (non-optional) member/call —
    // the syntactic trace (MemberExpression/CallExpression) is what
    // matters. After `?.`, a name needs no '.' of its own.
    bool chained = false;
    if (match(TokenId::kOptional)) {
      chained = true;
      if (check(TokenId::kLParen) && !allow_call) break;
    }
    if (check(TokenId::kLBracket)) {
      advance();
      Node* node = ast_.make(NodeKind::kMemberExpression);
      node->line = base->line;
      node->flag_a = true;  // bracket (computed) notation
      Node* property = parse_expression();
      expect(TokenId::kRBracket);
      ast_.set_kids(node, {base, property});
      base = node;
    } else if (allow_call && check(TokenId::kLParen)) {
      advance();
      Node* node = ast_.make(NodeKind::kCallExpression);
      node->line = base->line;
      ast_.set_kids(node, {base});
      parse_arguments(node);
      base = node;
    } else if (chained || match(TokenId::kDot)) {
      Node* node = ast_.make(NodeKind::kMemberExpression);
      node->line = base->line;
      const Token name = current();
      if (!chained && name.type != TokenType::kIdentifier &&
          name.type != TokenType::kKeyword &&
          name.type != TokenType::kBooleanLiteral &&
          name.type != TokenType::kNullLiteral) {
        fail("expected property name after '.'");
      }
      Node* property = ast_.make_identifier(text(advance()));
      node->flag_a = false;  // dot notation
      ast_.set_kids(node, {base, property});
      base = node;
    } else if (current().type == TokenType::kTemplate &&
               opens_template(current())) {
      // Tagged template.
      Node* node = ast_.make(NodeKind::kTaggedTemplateExpression);
      node->line = base->line;
      Node* quasi = parse_template_literal();
      ast_.set_kids(node, {base, quasi});
      base = node;
    } else {
      break;
    }
  }
  return base;
}

Node* Parser::parse_template_literal() {
  Node* node = ast_.make(NodeKind::kTemplateLiteral);
  node->line = current().line;
  // Interleave quasis and substitution expressions: quasi0, expr0,
  // quasi1, ..., quasiN. Each expression is parsed in place, so nested
  // templates recurse through the ordinary depth guards.
  while (true) {
    const Token token = advance();
    Node* quasi = ast_.make(NodeKind::kTemplateElement);
    quasi->line = token.line;
    quasi->str_value = template_text(token);
    ast_.push_kid(node, quasi);
    if (closes_template(token)) return node;
    ast_.push_kid(node, parse_expression());
    if (current().type != TokenType::kTemplate || opens_template(current())) {
      fail("trailing tokens in template substitution");
    }
  }
}

Node* Parser::parse_array_literal() {
  Node* node = ast_.make(NodeKind::kArrayExpression);
  node->line = current().line;
  expect(TokenId::kLBracket);
  while (!check(TokenId::kRBracket)) {
    if (at_end()) fail("unterminated array literal");
    if (check(TokenId::kComma)) {
      ast_.push_kid(node, nullptr);  // elision
      advance();
      continue;
    }
    if (match(TokenId::kEllipsis)) {
      Node* spread = ast_.make(NodeKind::kSpreadElement);
      spread->line = current().line;
      ast_.set_kids(spread, {parse_assignment()});
      ast_.push_kid(node, spread);
    } else {
      ast_.push_kid(node, parse_assignment());
    }
    if (!check(TokenId::kRBracket)) expect(TokenId::kComma);
  }
  expect(TokenId::kRBracket);
  return node;
}

Node* Parser::parse_property_key(bool* computed) {
  *computed = false;
  const Token token = current();
  if (check(TokenId::kLBracket)) {
    *computed = true;
    advance();
    Node* key = parse_assignment();
    expect(TokenId::kRBracket);
    return key;
  }
  Node* key = nullptr;
  switch (token.type) {
    case TokenType::kStringLiteral:
      key = ast_.make_string(text(token));
      break;
    case TokenType::kNumericLiteral:
      key = ast_.make_number(numeric_value(token));
      key->str_value = token.raw;
      break;
    case TokenType::kIdentifier:
    case TokenType::kKeyword:
    case TokenType::kBooleanLiteral:
    case TokenType::kNullLiteral:
      key = ast_.make_identifier(text(token));
      break;
    default:
      fail("expected property key");
  }
  key->line = token.line;
  advance();
  return key;
}

Node* Parser::parse_object_property() {
  Node* property = ast_.make(NodeKind::kProperty);
  property->line = current().line;
  property->str_value = "init";
  // True when the token after a get/set/async prefix ends a plain
  // property, so the prefix is itself the key.
  const auto prefix_is_key = [this] {
    return check(TokenId::kColon, 1) || check(TokenId::kLParen, 1) ||
           check(TokenId::kComma, 1) || check(TokenId::kRBrace, 1);
  };

  // Getter/setter: get/set followed by a key (not ':'/'('/','/'}').
  if ((check(TokenId::kGet) || check(TokenId::kSet)) && !prefix_is_key() &&
      !check(TokenId::kAssign, 1)) {
    property->str_value = text(advance());
    bool computed = false;
    Node* key = parse_property_key(&computed);
    property->flag_a = computed;
    ast_.set_kids(property, {key, parse_method(property->line, false, false)});
    return property;
  }

  bool is_async = false;
  bool is_generator = false;
  if (check(TokenId::kAsync) && !prefix_is_key() && !peek(1).newline_before) {
    advance();
    is_async = true;
  }
  if (match(TokenId::kStar)) is_generator = true;

  bool computed = false;
  Node* key = parse_property_key(&computed);
  property->flag_a = computed;

  if (check(TokenId::kLParen)) {  // method shorthand
    ast_.set_kids(property,
                  {key, parse_method(property->line, is_generator, is_async)});
    return property;
  }
  if (is_async || is_generator) fail("expected method body");

  if (match(TokenId::kColon)) {
    ast_.set_kids(property, {key, parse_assignment()});
    return property;
  }
  // Shorthand property {a} or {a = default} (the latter only valid in
  // patterns, accepted here for simplicity).
  ast_.set_kids(property,
                {key, parse_shorthand_value(property, key,
                                            "expected ':' after key")});
  return property;
}

Node* Parser::parse_shorthand_value(Node* property, Node* key,
                                    const char* not_identifier) {
  if (key->kind != NodeKind::kIdentifier) fail(not_identifier);
  property->flag_b = true;
  Node* value = ast_.make_identifier(key->str_value);
  value->line = key->line;
  if (match(TokenId::kAssign)) {
    Node* with_default = ast_.make(NodeKind::kAssignmentPattern);
    ast_.set_kids(with_default, {value, parse_assignment()});
    value = with_default;
  }
  return value;
}

Node* Parser::parse_object_literal() {
  Node* node = ast_.make(NodeKind::kObjectExpression);
  node->line = current().line;
  expect(TokenId::kLBrace);
  while (!check(TokenId::kRBrace)) {
    if (at_end()) fail("unterminated object literal");
    if (match(TokenId::kEllipsis)) {
      Node* spread = ast_.make(NodeKind::kSpreadElement);
      spread->line = current().line;
      ast_.set_kids(spread, {parse_assignment()});
      ast_.push_kid(node, spread);
    } else {
      ast_.push_kid(node, parse_object_property());
    }
    if (!check(TokenId::kRBrace)) expect(TokenId::kComma);
  }
  expect(TokenId::kRBrace);
  return node;
}

Node* Parser::parse_primary() {
  const Token token = current();
  Node* node = nullptr;
  switch (token.type) {
    case TokenType::kNumericLiteral:
      node = ast_.make_number(numeric_value(token));
      node->str_value = token.raw;
      break;
    case TokenType::kStringLiteral:
      node = ast_.make_string(text(token));
      break;
    case TokenType::kBooleanLiteral:
      node = ast_.make_bool(token.id == TokenId::kTrue);
      break;
    case TokenType::kNullLiteral:
      node = ast_.make_null();
      break;
    case TokenType::kRegularExpression:
      // The raw slice after the opening slash is "pattern/flags" already.
      node = ast_.make(NodeKind::kLiteral);
      node->lit_kind = LiteralKind::kRegExp;
      node->str_value = token.raw.substr(1);
      break;
    case TokenType::kTemplate:
      // A middle or tail here closes a substitution with no expression.
      if (!opens_template(token)) fail("unexpected token");
      return parse_template_literal();
    case TokenType::kIdentifier:
      node = ast_.make_identifier(text(token));
      break;
    case TokenType::kKeyword:
      switch (token.id) {
        case TokenId::kThis:
          node = ast_.make(NodeKind::kThisExpression);
          break;
        case TokenId::kSuper:
          node = ast_.make(NodeKind::kSuper);
          break;
        case TokenId::kFunction:
          advance();
          return parse_function(/*is_declaration=*/false, /*is_async=*/false);
        case TokenId::kClass:
          return parse_class(/*is_declaration=*/false);
        case TokenId::kNew:
          return parse_new();
        default:
          fail("unexpected keyword '" + std::string(text(token)) +
               "' in expression");
      }
      break;
    case TokenType::kPunctuator:
      switch (token.id) {
        case TokenId::kLParen: {
          advance();
          Node* expression = parse_expression();
          expect(TokenId::kRParen);
          return expression;
        }
        case TokenId::kLBracket: return parse_array_literal();
        case TokenId::kLBrace: return parse_object_literal();
        default:
          fail("unexpected token '" + std::string(text(token)) + "'");
      }
    default:  // the end of input
      fail("unexpected end of input");
  }
  node->line = token.line;
  advance();
  return node;
}

}  // namespace jst
