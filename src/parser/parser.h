// Recursive-descent JavaScript parser producing Esprima-style ASTs.
//
// Covers the ES2017 subset required by the paper's feature definitions and
// by all ten transformation techniques: every statement form (including
// with/labeled/debugger), var/let/const with destructuring, functions
// (declarations, expressions, arrows, async, generators), classes, template
// literals (including tagged), spread/rest, and the full expression grammar
// with correct precedence and automatic semicolon insertion.
//
// The parser dispatches on the u8 token ids the lexer assigns (DESIGN.md
// §16): constexpr operator tables give binary precedence, assignment,
// logical and prefix roles, and a bracket-match table built once per
// Parser answers the arrow-function lookahead in O(1). A template
// arrives as head/middle/tail tokens with each substitution's tokens in
// between, so its quasis come from those tokens and each substitution is
// parsed in place, through the same depth guards as any expression.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.h"
#include "lexer/lexer.h"
#include "support/arena.h"

namespace jst {

// Aggregates over the token stream, accumulated during lexing while the
// tokens are cache-hot. The hand-picked feature block consumes these
// four numbers instead of re-walking the (cold, string-heavy) token
// vector at feature time.
struct TokenStats {
  std::size_t count = 0;        // tokens in the stream (no EOF)
  std::size_t punctuators = 0;
  // Max (column + raw length) over tokens — a max-line-length proxy.
  std::size_t max_line_length = 0;
  // Sum of raw token lengths, accumulated in stream order as a double —
  // the exact order/type the feature assembly historically used, so the
  // derived features are bit-identical.
  double raw_bytes = 0.0;

  // Counts one token (never the EOF token), in stream order.
  void add(const Token& token) {
    ++count;
    if (token.type == TokenType::kPunctuator) ++punctuators;
    raw_bytes += static_cast<double>(token.raw.size());
    max_line_length = std::max(max_line_length,
                               token.column + token.raw.size());
  }
};

// Parse result: the AST, the token stream, and the lexical statistics the
// feature extractor needs (comment volume is erased from the AST but
// matters for minification detection).
struct ParseResult {
  Ast ast;
  // Full token stream (no EOF). Token payload views point into the Ast's
  // arena. For an unpooled parse the span is over `owned_tokens` and
  // lives as long as this result (a move keeps it valid: the vector's
  // buffer moves with it); for a pooled parse it is over the caller's
  // token buffer and is valid until the pool's next script.
  std::span<const Token> tokens{};
  TokenStats token_stats{};
  std::size_t comment_count = 0;
  std::size_t comment_bytes = 0;
  std::size_t source_bytes = 0;
  std::size_t source_lines = 0;
  // Token storage of an unpooled parse; empty when the tokens live in a
  // caller's buffer.
  std::vector<Token> owned_tokens{};
};

// Parses a full program. Throws ParseError on malformed input, and before
// lexing on a source larger than kMaxLexableBytes. A non-null
// `budget` is charged per token and per AST node and checked against its
// depth ceiling and deadline; a tripped ceiling throws BudgetExceeded
// (the budget pointer is detached from the returned Ast before returning).
//
// When `arena` is non-null the whole front end runs in it — it is reset()
// first (per-script pooling contract: at most one live ParseResult per
// pooled arena), the source is copied in so every token/node view has
// arena lifetime, and the Ast borrows it instead of owning one. With a
// null arena the Ast owns a private arena and the result is fully
// self-contained. `atoms`, when non-null, is the pooled identifier atom
// table the parser interns into (cleared here, in lockstep with the
// arena reset, because the interned views alias the arena); null gives
// the Ast a private table. `tokens`, when non-null, is the pooled token
// buffer: it is cleared and refilled, keeping its capacity, and the
// result's `tokens` span points into it. Null stores the stream in the
// result's own `owned_tokens`.
ParseResult parse_program(std::string_view source, Budget* budget = nullptr,
                          support::Arena* arena = nullptr,
                          support::AtomTable* atoms = nullptr,
                          std::vector<Token>* tokens = nullptr);

// Convenience: true if the source parses.
bool parses(std::string_view source);

class Parser {
 public:
  // `tokens` must not contain the EOF token and must stay alive for the
  // parse. Payloads the tokens do not carry are recomputed into the Ast's
  // arena. `budget`, when
  // non-null, has its AST-depth ceiling checked on every nesting step.
  Parser(std::span<const Token> tokens, Ast& ast, Budget* budget = nullptr);

  Node* parse_program_body();

 private:
  // --- token stream ---
  const Token& peek(std::size_t ahead = 0) const;
  const Token& current() const { return peek(0); }
  bool at_end() const { return index_ >= tokens_.size(); }
  const Token& advance();
  // Ids are unique across token types, so one compare identifies a
  // punctuator, keyword, literal word or contextual name.
  bool check(TokenId id, std::size_t ahead = 0) const {
    return peek(ahead).id == id;
  }
  bool match(TokenId id);
  void expect(TokenId id);
  // Cooked value of a token (lexer.h token_value, cooking into the arena).
  std::string_view text(const Token& token) const;
  [[noreturn]] void fail(const std::string& message) const;
  void consume_semicolon();  // with automatic semicolon insertion

  // True if the '(' at `ahead` starts an arrow-function parameter list:
  // the bracket closing it, counting ( [ { alike, is followed by '=>'.
  bool is_arrow_ahead(std::size_t ahead) const;

  // --- statements ---
  Node* parse_statement();
  Node* parse_block();
  Node* parse_variable_declaration();  // current token: var/let/const
  Node* parse_if();
  Node* parse_for();
  Node* parse_while();
  Node* parse_do_while();
  Node* parse_switch();
  Node* parse_try();
  Node* parse_return();
  Node* parse_throw();
  Node* parse_break_continue(bool is_break);
  Node* parse_labeled_or_expression_statement();
  Node* parse_with();
  Node* parse_function(bool is_declaration, bool is_async);
  Node* parse_class(bool is_declaration);

  // --- expressions (precedence descent) ---
  Node* parse_expression();             // comma operator
  Node* parse_assignment();
  Node* parse_conditional();
  Node* parse_binary(int min_precedence);
  Node* parse_unary();
  Node* parse_postfix();
  Node* parse_call_member(Node* base, bool allow_call);
  void parse_arguments(Node* call);  // after '(', through ')'
  Node* parse_new();
  Node* parse_primary();
  Node* parse_array_literal();
  Node* parse_object_literal();
  Node* parse_object_property();
  // Current token: a whole template or a head; through its tail.
  Node* parse_template_literal();
  Node* parse_arrow_tail(std::vector<Node*> params, bool is_async);
  // (params travel through a transient std::vector; they are copied into
  // the arena-backed kid list when attached to the function node.)
  Node* parse_property_key(bool* computed);
  Node* parse_function_rest(Node* function_node);  // params + body

  // --- binding patterns ---
  Node* parse_binding_target();   // Identifier | ArrayPattern | ObjectPattern
  Node* parse_binding_element();  // binding target with optional default
  std::vector<Node*> parse_params();

  std::span<const Token> tokens_;
  // For each opening bracket token, the index of the token closing it
  // (kNoClose when unclosed); other slots are unspecified. In the arena.
  static constexpr std::uint32_t kNoClose = 0xffffffffu;
  const std::uint32_t* closer_ = nullptr;
  std::size_t index_ = 0;
  Ast& ast_;
  Budget* budget_ = nullptr;
  int function_depth_ = 0;
  Token eof_token_;

  // Recursion guard: adversarial inputs (thousands of nested parentheses)
  // must yield a ParseError, never a stack overflow.
  static constexpr int kMaxNestingDepth = 700;
  int nesting_depth_ = 0;
  friend struct ParserDepthGuard;
};

}  // namespace jst
