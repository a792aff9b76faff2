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
// logical and prefix roles. Tokens are pulled from the Lexer on demand
// into a small window (DESIGN.md §12), so the token stream is never
// materialised; the arrow-function lookahead scans that window forward
// lazily, recording the closer of every bracket it passes, so it stays
// amortised O(1) per token. A template
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

// Parse result: the AST and the lexical statistics the feature extractor
// needs (comment volume is erased from the AST but matters for
// minification detection).
struct ParseResult {
  Ast ast;
  // parse_program leaves this empty: the token stream is never stored.
  // Callers that lex into their own buffer and drive a Parser over it
  // may record that buffer here.
  std::span<const Token> tokens{};
  TokenStats token_stats{};
  std::size_t comment_count = 0;
  std::size_t comment_bytes = 0;
  std::size_t source_bytes = 0;
  std::size_t source_lines = 0;
};

// Pooled storage of a Parser's token window (DESIGN.md §12): the tokens
// pulled from the lexer that the parser has not consumed yet, and the
// state of the arrow lookahead's bracket scan over them. Its capacity
// follows the longest lookahead a script needed, not the script's length.
struct TokenWindow {
  std::vector<Token> tokens;
  // Position of the bracket closing each scanned token (kOpen while the
  // token is an unclosed bracket), parallel to `tokens`.
  std::vector<std::uint32_t> closers;
  // Positions of the scanned brackets still open, innermost last.
  std::vector<std::uint32_t> open;

  std::size_t capacity_bytes() const {
    return tokens.capacity() * sizeof(Token) +
           (closers.capacity() + open.capacity()) * sizeof(std::uint32_t);
  }
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
// the Ast a private table. `window`, when non-null, is the pooled token
// window the parser pulls tokens through (its capacity is kept across
// scripts); null uses a private one.
//
// Lexing runs interleaved with parsing, but errors surface as if the
// whole source were lexed first: a ParseError or a non-deadline
// BudgetExceeded from the parser first lexes the rest of the source, and
// a lex error or token-ceiling trip met there is thrown instead.
ParseResult parse_program(std::string_view source, Budget* budget = nullptr,
                          support::Arena* arena = nullptr,
                          support::AtomTable* atoms = nullptr,
                          TokenWindow* window = nullptr);

// Convenience: true if the source parses.
bool parses(std::string_view source);

class Parser {
 public:
  // Parses a token stream already in memory: a window that starts full
  // and has no lexer. `tokens` must not contain the EOF token and must
  // stay alive for the parse. Payloads the tokens do not carry are
  // recomputed into the Ast's arena. `budget`, when non-null, has its
  // AST-depth ceiling checked on every nesting step.
  Parser(std::span<const Token> tokens, Ast& ast, Budget* budget = nullptr);
  // Pulls tokens from `lexer` through `window` (a private one when null)
  // as the parse needs them, counting each into token_stats(). The
  // budget's stage reads "lex" while the lexer runs and "parse" otherwise.
  Parser(Lexer& lexer, TokenWindow* window, Ast& ast,
         Budget* budget = nullptr);

  // Throws ParseError (or BudgetExceeded) on failure; with a lexer, the
  // rest of the source is lexed first (see parse_program).
  Node* parse_program_body();

  // Statistics of the tokens pulled from the lexer (none for a span).
  const TokenStats& token_stats() const { return stats_; }

 private:
  // --- token stream ---
  // References into the window are valid only until the next call that
  // may pull tokens (any peek, check, match or advance): copy a token
  // that must outlive one.
  const Token& peek(std::size_t ahead = 0) {
    const std::size_t at = index_ + ahead;
    if (at - base_ < tokens_.size() || (!lexer_done_ && pull(at))) {
      return tokens_[at - base_];
    }
    return eof_token_;
  }
  const Token& current() { return peek(0); }
  bool at_end() { return current().type == TokenType::kEndOfFile; }
  const Token& advance();
  // Ids are unique across token types, so one compare identifies a
  // punctuator, keyword, literal word or contextual name.
  bool check(TokenId id, std::size_t ahead = 0) {
    return peek(ahead).id == id;
  }
  bool match(TokenId id);
  void expect(TokenId id);
  // Cooked value of a token (lexer.h token_value, cooking into the arena).
  std::string_view text(const Token& token) const;
  // A token as error messages name it: its quoted text, or "end of input".
  std::string describe(const Token& token) const;
  [[noreturn]] void fail(const std::string& message);
  void consume_semicolon();  // with automatic semicolon insertion

  // Lexes into the window until it holds absolute position `position`
  // or the input ends, first dropping the consumed tokens when they are
  // at least half of it. Returns false at the end of input.
  bool pull(std::size_t position);
  // Lexes the rest of the source, charging the budget as pull() would.
  void drain_lexer();

  // True if the '(' at `ahead` starts an arrow-function parameter list:
  // the bracket closing it, counting ( [ { alike, is followed by '=>'.
  bool is_arrow_ahead(std::size_t ahead);
  // Absolute position of the bracket closing the one at `open`, or
  // kNoClose; scans forward from where the last scan stopped.
  std::size_t closer_of(std::size_t open);

  // --- statements ---
  Node* parse_statement();
  Node* parse_block();
  Node* parse_variable_declaration();  // current token: var/let/const
  Node* parse_paren_expression();  // '(' Expression ')'
  // `let` followed by a binding form starts a declaration.
  bool let_declaration_ahead();
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
  // Value of a shorthand property {a} or {a = default}; fails with
  // `not_identifier` when the key is not a name.
  Node* parse_shorthand_value(Node* property, Node* key,
                              const char* not_identifier);
  // Current token: a whole template or a head; through its tail.
  Node* parse_template_literal();
  Node* parse_arrow_tail(std::vector<Node*> params, bool is_async);
  // (params travel through a transient std::vector; they are copied into
  // the arena-backed kid list when attached to the function node.)
  Node* parse_property_key(bool* computed);
  Node* parse_function_rest(Node* function_node);  // params + body
  // A method's FunctionExpression, from its parameter list on.
  Node* parse_method(std::uint32_t line, bool is_generator, bool is_async);

  // --- binding patterns ---
  Node* parse_binding_target();   // Identifier | ArrayPattern | ObjectPattern
  Node* parse_binding_element();  // binding target with optional default
  std::vector<Node*> parse_params();

  // Tokens of absolute positions [base_, base_ + tokens_.size()): the
  // caller's span, or a view of window_->tokens.
  std::span<const Token> tokens_;
  std::size_t base_ = 0;
  std::size_t index_ = 0;  // absolute position of the current token
  Lexer* lexer_ = nullptr;
  bool lexer_done_ = true;  // end of input reached, or the lexer threw
  TokenWindow* window_;
  TokenWindow owned_window_;  // when the caller passes none
  TokenStats stats_;
  // The arrow lookahead's bracket scan has covered absolute positions
  // [base_, scanned_); window_->closers holds one slot for each.
  static constexpr std::uint32_t kNoClose = 0xffffffffu;
  static constexpr std::uint32_t kOpen = 0xfffffffeu;
  std::size_t scanned_ = 0;
  Ast& ast_;
  Budget* budget_ = nullptr;
  int function_depth_ = 0;
  // Returned past the last token: the lexer's end-of-input token (for a
  // span, one at the end of the last token).
  Token eof_token_;

  // Recursion guard: adversarial inputs (thousands of nested parentheses)
  // must yield a ParseError, never a stack overflow.
  static constexpr int kMaxNestingDepth = 700;
  int nesting_depth_ = 0;
  friend struct ParserDepthGuard;
};

}  // namespace jst
