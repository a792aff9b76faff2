// JavaScript tokenizer.
//
// A hand-written scanner covering the ES2017 subset jstraced works with:
// identifiers (ASCII + $ + _ + \uXXXX escapes passed through), all numeric
// literal forms, single/double-quoted strings with escapes, template
// literals (as Esprima lexes them: a head `a${, middles }b${ and a tail
// }c`, with each substitution's own tokens in between, or one token for a
// template without substitutions), regular expression literals
// (disambiguated from division by previous-token context, as in
// Esprima's tokenizer), comments (line, block, and HTML-comment-like
// `<!--`), and the full punctuator set.
//
// Substitutions nest to any depth the input chooses, so the lexer keeps
// them on an explicit stack, not the call stack: one count of open '{'
// per open substitution. A '}' that finds its substitution's count at 0
// closes the substitution and resumes the template's text.
//
// The scanner is table-driven (DESIGN.md §16): Lexer::next() dispatches
// on a 256-entry character-class table (lexer/char_class.h) instead of a
// predicate ladder, and the long homogeneous runs obfuscated code is
// full of — identifier floods, escape-free string/template payloads,
// whitespace walls, comment bodies — are skipped by tight byte loops
// over the same tables, with one line/column update per run.
//
// Tokens are 32-byte records (lexer/token.h) whose raw views point into
// the caller's `source` buffer, which must stay alive and unmoved for as
// long as the tokens are used. next() validates escapes, numbers and
// templates but stores no payload; the accessors at the bottom of this
// header recompute one from a token's raw slice, cooking into the
// caller's Arena where unescaping changed the text. parse_program
// arranges for both lifetimes to coincide by copying the script into the
// arena first (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "lexer/token.h"
#include "support/arena.h"
#include "support/budget.h"
#include "support/error.h"

namespace jst {

// Largest source a Lexer accepts: every line and column must fit the
// Token's u32 fields (a source of n bytes has at most n + 1 lines).
inline constexpr std::size_t kMaxLexableBytes =
    std::numeric_limits<std::uint32_t>::max() - 1;

// Throws ParseError when a source of `bytes` exceeds kMaxLexableBytes.
void check_lexable_size(std::size_t bytes);

class Lexer {
 public:
  // `arena` receives the identifier names cooked to classify escaped
  // words; `budget`, when non-null, is charged one token per next() call
  // and polled for the wall-clock deadline every
  // Budget::kDeadlinePollStride tokens; a tripped ceiling throws
  // BudgetExceeded out of next(). Throws ParseError when `source` is
  // larger than kMaxLexableBytes.
  Lexer(std::string_view source, support::Arena& arena,
        Budget* budget = nullptr);

  // Scans and returns the next token; returns kEndOfFile at the end.
  // Throws ParseError on malformed input.
  Token next();

  // Tokenizes an entire source (excluding the EOF token). The returned
  // tokens view into `source`.
  static std::vector<Token> tokenize(std::string_view source,
                                     support::Arena& arena);

  // Number of comments skipped so far and their total byte size.
  std::size_t comment_count() const { return comment_count_; }
  std::size_t comment_bytes() const { return comment_bytes_; }

  std::size_t line() const { return line_; }

 private:
  char peek(std::size_t ahead = 0) const;
  bool eof(std::size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  // Skips `count` bytes known to contain no '\n' (a scanned run): one
  // position and one column add instead of per-byte advance() calls.
  void skip_run(std::size_t count);
  [[noreturn]] void fail(const std::string& message) const;

  // Skips whitespace and comments; records whether a newline was crossed.
  void skip_trivia();

  // A token from the current token's start (recorded by next()) to pos_.
  Token make_token(TokenType type, TokenId id);

  Token scan_identifier_or_keyword();
  // Skips the hex digits of a \u escape (four, or a braced code point of
  // one or more digits up to U+10FFFF) after the 'u'; a missing or bad
  // one of the four fails with `four_digit_error`.
  void skip_unicode_escape(const char* four_digit_error);
  Token scan_number();
  Token scan_string(char quote);
  // Scans template text from the opening '`' or from the '}' closing a
  // substitution through the closing '`' or the next "${", pushing a
  // substitution for a head and popping it for a tail.
  Token scan_template();
  Token scan_regex();
  Token scan_punctuator();

  // True when a '/' in the current position starts a regex rather than a
  // division operator, judged from the previously emitted token.
  bool regex_allowed() const;


  std::string_view source_;
  support::Arena* arena_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 0;
  bool newline_pending_ = false;
  // Where the token being scanned starts.
  std::size_t start_offset_ = 0;
  std::size_t start_line_ = 1;
  std::size_t start_column_ = 0;
  // Previous-token context for regex disambiguation: only the type and
  // the id matter, so the full Token is not copied per next().
  bool has_previous_ = false;
  TokenType previous_type_ = TokenType::kEndOfFile;
  TokenId previous_id_ = TokenId::kNone;
  bool previous_closes_template_ = false;
  // Open substitutions, innermost last: the '{' tokens each has open.
  std::vector<std::uint32_t> substitution_braces_;
  std::size_t comment_count_ = 0;
  std::size_t comment_bytes_ = 0;
  Budget* budget_ = nullptr;  // non-owning; nullptr = ungoverned
};

// True if `word` is a reserved keyword (not including null/true/false).
bool is_js_keyword(std::string_view word);

// --- payloads recomputed from a token's raw slice --------------------------

// Decoded text of an escaped identifier or string, cooked into `arena`.
std::string_view cooked_value(const Token& token, support::Arena& arena);

// Cooked value: identifier name, keyword and punctuator text, decoded
// string value, regex pattern (without flags), and the raw text of
// numbers and template tokens. Only escaped identifiers and strings touch
// `arena`; every other value views the raw slice or static storage.
inline std::string_view token_value(const Token& token,
                                    support::Arena& arena) {
  if (token.id != TokenId::kNone) return token_id_text(token.id);
  if (token.escaped) return cooked_value(token, arena);
  switch (token.type) {
    case TokenType::kStringLiteral:
      return token.raw.substr(1, token.raw.size() - 2);
    case TokenType::kRegularExpression:
      return token.raw.substr(1, token.raw.rfind('/') - 1);
    default:
      return token.raw;
  }
}

// Value of a kNumericLiteral token.
double numeric_value(const Token& token);

// Flags of a kRegularExpression token (the id-part run after the
// closing '/').
inline std::string_view regex_flags(const Token& token) {
  return token.raw.substr(token.raw.rfind('/') + 1);
}

// A kTemplate token opens a template when its raw text starts with '`'
// (a whole template or a head) and closes one when it ends with '`' (a
// whole template or a tail); a middle does neither.
inline bool opens_template(const Token& token) {
  return token.raw.front() == '`';
}
inline bool closes_template(const Token& token) {
  return token.raw.back() == '`';
}

// The verbatim text of a kTemplate token between its delimiters ('`' or
// '}' before, '`' or "${" after): a TemplateElement's raw value.
inline std::string_view template_text(const Token& token) {
  const std::size_t delimiters = closes_template(token) ? 2 : 3;
  return token.raw.substr(1, token.raw.size() - delimiters);
}

}  // namespace jst
