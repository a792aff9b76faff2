#include "lexer/lexer.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "lexer/char_class.h"

namespace jst {
namespace {

using lex::CharClass;
using lex::kCharClass;

inline unsigned char uc(char c) { return static_cast<unsigned char>(c); }

unsigned hex_value(char c) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  return static_cast<unsigned>(c - 'A' + 10);
}

std::string_view view_of(const support::ArenaVec<char>& cooked) {
  return std::string_view(cooked.data(), cooked.size());
}

// Code point of the \u escape whose hex digits start at text[i] (four
// digits, or a braced run); i ends past the escape. The lexer checked the
// escape when it scanned the token.
unsigned read_unicode_escape(std::string_view text, std::size_t& i) {
  unsigned code = 0;
  if (text[i] == '{') {
    for (++i; text[i] != '}'; ++i) code = code * 16 + hex_value(text[i]);
    ++i;
  } else {
    for (const std::size_t end = i + 4; i < end; ++i) {
      code = code * 16 + hex_value(text[i]);
    }
  }
  return code;
}

// Name of a scanned identifier with \u escapes: each escape keeps the low
// 7 bits of its code (sufficient for the ASCII identifiers we target).
std::string_view cook_identifier(std::string_view raw,
                                 support::Arena& arena) {
  support::ArenaVec<char> cooked(arena);
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] != '\\') {
      cooked.push_back(raw[i++]);
      continue;
    }
    i += 2;  // "\u"
    cooked.push_back(static_cast<char>(read_unicode_escape(raw, i) & 0x7f));
  }
  return view_of(cooked);
}

// Decoded value of a scanned string literal's body (between the quotes):
// escape-free runs are copied whole, each escape is decoded.
std::string_view cook_string(std::string_view body, support::Arena& arena) {
  support::ArenaVec<char> cooked(arena);
  const auto put = [&cooked](unsigned code) {
    cooked.push_back(static_cast<char>(code));
  };
  std::size_t i = 0;
  while (true) {
    const std::size_t slash = std::min(body.find('\\', i), body.size());
    cooked.append(body.data() + i, slash - i);
    if (slash == body.size()) break;
    i = slash + 2;
    const char esc = body[slash + 1];
    switch (esc) {
      case 'n': put('\n'); break;
      case 't': put('\t'); break;
      case 'r': put('\r'); break;
      case 'b': put('\b'); break;
      case 'f': put('\f'); break;
      case 'v': put('\v'); break;
      case '0':
        if (i == body.size() || !lex::is_digit_byte(uc(body[i]))) {
          put('\0');
          break;
        }
        [[fallthrough]];
      case '1': case '2': case '3': case '4':
      case '5': case '6': case '7': {
        // Legacy octal escape.
        unsigned code = static_cast<unsigned>(esc - '0');
        for (int k = 0; k < 2 && i < body.size() && body[i] >= '0' &&
                        body[i] <= '7';
             ++k) {
          code = code * 8 + static_cast<unsigned>(body[i++] - '0');
          if (code > 255) break;
        }
        put(code & 0xff);
        break;
      }
      case 'x':
        put(hex_value(body[i]) * 16 + hex_value(body[i + 1]));
        i += 2;
        break;
      case 'u': {
        // Encoded as UTF-8.
        const unsigned code = read_unicode_escape(body, i);
        if (code < 0x80) {
          put(code);
        } else if (code < 0x800) {
          put(0xc0 | (code >> 6));
          put(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
          put(0xe0 | (code >> 12));
          put(0x80 | ((code >> 6) & 0x3f));
          put(0x80 | (code & 0x3f));
        } else {  // at most U+10FFFF (skip_unicode_escape)
          put(0xf0 | (code >> 18));
          put(0x80 | ((code >> 12) & 0x3f));
          put(0x80 | ((code >> 6) & 0x3f));
          put(0x80 | (code & 0x3f));
        }
        break;
      }
      case '\n':  // line continuation
        break;
      case '\r':
        if (i < body.size() && body[i] == '\n') ++i;
        break;
      default:
        put(static_cast<unsigned char>(esc));
    }
  }
  return view_of(cooked);
}

// First index >= from holding a line terminator ('\n' or '\r'), or
// `size`: the end of a line comment's body.
std::size_t line_end(const char* data, std::size_t size, std::size_t from) {
  while (from < size && !lex::is_line_terminator_byte(uc(data[from]))) ++from;
  return from;
}

// Punctuator ids by first byte, longer texts first, so the first text
// that matches is the longest (kNone ends a list). Built from the id
// list, the one place punctuators are spelled.
constexpr auto kPunctuatorsByByte = [] {
  std::array<std::array<TokenId, 8>, 256> table{};
  for (auto i = static_cast<std::size_t>(TokenId::kLBrace);
       i < static_cast<std::size_t>(TokenId::kDo); ++i) {
    const auto id = static_cast<TokenId>(i);
    std::array<TokenId, 8>& list =
        table[static_cast<unsigned char>(token_id_text(id)[0])];
    if (list.back() != TokenId::kNone) throw "too many punctuators";
    std::size_t at = 0;
    while (list[at] != TokenId::kNone &&
           token_id_text(list[at]).size() >= token_id_text(id).size()) {
      ++at;
    }
    for (std::size_t k = list.size() - 1; k > at; --k) list[k] = list[k - 1];
    list[at] = id;
  }
  return table;
}();

// Id of a word: a reserved keyword, true/false/null, or a contextual name
// the parser dispatches on; kNone for every other identifier. A switch on
// the word length, then direct comparisons with the candidates of that
// length (no hashing).
TokenId word_id(std::string_view w) {
  using enum TokenId;
  const auto pick = [w](std::initializer_list<TokenId> ids) {
    for (const TokenId id : ids) {
      if (token_id_text(id) == w) return id;
    }
    return kNone;
  };
  switch (w.size()) {
    case 2: return pick({kDo, kIf, kIn, kOf});
    case 3: return pick({kFor, kNew, kTry, kVar, kLet, kGet, kSet});
    case 4: return pick({kCase, kElse, kThis, kVoid, kWith, kTrue, kNull});
    case 5:
      return pick({kBreak, kCatch, kClass, kConst, kSuper, kThrow, kWhile,
                   kYield, kFalse, kAsync, kAwait});
    case 6:
      return pick({kDelete, kExport, kImport, kReturn, kSwitch, kTypeof,
                   kStatic});
    case 7: return pick({kDefault, kExtends, kFinally});
    case 8: return pick({kContinue, kDebugger, kFunction});
    case 10: return pick({kInstanceof});
    default: return kNone;
  }
}

}  // namespace

bool is_js_keyword(std::string_view word) {
  return is_keyword_id(word_id(word));
}

void check_lexable_size(std::size_t bytes) {
  if (bytes > kMaxLexableBytes) {
    throw ParseError("source of " + std::to_string(bytes) +
                         " bytes exceeds the lexer's " +
                         std::to_string(kMaxLexableBytes) + "-byte limit",
                     1, 0);
  }
}

Lexer::Lexer(std::string_view source, support::Arena& arena, Budget* budget)
    : source_(source), arena_(&arena), budget_(budget) {
  check_lexable_size(source.size());
}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

bool Lexer::eof(std::size_t ahead) const {
  return pos_ + ahead >= source_.size();
}

char Lexer::advance() {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 0;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (eof() || peek() != expected) return false;
  advance();
  return true;
}

void Lexer::skip_run(std::size_t count) {
  pos_ += count;
  column_ += count;
}

void Lexer::fail(const std::string& message) const {
  throw ParseError(message, line_, column_);
}

void Lexer::skip_trivia() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  while (pos_ < size) {
    const char c = data[pos_];
    switch (kCharClass[uc(c)]) {
      case CharClass::kWhitespace: {
        // Inline whitespace run (never contains '\n').
        std::size_t end = pos_ + 1;
        while (end < size &&
               lex::has_flag(uc(data[end]), lex::kFlagWhitespace)) {
          ++end;
        }
        skip_run(end - pos_);
        break;
      }
      case CharClass::kNewline:
        newline_pending_ = true;
        advance();
        break;
      case CharClass::kSlash:
        if (peek(1) == '/') {
          // Line comment: everything up to (not including) the next
          // line terminator, counted toward comment volume.
          const std::size_t start = pos_;
          skip_run(line_end(data, size, pos_ + 2) - pos_);
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        if (peek(1) == '*') {
          const std::size_t start = pos_;
          advance();
          advance();
          bool closed = false;
          while (pos_ < size) {
            // Skip the body to the next '*' or newline.
            std::size_t end = pos_;
            while (end < size && data[end] != '*' && data[end] != '\n') ++end;
            skip_run(end - pos_);
            if (pos_ >= size) break;
            if (data[pos_] == '\n') {
              newline_pending_ = true;
              advance();
              continue;
            }
            if (pos_ + 1 < size && data[pos_ + 1] == '/') {
              skip_run(2);
              closed = true;
              break;
            }
            skip_run(1);  // lone '*'
          }
          if (!closed) fail("unterminated block comment");
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        return;
      case CharClass::kPunct:
        if (c == '<' && peek(1) == '!' && peek(2) == '-' && peek(3) == '-') {
          // HTML-style open comment: skip to end of line (legacy web JS).
          const std::size_t start = pos_;
          skip_run(line_end(data, size, pos_ + 4) - pos_);
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        return;
      default:
        return;
    }
  }
}

Token Lexer::make_token(TokenType type, TokenId id) {
  Token token;
  token.raw = source_.substr(start_offset_, pos_ - start_offset_);
  // Both fit: the constructor bounds the source by kMaxLexableBytes.
  token.line = static_cast<std::uint32_t>(start_line_);
  token.column = static_cast<std::uint32_t>(start_column_);
  token.type = type;
  token.id = id;
  token.newline_before = newline_pending_;
  return token;
}

bool Lexer::regex_allowed() const {
  if (!has_previous_) return true;
  switch (previous_type_) {
    case TokenType::kTemplate:
      // A head or middle ends in "${": an expression starts after it. A
      // tail or a whole template ends an expression.
      return !previous_closes_template_;
    case TokenType::kIdentifier:
    case TokenType::kNumericLiteral:
    case TokenType::kStringLiteral:
    case TokenType::kRegularExpression:
    case TokenType::kBooleanLiteral:
    case TokenType::kNullLiteral:
      return false;
    case TokenType::kKeyword:
      // `this` and `super` end an expression; everything else (return,
      // typeof, in, case, ...) is followed by an expression position.
      return previous_id_ != TokenId::kThis && previous_id_ != TokenId::kSuper;
    case TokenType::kPunctuator:
      // After a closing bracket of an expression, '/' is division. After
      // ')' it is ambiguous (if/for/while conditions end with ')'), and
      // Esprima resolves this with parser feedback; our tokenizer-level
      // heuristic treats ')' and ']' as expression ends, '}' as a block
      // end (regex allowed), matching typical minified code.
      switch (previous_id_) {
        case TokenId::kRParen:
        case TokenId::kRBracket:
        case TokenId::kInc:
        case TokenId::kDec:
          return false;
        default:
          return true;
      }
    default:
      return true;
  }
}

Token Lexer::next() {
  if (budget_ != nullptr) budget_->charge_tokens();
  newline_pending_ = false;
  skip_trivia();
  start_offset_ = pos_;
  start_line_ = line_;
  start_column_ = column_;
  if (eof()) {
    if (!substitution_braces_.empty()) {
      fail("unterminated template substitution");
    }
    return make_token(TokenType::kEndOfFile, TokenId::kNone);
  }

  // One table load + indexed jump routes the leading byte to its scanner.
  const char c = source_[pos_];
  Token token;
  switch (kCharClass[uc(c)]) {
    case CharClass::kIdStart:
    case CharClass::kBackslash:
      token = scan_identifier_or_keyword();
      break;
    case CharClass::kDigit:
      token = scan_number();
      break;
    case CharClass::kDot:
      token = lex::is_digit_byte(uc(peek(1))) ? scan_number()
                                              : scan_punctuator();
      break;
    case CharClass::kQuote:
      token = scan_string(c);
      break;
    case CharClass::kBacktick:
      token = scan_template();
      break;
    case CharClass::kSlash:
      token = regex_allowed() ? scan_regex() : scan_punctuator();
      break;
    default:
      token = scan_punctuator();
      break;
  }
  has_previous_ = true;
  previous_type_ = token.type;
  previous_id_ = token.id;
  previous_closes_template_ =
      token.type == TokenType::kTemplate && closes_template(token);
  return token;
}

Token Lexer::scan_identifier_or_keyword() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  // Identifier continuation bytes (ASCII id-part plus >= 0x80 UTF-8
  // passthrough) are consumed as whole runs. The name is the source slice
  // unless a \u escape makes the cooked name differ; only then is it
  // decoded into the arena, to classify the word.
  bool escaped = false;
  while (true) {
    std::size_t run_end = pos_;
    while (run_end < size && lex::is_id_part_byte(uc(data[run_end]))) {
      ++run_end;
    }
    skip_run(run_end - pos_);
    if (pos_ >= size || data[pos_] != '\\' || peek(1) != 'u') break;
    escaped = true;
    advance();
    advance();
    skip_unicode_escape("bad unicode escape in identifier");
  }
  if (pos_ == start_offset_) {
    // A lone '\' not starting a \uXXXX escape: no progress was made; this
    // must be a hard error or the tokenizer would loop forever.
    fail("unexpected '\\'");
  }
  const std::string_view raw =
      source_.substr(start_offset_, pos_ - start_offset_);
  const TokenId id = word_id(escaped ? cook_identifier(raw, *arena_) : raw);
  TokenType type = TokenType::kIdentifier;
  if (is_keyword_id(id)) {
    type = TokenType::kKeyword;
  } else if (id == TokenId::kTrue || id == TokenId::kFalse) {
    type = TokenType::kBooleanLiteral;
  } else if (id == TokenId::kNull) {
    type = TokenType::kNullLiteral;
  }
  Token token = make_token(type, id);
  token.escaped = escaped;
  return token;
}

void Lexer::skip_unicode_escape(const char* four_digit_error) {
  if (match('{')) {
    // A code point: at least one digit and at most U+10FFFF, checked per
    // digit so a long run cannot wrap around.
    if (peek() == '}') fail("empty unicode escape");
    unsigned code = 0;
    while (!eof() && peek() != '}') {
      if (!lex::is_hex_digit_byte(uc(peek()))) fail("bad unicode escape");
      code = code * 16 + hex_value(advance());
      if (code > 0x10ffff) fail("unicode escape out of range");
    }
    if (!match('}')) fail("unterminated unicode escape");
    return;
  }
  for (int i = 0; i < 4; ++i) {
    if (eof() || !lex::is_hex_digit_byte(uc(peek()))) fail(four_digit_error);
    advance();
  }
}

Token Lexer::scan_number() {
  // Only the extent is checked here; numeric_value() computes the value
  // from the raw slice when the parser builds the Literal.
  const auto skip_digits = [this](auto is_digit) {
    while (!eof() && is_digit(uc(peek()))) advance();
  };
  // After a 0x / 0b / 0o prefix: at least one digit of the radix.
  const auto prefixed = [&](auto is_digit, const char* missing) {
    advance();
    advance();
    if (!is_digit(uc(peek()))) fail(missing);
    skip_digits(is_digit);
  };
  const auto binary = [](unsigned char c) { return c == '0' || c == '1'; };
  const auto octal = [](unsigned char c) { return c >= '0' && c <= '7'; };
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    prefixed(lex::is_hex_digit_byte, "missing hex digits");
  } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
    prefixed(binary, "missing binary digits");
  } else if (peek() == '0' && (peek(1) == 'o' || peek(1) == 'O')) {
    prefixed(octal, "missing octal digits");
  } else if (peek() == '0' && lex::is_digit_byte(uc(peek(1)))) {
    // Legacy octal (non-strict); decimal if 8/9 appear.
    advance();
    skip_digits(lex::is_digit_byte);
  } else {
    skip_digits(lex::is_digit_byte);
    if (peek() == '.') {
      advance();
      skip_digits(lex::is_digit_byte);
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (!lex::is_digit_byte(uc(peek()))) fail("missing exponent digits");
      skip_digits(lex::is_digit_byte);
    }
  }
  if (lex::is_id_start_byte(uc(peek()))) {
    fail("identifier starts immediately after number");
  }
  return make_token(TokenType::kNumericLiteral, TokenId::kNone);
}

Token Lexer::scan_string(char quote) {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  advance();  // opening quote
  // Escapes are checked here and decoded only by cooked_value(). The
  // payload spans between interesting bytes (quote, backslash, newline)
  // are skipped as whole runs.
  bool escaped = false;
  while (true) {
    std::size_t stop = pos_;
    while (stop < size) {
      const char c = data[stop];
      if (c == quote || c == '\\' || c == '\n' || c == '\r') break;
      ++stop;
    }
    skip_run(stop - pos_);
    if (pos_ >= size) fail("unterminated string literal");
    const char c = advance();
    if (c == quote) break;
    if (c == '\n' || c == '\r') fail("newline in string literal");
    // c == '\\'
    escaped = true;
    if (eof()) fail("unterminated escape sequence");
    const char esc = advance();  // a '\n' here is a line continuation
    if (esc == 'x') {
      for (int i = 0; i < 2; ++i) {
        if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
          fail("bad hex escape");
        }
        advance();
      }
    } else if (esc == 'u') {
      skip_unicode_escape("bad unicode escape");
    } else if (esc == '\r' && peek() == '\n') {
      advance();
    }
  }
  Token token = make_token(TokenType::kStringLiteral, TokenId::kNone);
  token.escaped = escaped;
  return token;
}

Token Lexer::scan_template() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  // '`' opens a template (a head, or a whole template without
  // substitutions); the '}' closing a substitution continues one (a
  // middle or a tail). The text between interesting bytes ('`', '\',
  // '$', '\n') is skipped as a run.
  const bool continues = advance() == '}';
  while (true) {
    std::size_t end = pos_;
    while (end < size) {
      const char c = data[end];
      if (c == '`' || c == '\\' || c == '$' || c == '\n') break;
      ++end;
    }
    skip_run(end - pos_);
    if (pos_ >= size) fail("unterminated template literal");
    const char c = advance();
    if (c == '`') {
      if (continues) substitution_braces_.pop_back();  // a tail
      break;
    }
    if (c == '\\') {
      if (eof()) fail("unterminated template escape");
      advance();
      continue;
    }
    if (c == '$' && peek() == '{') {
      advance();
      if (!continues) substitution_braces_.push_back(0);  // a head
      break;
    }
    // A newline was tracked by advance(); a '$' not followed by '{' is
    // plain template text.
  }
  return make_token(TokenType::kTemplate, TokenId::kNone);
}

Token Lexer::scan_regex() {
  advance();  // '/'
  // The pattern is always the verbatim slice between the delimiting
  // slashes (escapes are kept raw) and the flags follow the last '/', so
  // token_value() and regex_flags() slice both out of the raw text.
  bool in_class = false;
  while (true) {
    if (eof()) fail("unterminated regular expression");
    char c = advance();
    if (lex::is_line_terminator_byte(uc(c))) {
      fail("newline in regular expression");
    }
    if (c == '\\') {
      if (eof()) fail("unterminated regex escape");
      advance();
      continue;
    }
    if (c == '[') in_class = true;
    if (c == ']') in_class = false;
    if (c == '/' && !in_class) break;
  }
  // Flags are ASCII id-part only (no >= 0x80 passthrough, unlike
  // identifier tails).
  while (!eof() && uc(peek()) < 0x80 && lex::is_id_part_byte(uc(peek()))) {
    advance();
  }
  return make_token(TokenType::kRegularExpression, TokenId::kNone);
}

Token Lexer::scan_punctuator() {
  const char c = peek();
  if (c == '{' && !substitution_braces_.empty()) {
    ++substitution_braces_.back();
  } else if (c == '}' && !substitution_braces_.empty()) {
    // The '}' matching no '{' of its substitution closes it: the
    // template's text resumes.
    if (substitution_braces_.back() == 0) return scan_template();
    --substitution_braces_.back();
  }
  // Longest match: the candidates for this byte, longest text first.
  const std::array<TokenId, 8>& candidates = kPunctuatorsByByte[uc(c)];
  if (candidates[1] == TokenId::kNone && candidates[0] != TokenId::kNone) {
    skip_run(1);  // the byte's only punctuator: ( ) [ ] { } ; , : ~
    return make_token(TokenType::kPunctuator, candidates[0]);
  }
  for (const TokenId id : candidates) {
    if (id == TokenId::kNone) break;
    const std::string_view text = token_id_text(id);
    std::size_t matched = 1;
    while (matched < text.size() && peek(matched) == text[matched]) ++matched;
    if (matched == text.size()) {
      skip_run(matched);
      return make_token(TokenType::kPunctuator, id);
    }
  }
  fail(std::string("unexpected character '") + c + "'");
}

std::vector<Token> Lexer::tokenize(std::string_view source,
                                   support::Arena& arena) {
  Lexer lexer(source, arena);
  std::vector<Token> tokens;
  for (Token token = lexer.next(); token.type != TokenType::kEndOfFile;
       token = lexer.next()) {
    tokens.push_back(token);
  }
  return tokens;
}

double numeric_value(const Token& token) {
  const std::string_view raw = token.raw;
  const auto radix = [raw](double base) {
    double value = 0.0;
    for (const char c : raw.substr(2)) value = value * base + hex_value(c);
    return value;
  };
  if (raw.size() > 1 && raw[0] == '0') {
    switch (raw[1]) {
      case 'x': case 'X': return radix(16);
      case 'b': case 'B': return radix(2);
      case 'o': case 'O': return radix(8);
      default:
        if (lex::is_digit_byte(uc(raw[1]))) {
          // Legacy octal: the digits after the '0', decimal if 8/9 appear.
          const std::string digits(raw.substr(1));
          if (digits.find_first_of("89") != std::string::npos) {
            return std::strtod(digits.c_str(), nullptr);
          }
          return static_cast<double>(std::strtoll(digits.c_str(), nullptr, 8));
        }
    }
  }
  // strtod needs a NUL-terminated copy; the raw slice is not.
  return std::strtod(std::string(raw).c_str(), nullptr);
}

std::string_view cooked_value(const Token& token, support::Arena& arena) {
  if (token.type == TokenType::kStringLiteral) {
    return cook_string(token.raw.substr(1, token.raw.size() - 2), arena);
  }
  return cook_identifier(token.raw, arena);
}

}  // namespace jst
