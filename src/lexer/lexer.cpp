#include "lexer/lexer.h"

#include <cstdlib>
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

// First index >= from holding a line terminator ('\n' or '\r'), or
// `size`: the end of a line comment's body.
std::size_t line_end(const char* data, std::size_t size, std::size_t from) {
  while (from < size && !lex::is_line_terminator_byte(uc(data[from]))) ++from;
  return from;
}

}  // namespace

// Length-bucketed keyword membership: a switch on the word length plus
// direct comparisons replaces the historical unordered_set probe (same
// 33-word set, no hashing, no cold table walk).
bool is_js_keyword(std::string_view w) {
  switch (w.size()) {
    case 2:
      return w == "do" || w == "if" || w == "in";
    case 3:
      return w == "for" || w == "new" || w == "try" || w == "var";
    case 4:
      return w == "case" || w == "else" || w == "this" || w == "void" ||
             w == "with";
    case 5:
      return w == "break" || w == "catch" || w == "class" || w == "const" ||
             w == "super" || w == "throw" || w == "while" || w == "yield";
    case 6:
      return w == "delete" || w == "export" || w == "import" ||
             w == "return" || w == "switch" || w == "typeof";
    case 7:
      return w == "default" || w == "extends" || w == "finally";
    case 8:
      return w == "continue" || w == "debugger" || w == "function";
    case 10:
      return w == "instanceof";
    default:
      return false;
  }
}

Lexer::Lexer(std::string_view source, support::Arena& arena, Budget* budget)
    : source_(source), arena_(&arena), budget_(budget) {}

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

std::string_view Lexer::slice(std::size_t begin, std::size_t end) const {
  return source_.substr(begin, end - begin);
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

Token Lexer::make_token(TokenType type, std::size_t start_offset,
                        std::size_t start_line, std::size_t start_column) {
  Token token;
  token.type = type;
  token.offset = start_offset;
  token.line = start_line;
  token.column = start_column;
  token.raw = slice(start_offset, pos_);
  token.newline_before = newline_pending_;
  return token;
}

bool Lexer::regex_allowed() const {
  if (!has_previous_) return true;
  switch (previous_type_) {
    case TokenType::kIdentifier:
    case TokenType::kNumericLiteral:
    case TokenType::kStringLiteral:
    case TokenType::kTemplate:
    case TokenType::kRegularExpression:
    case TokenType::kBooleanLiteral:
    case TokenType::kNullLiteral:
      return false;
    case TokenType::kKeyword:
      // `this` and `super` end an expression; everything else (return,
      // typeof, in, case, ...) is followed by an expression position.
      return previous_value_ != "this" && previous_value_ != "super";
    case TokenType::kPunctuator:
      // After a closing bracket of an expression, '/' is division. After
      // ')' it is ambiguous (if/for/while conditions end with ')'), and
      // Esprima resolves this with parser feedback; our tokenizer-level
      // heuristic treats ')' and ']' as expression ends, '}' as a block
      // end (regex allowed), matching typical minified code.
      return previous_value_ != ")" && previous_value_ != "]" &&
             previous_value_ != "++" && previous_value_ != "--";
    default:
      return true;
  }
}

Token Lexer::next() {
  if (budget_ != nullptr) budget_->charge_tokens();
  newline_pending_ = false;
  skip_trivia();
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;
  if (eof()) {
    Token token = make_token(TokenType::kEndOfFile, start_offset, start_line,
                             start_column);
    return token;
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
  previous_value_ = token.value;
  return token;
}

Token Lexer::scan_identifier_or_keyword() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;
  // Zero-copy fast path: the name is the source slice until a \uXXXX
  // escape makes the cooked name differ, at which point the prefix is
  // copied into the arena and cooking continues there. Identifier
  // continuation bytes (ASCII id-part plus >= 0x80 UTF-8 passthrough)
  // are consumed as whole runs.
  support::ArenaVec<char> cooked(*arena_);
  bool dirty = false;
  while (true) {
    std::size_t run_end = pos_;
    while (run_end < size && lex::is_id_part_byte(uc(data[run_end]))) {
      ++run_end;
    }
    if (dirty && run_end > pos_) cooked.append(data + pos_, run_end - pos_);
    skip_run(run_end - pos_);
    if (pos_ >= size || data[pos_] != '\\' || peek(1) != 'u') break;
    // \uXXXX identifier escape: decode the hex, keep the low byte as the
    // cooked character (sufficient for the ASCII identifiers we target).
    if (!dirty) {
      cooked.append(data + start_offset, pos_ - start_offset);
      dirty = true;
    }
    advance();
    advance();
    unsigned code = 0;
    if (peek() == '{') {
      advance();
      while (!eof() && peek() != '}') {
        if (!lex::is_hex_digit_byte(uc(peek()))) fail("bad unicode escape");
        code = code * 16 + hex_value(advance());
      }
      if (!match('}')) fail("unterminated unicode escape");
    } else {
      for (int i = 0; i < 4; ++i) {
        if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
          fail("bad unicode escape in identifier");
        }
        code = code * 16 + hex_value(advance());
      }
    }
    cooked.push_back(static_cast<char>(code & 0x7f));
  }
  if (pos_ == start_offset) {
    // A lone '\' not starting a \uXXXX escape: no progress was made; this
    // must be a hard error or the tokenizer would loop forever.
    fail("unexpected '\\'");
  }
  const std::string_view name =
      dirty ? view_of(cooked) : slice(start_offset, pos_);
  Token token;
  if (name == "true" || name == "false") {
    token = make_token(TokenType::kBooleanLiteral, start_offset, start_line,
                       start_column);
  } else if (name == "null") {
    token = make_token(TokenType::kNullLiteral, start_offset, start_line,
                       start_column);
  } else if (is_js_keyword(name)) {
    token =
        make_token(TokenType::kKeyword, start_offset, start_line, start_column);
  } else {
    token = make_token(TokenType::kIdentifier, start_offset, start_line,
                       start_column);
  }
  token.value = name;
  return token;
}

Token Lexer::scan_number() {
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;

  double value = 0.0;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    if (!lex::is_hex_digit_byte(uc(peek()))) fail("missing hex digits");
    while (!eof() && lex::is_hex_digit_byte(uc(peek()))) {
      value = value * 16 + hex_value(advance());
    }
  } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
    advance();
    advance();
    if (peek() != '0' && peek() != '1') fail("missing binary digits");
    while (peek() == '0' || peek() == '1') value = value * 2 + (advance() - '0');
  } else if (peek() == '0' && (peek(1) == 'o' || peek(1) == 'O')) {
    advance();
    advance();
    if (peek() < '0' || peek() > '7') fail("missing octal digits");
    while (peek() >= '0' && peek() <= '7') value = value * 8 + (advance() - '0');
  } else if (peek() == '0' && lex::is_digit_byte(uc(peek(1)))) {
    // Legacy octal (non-strict); fall back to decimal if 8/9 appear.
    // Short digit runs stay in the std::string SSO buffer (strtod needs a
    // NUL-terminated copy, the source slice is not).
    std::string digits;
    advance();
    while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    const bool octal = digits.find('8') == std::string::npos &&
                       digits.find('9') == std::string::npos;
    value = std::strtod(digits.c_str(), nullptr);
    if (octal) value = static_cast<double>(std::strtoll(digits.c_str(), nullptr, 8));
  } else {
    std::string digits;
    while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    if (peek() == '.') {
      digits.push_back(advance());
      while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    }
    if (peek() == 'e' || peek() == 'E') {
      digits.push_back(advance());
      if (peek() == '+' || peek() == '-') digits.push_back(advance());
      if (!lex::is_digit_byte(uc(peek()))) fail("missing exponent digits");
      while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    }
    value = std::strtod(digits.c_str(), nullptr);
  }
  if (lex::is_id_start_byte(uc(peek()))) {
    fail("identifier starts immediately after number");
  }

  Token token = make_token(TokenType::kNumericLiteral, start_offset, start_line,
                           start_column);
  token.number = value;
  token.value = token.raw;
  return token;
}

Token Lexer::scan_string(char quote) {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;
  advance();  // opening quote
  // Zero-copy fast path: the cooked value equals the source slice between
  // the quotes until the first backslash; from there the prefix is copied
  // into the arena and escapes decode into the copy. The escape-free
  // payload spans between interesting bytes (quote, backslash, newline)
  // are skipped as whole runs — for the common no-escape literal one run
  // reaches the closing quote and the value stays a view.
  const std::size_t content_start = pos_;
  support::ArenaVec<char> cooked(*arena_);
  bool dirty = false;
  while (true) {
    std::size_t stop = pos_;
    while (stop < size) {
      const char c = data[stop];
      if (c == quote || c == '\\' || c == '\n' || c == '\r') break;
      ++stop;
    }
    if (dirty && stop > pos_) cooked.append(data + pos_, stop - pos_);
    skip_run(stop - pos_);
    if (pos_ >= size) fail("unterminated string literal");
    const char c = advance();
    if (c == quote) break;
    if (c == '\n' || c == '\r') fail("newline in string literal");
    // c == '\\': decode one escape into the cooked copy.
    if (!dirty) {
      cooked.append(data + content_start, (pos_ - 1) - content_start);
      dirty = true;
    }
    if (eof()) fail("unterminated escape sequence");
    const char esc = advance();
    switch (esc) {
      case 'n': cooked.push_back('\n'); break;
      case 't': cooked.push_back('\t'); break;
      case 'r': cooked.push_back('\r'); break;
      case 'b': cooked.push_back('\b'); break;
      case 'f': cooked.push_back('\f'); break;
      case 'v': cooked.push_back('\v'); break;
      case '0':
        if (!lex::is_digit_byte(uc(peek()))) {
          cooked.push_back('\0');
          break;
        }
        [[fallthrough]];
      case '1': case '2': case '3': case '4':
      case '5': case '6': case '7': {
        // Legacy octal escape.
        unsigned code = static_cast<unsigned>(esc - '0');
        for (int i = 0; i < 2 && peek() >= '0' && peek() <= '7'; ++i) {
          code = code * 8 + static_cast<unsigned>(advance() - '0');
          if (code > 255) break;
        }
        cooked.push_back(static_cast<char>(code & 0xff));
        break;
      }
      case 'x': {
        unsigned code = 0;
        for (int i = 0; i < 2; ++i) {
          if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
            fail("bad hex escape");
          }
          code = code * 16 + hex_value(advance());
        }
        cooked.push_back(static_cast<char>(code));
        break;
      }
      case 'u': {
        unsigned code = 0;
        if (peek() == '{') {
          advance();
          while (!eof() && peek() != '}') {
            if (!lex::is_hex_digit_byte(uc(peek()))) {
              fail("bad unicode escape");
            }
            code = code * 16 + hex_value(advance());
          }
          if (!match('}')) fail("unterminated unicode escape");
        } else {
          for (int i = 0; i < 4; ++i) {
            if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
              fail("bad unicode escape");
            }
            code = code * 16 + hex_value(advance());
          }
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          cooked.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          cooked.push_back(static_cast<char>(0xc0 | (code >> 6)));
          cooked.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          cooked.push_back(static_cast<char>(0xe0 | (code >> 12)));
          cooked.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          cooked.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        break;
      }
      case '\n':  // line continuation
        break;
      case '\r':
        if (peek() == '\n') advance();
        break;
      default:
        cooked.push_back(esc);
    }
  }
  Token token = make_token(TokenType::kStringLiteral, start_offset, start_line,
                           start_column);
  token.value = dirty ? view_of(cooked) : slice(content_start, pos_ - 1);
  return token;
}

Token Lexer::scan_template() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;
  advance();  // opening backtick

  // Quasis are always verbatim source slices (escapes are kept raw);
  // substitution expressions come from scan_substitution(). Quasi text
  // between interesting bytes ('`', '\', '$', '\n') is skipped as a run.
  support::ArenaVec<std::string_view> quasis(*arena_);
  support::ArenaVec<std::string_view> expressions(*arena_);
  std::size_t chunk_start = pos_;
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
      quasis.push_back(slice(chunk_start, pos_ - 1));
      break;
    }
    if (c == '\\') {
      if (eof()) fail("unterminated template escape");
      advance();
      continue;
    }
    if (c == '$' && peek() == '{') {
      quasis.push_back(slice(chunk_start, pos_ - 1));
      advance();  // '{'
      expressions.push_back(scan_substitution());
      chunk_start = pos_;
    }
    // A newline was tracked by advance(); a '$' not followed by '{' is
    // plain quasi text.
  }

  Token token =
      make_token(TokenType::kTemplate, start_offset, start_line, start_column);
  token.value = token.raw;
  token.template_expressions =
      std::span<const std::string_view>(expressions.data(), expressions.size());
  token.template_quasis =
      std::span<const std::string_view>(quasis.data(), quasis.size());
  return token;
}

std::string_view Lexer::scan_substitution() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  const std::size_t expr_start = pos_;
  // Comment bytes are dropped from the expression: from the first
  // comment on, the text is copied into `cooked` up to each comment and
  // resumed at `copy_from` after it.
  support::ArenaVec<char> cooked(*arena_);
  bool dirty = false;
  std::size_t copy_from = expr_start;
  // Nesting state, kept in one loop because untrusted input chooses the
  // depth. Substitutions and nested templates alternate, so the levels
  // are: the open '{' count of the innermost substitution, the counts of
  // the substitutions enclosing it, and whether the scan is in the text
  // of a template nested in that innermost substitution.
  std::size_t braces = 0;
  std::vector<std::size_t> enclosing;
  bool in_quasi = false;
  while (true) {
    if (eof()) {
      fail(in_quasi ? "unterminated nested template"
                    : "unterminated template substitution");
    }
    const char c = advance();
    if (in_quasi) {
      if (c == '\\') {
        if (eof()) fail("unterminated escape");
        advance();
      } else if (c == '`') {
        in_quasi = false;
      } else if (c == '$' && peek() == '{') {
        advance();
        enclosing.push_back(braces);
        braces = 0;
        in_quasi = false;
      }
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      if (braces > 0) {
        --braces;
      } else if (enclosing.empty()) {
        break;
      } else {
        braces = enclosing.back();
        enclosing.pop_back();
        in_quasi = true;
      }
    } else if (c == '`') {
      in_quasi = true;
    } else if (c == '"' || c == '\'') {
      while (true) {
        if (eof()) fail("unterminated string in template substitution");
        const char s = advance();
        if (s == '\\') {
          if (eof()) fail("unterminated escape");
          advance();
        } else if (s == c) {
          break;
        }
      }
    } else if (c == '/' && (peek() == '/' || peek() == '*')) {
      cooked.append(data + copy_from, (pos_ - 1) - copy_from);
      dirty = true;
      if (peek() == '/') {
        skip_run(line_end(data, size, pos_) - pos_);
      } else {
        advance();
        while (!eof() && !(peek() == '*' && peek(1) == '/')) advance();
        if (!eof()) {
          advance();
          advance();
        }
      }
      copy_from = pos_;
    }
  }
  if (!dirty) return slice(expr_start, pos_ - 1);
  cooked.append(data + copy_from, (pos_ - 1) - copy_from);
  return view_of(cooked);
}

Token Lexer::scan_regex() {
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;
  advance();  // '/'
  // The pattern is always the verbatim slice between the delimiting
  // slashes (escapes are kept raw), so no cooking is ever needed.
  const std::size_t pattern_start = pos_;
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
  const std::string_view pattern = slice(pattern_start, pos_ - 1);
  const std::size_t flags_start = pos_;
  // Flags are ASCII id-part only (no >= 0x80 passthrough, unlike
  // identifier tails).
  while (!eof() && uc(peek()) < 0x80 && lex::is_id_part_byte(uc(peek()))) {
    advance();
  }

  Token token = make_token(TokenType::kRegularExpression, start_offset,
                           start_line, start_column);
  token.value = pattern;
  token.regex_flags = slice(flags_start, pos_);
  return token;
}

Token Lexer::scan_punctuator() {
  const std::size_t start_offset = pos_;
  const std::size_t start_line = line_;
  const std::size_t start_column = column_;

  // Table-driven longest match: a switch on the first byte with ordered
  // follower checks replaces the historical linear scan over the 57-entry
  // punctuator list. Every returned text is a string literal (static
  // storage), so the value view outlives every arena.
  const auto emit = [&](std::string_view text) {
    skip_run(text.size());
    Token token = make_token(TokenType::kPunctuator, start_offset, start_line,
                             start_column);
    token.value = text;
    return token;
  };
  const char c1 = peek();
  const char c2 = peek(1);
  const char c3 = peek(2);
  switch (c1) {
    case '{': return emit("{");
    case '}': return emit("}");
    case '(': return emit("(");
    case ')': return emit(")");
    case '[': return emit("[");
    case ']': return emit("]");
    case ';': return emit(";");
    case ',': return emit(",");
    case ':': return emit(":");
    case '~': return emit("~");
    case '.':
      if (c2 == '.' && c3 == '.') return emit("...");
      return emit(".");
    case '<':
      if (c2 == '<') return emit(c3 == '=' ? "<<=" : "<<");
      if (c2 == '=') return emit("<=");
      return emit("<");
    case '>':
      if (c2 == '>') {
        if (c3 == '>') return emit(peek(3) == '=' ? ">>>=" : ">>>");
        return emit(c3 == '=' ? ">>=" : ">>");
      }
      if (c2 == '=') return emit(">=");
      return emit(">");
    case '=':
      if (c2 == '=') return emit(c3 == '=' ? "===" : "==");
      if (c2 == '>') return emit("=>");
      return emit("=");
    case '!':
      if (c2 == '=') return emit(c3 == '=' ? "!==" : "!=");
      return emit("!");
    case '+':
      if (c2 == '+') return emit("++");
      if (c2 == '=') return emit("+=");
      return emit("+");
    case '-':
      if (c2 == '-') return emit("--");
      if (c2 == '=') return emit("-=");
      return emit("-");
    case '*':
      if (c2 == '*') return emit(c3 == '=' ? "**=" : "**");
      if (c2 == '=') return emit("*=");
      return emit("*");
    case '/':
      if (c2 == '=') return emit("/=");
      return emit("/");
    case '%':
      if (c2 == '=') return emit("%=");
      return emit("%");
    case '&':
      if (c2 == '&') return emit(c3 == '=' ? "&&=" : "&&");
      if (c2 == '=') return emit("&=");
      return emit("&");
    case '|':
      if (c2 == '|') return emit(c3 == '=' ? "||=" : "||");
      if (c2 == '=') return emit("|=");
      return emit("|");
    case '^':
      if (c2 == '=') return emit("^=");
      return emit("^");
    case '?':
      if (c2 == '?') return emit(c3 == '=' ? "?\?=" : "??");
      if (c2 == '.') return emit("?.");
      return emit("?");
    default:
      break;
  }
  fail(std::string("unexpected character '") + peek() + "'");
}

std::vector<Token> Lexer::tokenize(std::string_view source,
                                   support::Arena& arena) {
  Lexer lexer(source, arena);
  std::vector<Token> tokens;
  while (true) {
    Token token = lexer.next();
    if (token.type == TokenType::kEndOfFile) break;
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace jst
