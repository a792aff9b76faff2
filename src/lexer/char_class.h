// 256-entry character-class tables for the table-driven lexer.
//
// Two tables, both generated at compile time in char_class.cpp from the
// same predicates the scalar lexer historically used (DESIGN.md §16):
//
//  * kCharFlags — a bitmask per byte (whitespace, identifier start/part,
//    digit, hex digit, line terminator) that replaces the per-character
//    predicate calls in the scan loops with one indexed load.
//  * kCharClass — the token-start dispatch class consumed by
//    Lexer::next(): one load plus one indexed jump replaces the
//    if/else-if ladder over is_id_start/is_digit/quote/backtick/....
//
// The taxonomy is frozen by the bit-identity contract: a byte's class
// must route it to exactly the scan_* routine the ladder chose, so the
// tables are cross-checked entry-by-entry against the reference
// predicates by static_asserts in char_class.cpp and at runtime by the
// oracle suite (test_lexer_diff).
#pragma once

#include <array>
#include <cstdint>

namespace jst::lex {

enum CharFlag : std::uint8_t {
  kFlagWhitespace = 1u << 0,  // ' ' \t \v \f \r — trivia, never a newline
  kFlagIdStart = 1u << 1,     // A-Z a-z _ $
  kFlagIdPart = 1u << 2,      // id start + 0-9 + every byte >= 0x80
  kFlagDigit = 1u << 3,       // 0-9
  kFlagHexDigit = 1u << 4,    // 0-9 a-f A-F
  kFlagLineTerminator = 1u << 5,  // \n \r
};

// Token-start dispatch classes, ordered so the hot identifier/punctuator
// cases sit first in the jump table.
enum class CharClass : std::uint8_t {
  kIdStart,     // A-Z a-z _ $         -> scan_identifier_or_keyword
  kPunct,       // ( ) { } ; , + - ...  -> scan_punctuator
  kDigit,       // 0-9                  -> scan_number
  kQuote,       // " '                  -> scan_string
  kDot,         // .                    -> number if a digit follows
  kSlash,       // /                    -> regex or punctuator
  kBacktick,    // `                    -> scan_template
  kBackslash,   // backslash            -> \uXXXX-escaped identifier
  kWhitespace,  // ' ' \t \v \f \r      -> consumed by skip_trivia
  kNewline,     // \n                   -> trivia + newline_before
  kOther,       // bytes that never start a token -> unexpected-character
};

extern const std::array<std::uint8_t, 256> kCharFlags;
extern const std::array<CharClass, 256> kCharClass;

inline bool has_flag(unsigned char c, CharFlag flag) {
  return (kCharFlags[c] & flag) != 0;
}

inline bool is_id_start_byte(unsigned char c) {
  return has_flag(c, kFlagIdStart);
}
// Identifier continuation as the scalar loop accepted it: ASCII
// alphanumerics, '_', '$', and any byte >= 0x80 (UTF-8 identifiers in
// obfuscated code pass through verbatim).
inline bool is_id_part_byte(unsigned char c) { return has_flag(c, kFlagIdPart); }
inline bool is_digit_byte(unsigned char c) { return has_flag(c, kFlagDigit); }
inline bool is_hex_digit_byte(unsigned char c) {
  return has_flag(c, kFlagHexDigit);
}
inline bool is_line_terminator_byte(unsigned char c) {
  return has_flag(c, kFlagLineTerminator);
}

}  // namespace jst::lex
