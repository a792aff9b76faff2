// Lexical tokens for the JavaScript tokenizer.
//
// Mirrors Esprima's token taxonomy so that downstream token-level features
// match the paper's abstraction (§III-A: "we also leverage Esprima to
// collect lexical units (i.e., tokens)").
//
// A Token is a 32-byte record (DESIGN.md §12): the exact source slice, a
// u32 line and column, the type, and a dense u8 id for punctuators,
// keywords, the literal words and the contextual names the parser
// dispatches on. The raw slice points into the arena-stable copy of the
// source, so a Token is trivially copyable and never owns memory. Payloads
// that most tokens do not need — cooked text where unescaping changed it,
// numeric values, regex flags and template text — are recomputed from
// the raw slice on demand (lexer.h: token_value, numeric_value,
// regex_flags, template_text).
//
// As in Esprima, a template with substitutions is several kTemplate
// tokens — a head `a${, a middle }b${ per further substitution, a tail
// }c` — with each substitution's own tokens between them; a template
// without substitutions is one token.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jst {

enum class TokenType : std::uint8_t {
  kIdentifier,      // foo, let (contextual keywords stay identifiers)
  kKeyword,         // if, function, var, ...
  kBooleanLiteral,  // true / false
  kNullLiteral,     // null
  kNumericLiteral,  // 42, 0x2a, 3.14e-2, 0b101, 0o17
  kStringLiteral,   // 'a', "b"
  kTemplate,        // `text`, or a head `a${, middle }b${ or tail }c`
  kRegularExpression,
  kPunctuator,      // { } ( ) + === => ...
  kEndOfFile,
};

std::string_view token_type_name(TokenType type);

// Every id with its canonical text, in id order: punctuators, then the
// reserved keywords, then the literal words, then contextual names
// (identifiers the parser treats specially; they keep kIdentifier).
#define JST_TOKEN_IDS(X)                                                     \
  X(kNone, "")                                                               \
  X(kLBrace, "{") X(kRBrace, "}") X(kLParen, "(") X(kRParen, ")")            \
  X(kLBracket, "[") X(kRBracket, "]") X(kSemicolon, ";") X(kComma, ",")      \
  X(kColon, ":") X(kTilde, "~") X(kDot, ".") X(kEllipsis, "...")             \
  X(kLt, "<") X(kShl, "<<") X(kShlAssign, "<<=") X(kLe, "<=")                \
  X(kGt, ">") X(kShr, ">>") X(kShrAssign, ">>=") X(kUshr, ">>>")             \
  X(kUshrAssign, ">>>=") X(kGe, ">=")                                        \
  X(kAssign, "=") X(kEq, "==") X(kStrictEq, "===") X(kArrow, "=>")           \
  X(kNot, "!") X(kNe, "!=") X(kStrictNe, "!==")                              \
  X(kPlus, "+") X(kInc, "++") X(kPlusAssign, "+=")                           \
  X(kMinus, "-") X(kDec, "--") X(kMinusAssign, "-=")                         \
  X(kStar, "*") X(kExp, "**") X(kExpAssign, "**=") X(kStarAssign, "*=")      \
  X(kSlash, "/") X(kSlashAssign, "/=") X(kPercent, "%")                      \
  X(kPercentAssign, "%=")                                                    \
  X(kAmp, "&") X(kAnd, "&&") X(kAndAssign, "&&=") X(kAmpAssign, "&=")        \
  X(kPipe, "|") X(kOr, "||") X(kOrAssign, "||=") X(kPipeAssign, "|=")        \
  X(kCaret, "^") X(kCaretAssign, "^=")                                       \
  X(kQuestion, "?") X(kNullish, "??") X(kNullishAssign, "?\?=")              \
  X(kOptional, "?.")                                                         \
  X(kDo, "do") X(kIf, "if") X(kIn, "in") X(kFor, "for") X(kNew, "new")       \
  X(kTry, "try") X(kVar, "var") X(kCase, "case") X(kElse, "else")            \
  X(kThis, "this") X(kVoid, "void") X(kWith, "with") X(kBreak, "break")      \
  X(kCatch, "catch") X(kClass, "class") X(kConst, "const")                   \
  X(kSuper, "super") X(kThrow, "throw") X(kWhile, "while")                   \
  X(kYield, "yield") X(kDelete, "delete") X(kExport, "export")               \
  X(kImport, "import") X(kReturn, "return") X(kSwitch, "switch")             \
  X(kTypeof, "typeof") X(kDefault, "default") X(kExtends, "extends")         \
  X(kFinally, "finally") X(kContinue, "continue")                            \
  X(kDebugger, "debugger") X(kFunction, "function")                          \
  X(kInstanceof, "instanceof")                                               \
  X(kTrue, "true") X(kFalse, "false") X(kNull, "null")                       \
  X(kLet, "let") X(kAsync, "async") X(kAwait, "await") X(kOf, "of")          \
  X(kGet, "get") X(kSet, "set") X(kStatic, "static")

enum class TokenId : std::uint8_t {
#define JST_TOKEN_ID_ENUM(name, text) name,
  JST_TOKEN_IDS(JST_TOKEN_ID_ENUM)
#undef JST_TOKEN_ID_ENUM
};

#define JST_TOKEN_ID_COUNT(name, text) +1
inline constexpr std::size_t kTokenIdCount =
    0 JST_TOKEN_IDS(JST_TOKEN_ID_COUNT);
#undef JST_TOKEN_ID_COUNT

inline constexpr std::array<std::string_view, kTokenIdCount> kTokenIdText = {
#define JST_TOKEN_ID_TEXT(name, text) std::string_view(text),
    JST_TOKEN_IDS(JST_TOKEN_ID_TEXT)
#undef JST_TOKEN_ID_TEXT
};

// Canonical text of an id (static storage; "" for kNone).
constexpr std::string_view token_id_text(TokenId id) {
  return kTokenIdText[static_cast<std::size_t>(id)];
}

constexpr bool is_keyword_id(TokenId id) {
  return id >= TokenId::kDo && id <= TokenId::kInstanceof;
}

struct Token {
  // Exact source slice.
  std::string_view raw;
  std::uint32_t line = 1;    // 1-based
  std::uint32_t column = 0;  // 0-based
  TokenType type = TokenType::kEndOfFile;
  TokenId id = TokenId::kNone;
  // True when a line terminator appears between the previous token and this
  // one (needed for automatic semicolon insertion).
  bool newline_before = false;
  // True when the identifier or string contains escapes, so its cooked
  // value is not a slice of `raw` and token_value() decodes it again.
  bool escaped = false;
};

static_assert(sizeof(Token) <= 32, "tokens are stored one per source byte "
                                   "on JSFuck input; keep them compact");

}  // namespace jst
