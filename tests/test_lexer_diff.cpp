// Lexer oracle suite (DESIGN.md §16): every hostile input below —
// JSFuck floods, megabyte literals, deep templates, every byte value at
// every alignment phase, trivia walls, unterminated forms, budget trips
// and a random soup — is fingerprinted in full (every Token field, the
// TokenStats the parser derives, comment accounting, error positions and
// budget trip points), and each TEST's fingerprints are pinned to one
// digest constant captured while the deleted SWAR and SSE2 block
// scanners still ran beside the scalar loops. The suite carries the
// `robustness` label so the asan/ubsan presets run the scan loops over
// these inputs under the sanitizers, and it runs in the JST_THREADS 1/4
// matrix alongside the other bit-identity gates.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hostile_inputs.h"
#include "lexer/lexer.h"
#include "parser/parser.h"
#include "support/arena.h"
#include "support/budget.h"
#include "support/rng.h"
#include "support/strings.h"

namespace jst {
namespace {

// The complete observable result of lexing one source: the full token
// stream (every field), comment accounting, the final line number, and —
// when the run failed or tripped a budget — the exact error. One string
// so a mismatch diffs readably in the gtest output.
std::string lex_fingerprint(const std::string& source,
                            const ResourceLimits& limits = {}) {
  support::Arena arena;
  Budget budget(limits);
  Lexer lexer(source, arena, limits.any_enabled() ? &budget : nullptr);
  std::string out;
  out.reserve(source.size() * 2);
  const auto append_number = [&out](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
  };
  try {
    std::size_t token_index = 0;
    while (true) {
      const Token token = lexer.next();
      if (token.type == TokenType::kEndOfFile) break;
      out += token_type_name(token.type);
      out += ' ';
      append_number(static_cast<double>(token.raw.data() - source.data()));
      out += ':';
      append_number(static_cast<double>(token.line));
      out += ':';
      append_number(static_cast<double>(token.column));
      out += token.newline_before ? " nl " : " - ";
      const std::string_view value = token_value(token, arena);
      out.append(value.data(), value.size());
      out += '\x1f';
      out.append(token.raw.data(), token.raw.size());
      out += '\x1f';
      if (token.type == TokenType::kNumericLiteral) {
        append_number(numeric_value(token));
      }
      if (token.type == TokenType::kRegularExpression) {
        const std::string_view flags = regex_flags(token);
        out.append(flags.data(), flags.size());
      }
      if (token.type == TokenType::kTemplate) {
        const std::string_view text = template_text(token);
        out += "q[";
        out.append(text.data(), text.size());
        out += ']';
      }
      out += '\n';
      ++token_index;
    }
    out += "eof tokens=";
    append_number(static_cast<double>(token_index));
  } catch (const ParseError& error) {
    out += "parse_error ";
    out += error.what();
  } catch (const BudgetExceeded& error) {
    out += "budget_trip ";
    out += error.what();
  }
  out += " comments=";
  out += std::to_string(lexer.comment_count());
  out += '/';
  out += std::to_string(lexer.comment_bytes());
  out += " line=";
  out += std::to_string(lexer.line());
  return out;
}

// Full-frontend fingerprint: parse_program's TokenStats and AST shape
// (the downstream consumers of the token stream).
std::string parse_fingerprint(const std::string& source) {
  support::Arena arena;
  try {
    const ParseResult result = parse_program(source, nullptr, &arena);
    std::string out = "nodes=" + std::to_string(result.ast.node_count());
    out += " tokens=" + std::to_string(result.token_stats.count);
    out += " punct=" + std::to_string(result.token_stats.punctuators);
    out += " maxline=" + std::to_string(result.token_stats.max_line_length);
    char raw[64];
    std::snprintf(raw, sizeof(raw), " raw=%.17g",
                  result.token_stats.raw_bytes);
    out += raw;
    out += " comments=" + std::to_string(result.comment_count);
    out += "/" + std::to_string(result.comment_bytes);
    out += " lines=" + std::to_string(result.source_lines);
    return out;
  } catch (const ParseError& error) {
    return std::string("parse_error ") + error.what();
  }
}

// Folds the fingerprint of every input a TEST lexes or parses, in order,
// into one FNV-1a digest: each fingerprint is hashed, and the hex digests
// are hashed again.
class Oracle {
 public:
  void lex(const std::string& source, const ResourceLimits& limits = {}) {
    add(lex_fingerprint(source, limits));
  }
  void parse(const std::string& source) { add(parse_fingerprint(source)); }
  std::uint64_t digest() const { return strings::fnv1a(digests_); }

 private:
  void add(const std::string& fingerprint) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(strings::fnv1a(fingerprint)));
    digests_ += hex;
  }
  std::string digests_;
};

// --- oracle constants -------------------------------------------------------
//
// One digest per TEST, captured while the lexer's scalar, SWAR and SSE2
// scan paths still agreed on every input, by running this suite with
// JST_PRINT_ORACLES=1. A change to any constant is a behavior change in
// the lexer and needs a deliberate re-capture, not a drive-by edit.

constexpr std::uint64_t kOracleJsFuckFloods = 0x63bfed4e7474d9dd;
constexpr std::uint64_t kOracleMegabyteStrings = 0xb7e1dca5fde73bef;
constexpr std::uint64_t kOracleDeepTemplates = 0x138d0a608cee035e;
constexpr std::uint64_t kOracleStringPayloadBytes = 0x919148bb394e0f46;
constexpr std::uint64_t kOracleStandaloneBytes = 0xd86cc644ddb629ca;
constexpr std::uint64_t kOracleTriviaWalls = 0x1b155925b1052aac;
constexpr std::uint64_t kOracleUnterminated = 0x8195ce66b8d26545;
constexpr std::uint64_t kOracleBudgetTrips = 0xfd632022cd9a3895;
constexpr std::uint64_t kOracleRandomSoup = 0x72dcf67689527776;

void expect_oracle(const char* label, std::uint64_t expected,
                   const Oracle& oracle) {
  if (std::getenv("JST_PRINT_ORACLES") != nullptr) {
    std::printf("constexpr std::uint64_t %s = 0x%llx;\n", label,
                static_cast<unsigned long long>(oracle.digest()));
    return;
  }
  EXPECT_EQ(expected, oracle.digest()) << label;
}

using hostile::deep_template;
using hostile::huge_string_literal;
using hostile::jsfuck_flood;

}  // namespace

// --- the suites -------------------------------------------------------------

TEST(LexerDiff, JsFuckFloods) {
  Oracle oracle;
  for (const std::size_t length : {64u, 4096u, 65536u}) {
    oracle.lex(jsfuck_flood(length, 0xf00d + length));
  }
  oracle.parse(jsfuck_flood(4096, 0xf00d));
  expect_oracle("kOracleJsFuckFloods", kOracleJsFuckFloods, oracle);
}

TEST(LexerDiff, MegabyteStringLiterals) {
  // Escape-free (one payload run, zero-copy view), sparse escapes
  // (dirty-path run appends), dense escapes (short runs), both quote
  // kinds.
  Oracle oracle;
  oracle.lex(huge_string_literal(1 << 20, 0, '"'));
  oracle.lex(huge_string_literal(1 << 20, 4097, '\''));
  oracle.lex(huge_string_literal(1 << 16, 3, '"'));
  oracle.parse(huge_string_literal(1 << 18, 0, '"'));
  expect_oracle("kOracleMegabyteStrings", kOracleMegabyteStrings, oracle);
}

TEST(LexerDiff, DeepTemplateNesting) {
  Oracle oracle;
  for (const std::size_t depth : {1u, 7u, 63u, 255u}) {
    oracle.lex(deep_template(depth));
  }
  oracle.parse(deep_template(31));
  expect_oracle("kOracleDeepTemplates", kOracleDeepTemplates, oracle);
}

TEST(LexerDiff, EveryByteValueInStringPayloads) {
  // All 256 byte values inside a double-quoted literal, escaping only the
  // bytes the grammar cannot carry raw ('"', '\\', '\n', '\r'). Repeated
  // at shifted alignments so every value crosses word and vector
  // boundaries in every lane position.
  Oracle oracle;
  std::string payload;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (c == '"') {
      payload += "\\\"";
    } else if (c == '\\') {
      payload += "\\\\";
    } else if (c == '\n') {
      payload += "\\n";
    } else if (c == '\r') {
      payload += "\\r";
    } else {
      payload += c;
    }
  }
  for (std::size_t shift = 0; shift < 17; ++shift) {
    std::string source = "var b = \"";
    source += std::string(shift, '=');
    for (int repeat = 0; repeat < 4; ++repeat) source += payload;
    source += "\";";
    oracle.lex(source);
  }
  expect_oracle("kOracleStringPayloadBytes", kOracleStringPayloadBytes, oracle);
}

TEST(LexerDiff, EveryByteValueStandalone) {
  // Each byte value alone after a valid statement: identical token-or-
  // error outcome (most high bytes are lexer errors — the error line and
  // column must match, too).
  Oracle oracle;
  for (int b = 1; b < 256; ++b) {
    std::string source = "var v = 1;\n";
    source += static_cast<char>(b);
    oracle.lex(source);
  }
  expect_oracle("kOracleStandaloneBytes", kOracleStandaloneBytes, oracle);
}

TEST(LexerDiff, IdentifierAndWhitespaceWalls) {
  // Identifier floods (ASCII and UTF-8 passthrough), whitespace walls
  // with '\r' islands, comment walls — the trivia run loops.
  Oracle oracle;
  std::string identifiers = "var ";
  for (int i = 0; i < 5000; ++i) {
    identifiers += "_a$9";
  }
  identifiers += "\xc3\xa9\xe2\x82\xac = 1;";
  oracle.lex(identifiers);

  std::string whitespace = "var\t\t  \f\v w";
  whitespace += std::string(10000, ' ');
  whitespace += "\r\n\r  = \r1;";
  oracle.lex(whitespace);

  std::string comments = "// " + std::string(8000, 'x') + "\n";
  comments += "/* " + std::string(8000, '*') + " */ var c = 1;\n";
  comments += "<!-- html comment " + std::string(100, '-') + "\nc;";
  oracle.lex(comments);
  oracle.parse(comments);
  expect_oracle("kOracleTriviaWalls", kOracleTriviaWalls, oracle);
}

TEST(LexerDiff, EscapePhasesAndUnterminatedErrors) {
  // Error positions must survive the run loops: unterminated
  // strings/templates/comments/regexes, newline-in-string at every
  // alignment phase, lone backslashes.
  Oracle oracle;
  for (std::size_t pad = 0; pad < 20; ++pad) {
    const std::string fill(pad, 'p');
    oracle.lex("var s = \"" + fill + "\nrest\";");
    oracle.lex("var s = \"" + fill);
    oracle.lex("var t = `" + fill);
    oracle.lex("/* " + fill);
    oracle.lex("var r = /" + fill);
    oracle.lex("var i = " + fill + "\\;");
  }
  expect_oracle("kOracleUnterminated", kOracleUnterminated, oracle);
}

TEST(LexerDiff, BudgetTripPointsIdentical) {
  // A tight token ceiling must trip at the same token (same
  // BudgetExceeded message, same observed count), on sources whose token
  // boundaries the run loops produce.
  Oracle oracle;
  ResourceLimits limits;
  limits.max_tokens = 100;
  oracle.lex(jsfuck_flood(4096, 0xbead), limits);
  oracle.lex(huge_string_literal(1 << 16, 5, '"'), limits);
  ResourceLimits generous;
  generous.max_tokens = 1 << 20;
  oracle.lex(deep_template(63), generous);
  expect_oracle("kOracleBudgetTrips", kOracleBudgetTrips, oracle);
}

TEST(LexerDiff, RandomizedMixedSources) {
  // Deterministic random soup over token kinds: 64 generated programs
  // (and the parser on a sample of them).
  Oracle oracle;
  Rng rng(0x5eed);
  for (int round = 0; round < 64; ++round) {
    std::string source;
    const int pieces = 20 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.uniform_int(0, 9)) {
        case 0: source += "var v" + std::to_string(i) + " = 1;"; break;
        case 1: source += "\"s" + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 40)), 's') + "\";";
          break;
        case 2: source += "`t${i" + std::to_string(i) + "}`;"; break;
        case 3: source += "// c" + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 30)), 'c') + "\n";
          break;
        case 4: source += "/* " + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 30)), 'b') + " */";
          break;
        case 5: source += "x = 0x" + std::to_string(rng.uniform_int(1, 9)) +
                          "f + .5e2;";
          break;
        case 6: source += "r = /[a-z\\]]+/gi;"; break;
        case 7: source += "o = {a: [1, 2], b: c ? d : e};"; break;
        case 8: source += std::string(
            static_cast<std::size_t>(rng.uniform_int(1, 12)), ' ');
          break;
        default: source += "f(a, b) >>> 2 !== 3;\n"; break;
      }
    }
    oracle.lex(source);
    if (round % 8 == 0) oracle.parse(source);
  }
  expect_oracle("kOracleRandomSoup", kOracleRandomSoup, oracle);
}

TEST(LexerDiff, TenThousandDeepTemplateLexesWithoutRecursing) {
  // Nesting depth is chosen by the input, so the lexer keeps the open
  // substitutions on an explicit stack rather than the call stack: the
  // 10 000 heads, the `1`, then the 10 000 tails.
  const std::string source = deep_template(10000);
  support::Arena arena;
  Lexer lexer(source, arena);
  for (int i = 0; i < 3; ++i) lexer.next();  // var t =
  for (std::size_t i = 10000; i-- > 0;) {
    const Token head = lexer.next();
    ASSERT_EQ(head.type, TokenType::kTemplate);
    ASSERT_EQ(head.raw, "`t" + std::to_string(i % 10) + "${");
  }
  EXPECT_EQ(token_value(lexer.next(), arena), "1");
  for (std::size_t i = 0; i < 10000; ++i) {
    const Token tail = lexer.next();
    ASSERT_EQ(tail.type, TokenType::kTemplate);
    ASSERT_EQ(tail.raw, "}u" + std::to_string(i % 10) + "`");
  }
  EXPECT_EQ(token_value(lexer.next(), arena), ";");
  EXPECT_EQ(lexer.next().type, TokenType::kEndOfFile);
}

}  // namespace jst
