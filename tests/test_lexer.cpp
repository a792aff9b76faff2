#include <gtest/gtest.h>

#include <utility>

#include "lexer/lexer.h"

namespace jst {
namespace {

// Token payload views must outlive the returned vector, so the cooked
// storage lives in a test-lifetime arena. Source text is a string
// literal (static storage), so slice-backed payloads are always safe.
support::Arena& test_arena() {
  static support::Arena arena;
  return arena;
}

std::vector<Token> lex(std::string_view source) {
  return Lexer::tokenize(source, test_arena());
}

std::string_view value(const Token& token) {
  return token_value(token, test_arena());
}

// Raw text of every token, joined with '|'.
std::string raws(std::string_view source) {
  std::string joined;
  for (const Token& token : lex(source)) {
    if (!joined.empty()) joined += '|';
    joined += token.raw;
  }
  return joined;
}

TEST(Lexer, EmptyInput) {
  EXPECT_TRUE(lex("").empty());
  EXPECT_TRUE(lex("   \n\t ").empty());
}

TEST(Lexer, Identifiers) {
  const auto tokens = lex("foo _bar $baz x1");
  ASSERT_EQ(tokens.size(), 4u);
  for (const Token& token : tokens) {
    EXPECT_EQ(token.type, TokenType::kIdentifier);
  }
  EXPECT_EQ(value(tokens[0]), "foo");
  EXPECT_EQ(value(tokens[1]), "_bar");
  EXPECT_EQ(value(tokens[2]), "$baz");
}

TEST(Lexer, KeywordsAndLiteralWords) {
  const auto tokens = lex("if function true false null let async");
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[1].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[2].type, TokenType::kBooleanLiteral);
  EXPECT_EQ(tokens[3].type, TokenType::kBooleanLiteral);
  EXPECT_EQ(tokens[4].type, TokenType::kNullLiteral);
  // Contextual keywords stay identifiers.
  EXPECT_EQ(tokens[5].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[6].type, TokenType::kIdentifier);
}

TEST(Lexer, DecimalNumbers) {
  const auto tokens = lex("0 42 3.14 .5 1e3 2.5e-2");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[0]), 0.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[1]), 42.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[2]), 3.14);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[3]), 0.5);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[4]), 1000.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[5]), 0.025);
}

TEST(Lexer, RadixNumbers) {
  const auto tokens = lex("0x2a 0b101 0o17 017");
  EXPECT_DOUBLE_EQ(numeric_value(tokens[0]), 42.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[1]), 5.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[2]), 15.0);
  EXPECT_DOUBLE_EQ(numeric_value(tokens[3]), 15.0);  // legacy octal
}

TEST(Lexer, NumberFollowedByIdentifierFails) {
  EXPECT_THROW(lex("3foo"), ParseError);
}

TEST(Lexer, StringEscapes) {
  const auto tokens = lex(R"JS("a\nb" 'c\x41d' "B" "q\\")JS");
  EXPECT_EQ(value(tokens[0]), "a\nb");
  EXPECT_EQ(value(tokens[1]), "cAd");
  EXPECT_EQ(value(tokens[2]), "B");
  EXPECT_EQ(value(tokens[3]), "q\\");
}

TEST(Lexer, CodePointEscapes) {
  // A braced escape above U+FFFF encodes as four UTF-8 bytes; leading
  // zeros are allowed.
  EXPECT_EQ(value(lex(R"JS("\u{1F600}")JS")[0]), "\xf0\x9f\x98\x80");
  EXPECT_EQ(value(lex(R"JS("\u{0000041}")JS")[0]), "A");
  EXPECT_EQ(value(lex(R"JS("\u{10FFFF}\u{7FF}")JS")[0]),
            "\xf4\x8f\xbf\xbf\xdf\xbf");
  // No digits, or a value past U+10FFFF, is not a code point; a run of
  // digits long enough to wrap an unsigned accumulator is caught too.
  EXPECT_THROW(lex(R"JS("\u{}")JS"), ParseError);
  EXPECT_THROW(lex(R"JS("\u{110000}")JS"), ParseError);
  EXPECT_THROW(lex(R"JS("\u{100000000041}")JS"), ParseError);
  EXPECT_THROW(lex(R"JS(a\u{}b)JS"), ParseError);
}

TEST(Lexer, UnterminatedStringFails) {
  EXPECT_THROW(lex("\"abc"), ParseError);
  EXPECT_THROW(lex("\"abc\n\""), ParseError);
}

TEST(Lexer, TemplateLiteralSimple) {
  const auto tokens = lex("`hello`");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kTemplate);
  EXPECT_TRUE(opens_template(tokens[0]));
  EXPECT_TRUE(closes_template(tokens[0]));
  EXPECT_EQ(template_text(tokens[0]), "hello");
}

TEST(Lexer, TemplateLiteralWithSubstitutions) {
  // A head, a middle and a tail, with each substitution's own tokens
  // in between.
  const auto tokens = lex("`a ${x + 1} b ${y} c`");
  ASSERT_EQ(tokens.size(), 7u);
  for (const std::size_t i : {0u, 4u, 6u}) {
    EXPECT_EQ(tokens[i].type, TokenType::kTemplate) << i;
  }
  EXPECT_EQ(tokens[0].raw, "`a ${");
  EXPECT_TRUE(opens_template(tokens[0]));
  EXPECT_FALSE(closes_template(tokens[0]));
  EXPECT_EQ(tokens[4].raw, "} b ${");
  EXPECT_FALSE(opens_template(tokens[4]));
  EXPECT_FALSE(closes_template(tokens[4]));
  EXPECT_EQ(tokens[6].raw, "} c`");
  EXPECT_FALSE(opens_template(tokens[6]));
  EXPECT_TRUE(closes_template(tokens[6]));
  EXPECT_EQ(template_text(tokens[0]), "a ");
  EXPECT_EQ(template_text(tokens[4]), " b ");
  EXPECT_EQ(template_text(tokens[6]), " c");
  EXPECT_EQ(raws("`a ${x + 1} b ${y} c`"), "`a ${|x|+|1|} b ${|y|} c`");
}

TEST(Lexer, TemplateWithNestedBraces) {
  // Braces opened in a substitution close there; the unmatched '}'
  // resumes the template.
  EXPECT_EQ(raws("`v: ${ {a: {b: 1}}.a.b }`"),
            "`v: ${|{|a|:|{|b|:|1|}|}|.|a|.|b|}`");
}

TEST(Lexer, TemplateWithStringContainingBrace) {
  EXPECT_EQ(raws("`x ${ f(\"}\") } y`"), "`x ${|f|(|\"}\"|)|} y`");
}

TEST(Lexer, TemplateNestedSubstitutions) {
  // Nested levels balance braces, lex strings, escapes and comments with
  // the ordinary scanners, and close only on their own '}'.
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"`a${`b${ {c: 1}.c }`}`", "`a${|`b${|{|c|:|1|}|.|c|}`|}`"},
      {"`a${`b${\"}\"}`}`", "`a${|`b${|\"}\"|}`|}`"},
      {"`a${`\\`${'{'}`}`", "`a${|`\\`${|'{'|}`|}`"},
      {"`a${`b${x /* } */}`}`", "`a${|`b${|x|}`|}`"},
      {"`a${x // }\n}`", "`a${|x|}`"},
  };
  for (const auto& [source, expected] : cases) {
    EXPECT_EQ(raws(source), expected) << source;
  }
  EXPECT_THROW(lex("`a${`b"), ParseError);
  EXPECT_THROW(lex("`a${`b${c"), ParseError);
  EXPECT_THROW(lex("`a${`b${c}`"), ParseError);
}

TEST(Lexer, RegexInTemplateSubstitution) {
  // A head ends in an expression start, so '/' there begins a regex; a
  // tail ends an expression, so '/' after it divides.
  const auto tokens = lex("`${ /}/.test(s) }` / 2; `${/'/}`");
  ASSERT_EQ(tokens.size(), 14u);
  EXPECT_EQ(tokens[1].type, TokenType::kRegularExpression);
  EXPECT_EQ(tokens[1].raw, "/}/");
  EXPECT_EQ(tokens[7].raw, "}`");
  EXPECT_EQ(tokens[8].type, TokenType::kPunctuator);
  EXPECT_EQ(tokens[12].type, TokenType::kRegularExpression);
  EXPECT_EQ(tokens[12].raw, "/'/");
}

TEST(Lexer, RegexAfterOperator) {
  const auto tokens = lex("x = /ab+c/gi;");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[2].type, TokenType::kRegularExpression);
  EXPECT_EQ(value(tokens[2]), "ab+c");
  EXPECT_EQ(regex_flags(tokens[2]), "gi");
}

TEST(Lexer, DivisionAfterIdentifier) {
  const auto tokens = lex("a / b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::kPunctuator);
  EXPECT_EQ(value(tokens[1]), "/");
}

TEST(Lexer, RegexWithCharacterClassSlash) {
  const auto tokens = lex("var re = /[/]/;");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].type, TokenType::kRegularExpression);
  EXPECT_EQ(value(tokens[3]), "[/]");
}

TEST(Lexer, CommentsAreCounted) {
  support::Arena arena;
  Lexer lexer("// line\nx /* block\ncomment */ y", arena);
  std::vector<Token> tokens;
  while (true) {
    Token token = lexer.next();
    if (token.type == TokenType::kEndOfFile) break;
    tokens.push_back(token);
  }
  EXPECT_EQ(tokens.size(), 2u);
  EXPECT_EQ(lexer.comment_count(), 2u);
  EXPECT_GT(lexer.comment_bytes(), 10u);
}

TEST(Lexer, HtmlOpenCommentSkipped) {
  const auto tokens = lex("<!-- legacy\nx");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(value(tokens[0]), "x");
}

TEST(Lexer, MultiCharPunctuators) {
  const auto tokens = lex("a === b !== c >>> d ** e => f ?. g ?? h");
  std::vector<std::string> punctuators;
  for (const Token& token : tokens) {
    if (token.type == TokenType::kPunctuator) {
      punctuators.emplace_back(value(token));
    }
  }
  const std::vector<std::string> expected = {"===", "!==", ">>>", "**",
                                             "=>",  "?.",  "??"};
  EXPECT_EQ(punctuators, expected);
}

TEST(Lexer, CompoundAssignments) {
  const auto tokens = lex("a += 1; b <<= 2; c >>>= 3; d **= 4;");
  std::vector<std::string> ops;
  for (const Token& token : tokens) {
    if (token.type == TokenType::kPunctuator && value(token) != ";") {
      ops.emplace_back(value(token));
    }
  }
  const std::vector<std::string> expected = {"+=", "<<=", ">>>=", "**="};
  EXPECT_EQ(ops, expected);
}

TEST(Lexer, NewlineBeforeTracked) {
  const auto tokens = lex("a\nb c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_FALSE(tokens[0].newline_before);
  EXPECT_TRUE(tokens[1].newline_before);
  EXPECT_FALSE(tokens[2].newline_before);
}

TEST(Lexer, LineAndColumnTracking) {
  const auto tokens = lex("a\n  bb");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 2u);
}

TEST(Lexer, UnicodeEscapeInIdentifier) {
  const auto tokens = lex("\\u0061bc");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(value(tokens[0]), "abc");
}

TEST(Lexer, RawSlicePreserved) {
  constexpr std::string_view source = "  0x2A  ";
  const auto tokens = lex(source);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].raw, "0x2A");
  EXPECT_EQ(tokens[0].raw.data() - source.data(), 2);  // byte offset
}

TEST(Lexer, SourceSizeBoundKeepsPositionsInU32) {
  // Token lines and columns are u32 and a source of n bytes has up to
  // n + 1 lines, so parse_program and the Lexer reject larger sources
  // before lexing. Checked through the helper: no 4 GiB allocation.
  static_assert(kMaxLexableBytes + 1 ==
                std::numeric_limits<std::uint32_t>::max());
  EXPECT_NO_THROW(check_lexable_size(0));
  EXPECT_NO_THROW(check_lexable_size(kMaxLexableBytes));
  EXPECT_THROW(check_lexable_size(kMaxLexableBytes + 1), ParseError);
  EXPECT_THROW(check_lexable_size(std::size_t{1} << 32), ParseError);
  try {
    check_lexable_size(std::size_t{5} << 30);
    ADD_FAILURE() << "a 5 GiB source was accepted";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("5368709120 bytes"),
              std::string::npos)
        << error.what();
  }
}

TEST(Lexer, UnexpectedCharacterFails) {
  EXPECT_THROW(lex("a # b"), ParseError);
}

TEST(Lexer, RegexAfterKeywordReturn) {
  const auto tokens = lex("return /x/;");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::kRegularExpression);
}

TEST(Lexer, DivisionAfterCloseParen) {
  const auto tokens = lex("(a) / 2");
  bool has_division = false;
  for (const Token& token : tokens) {
    if (token.type == TokenType::kPunctuator && value(token) == "/") {
      has_division = true;
    }
  }
  EXPECT_TRUE(has_division);
}

}  // namespace
}  // namespace jst
