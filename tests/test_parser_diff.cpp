// Parser oracle suite (DESIGN.md §16): the complete observable result of
// parsing — the ESTree JSON of the AST, its node count, and every
// ParseError's text, line and column — is fingerprinted for the seed
// corpus, each technique transform of it, tail-size scripts from the DNC
// population simulator, the hostile generators of test_lexer_diff and an
// arrow/paren soup, and each TEST's fingerprints are pinned to one
// FNV-1a digest constant. The constants were captured from the parser
// that dispatched on token text; the token and parser table rebuild must
// reproduce every one. The suite carries the `robustness` label so the
// asan/ubsan presets run the parser over these inputs under the
// sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/wild.h"
#include "ast/ast_json.h"
#include "corpus/snippets.h"
#include "hostile_inputs.h"
#include "parser/parser.h"
#include "support/rng.h"
#include "support/strings.h"
#include "transform/transform.h"

namespace jst {
namespace {

// The AST as ESTree JSON plus its node count, or the exact error.
std::string parse_fingerprint(const std::string& source) {
  try {
    const ParseResult result = parse_program(source);
    return ast_to_json(result.ast.root()) +
           " nodes=" + std::to_string(result.ast.node_count());
  } catch (const ParseError& error) {
    return std::string("parse_error ") + error.what() + " @" +
           std::to_string(error.line()) + ":" +
           std::to_string(error.column());
  }
}

// Folds the fingerprint of every input a TEST parses, in order, into one
// FNV-1a digest: each fingerprint is hashed, and the hex digests are
// hashed again.
class Oracle {
 public:
  void parse(const std::string& source) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      strings::fnv1a(parse_fingerprint(source))));
    digests_ += hex;
  }
  std::uint64_t digest() const { return strings::fnv1a(digests_); }

 private:
  std::string digests_;
};

// --- oracle constants -------------------------------------------------------
//
// One digest per TEST, captured by running this suite with
// JST_PRINT_ORACLES=1. A change to any constant is a behavior change in
// the parser and needs a deliberate re-capture, not a drive-by edit.

constexpr std::uint64_t kOracleSeedCorpus = 0x35f8abe02986a832;
constexpr std::uint64_t kOracleTechniqueTransforms = 0x9679ffef13c83750;
constexpr std::uint64_t kOracleTailScripts = 0x956f6bb85346f1c;
constexpr std::uint64_t kOracleHostileGenerators = 0x296f8312b6b5482e;
constexpr std::uint64_t kOracleArrowParenSoup = 0xed3897c3b9666fce;

void expect_oracle(const char* label, std::uint64_t expected,
                   const Oracle& oracle) {
  if (std::getenv("JST_PRINT_ORACLES") != nullptr) {
    std::printf("constexpr std::uint64_t %s = 0x%llx;\n", label,
                static_cast<unsigned long long>(oracle.digest()));
    return;
  }
  EXPECT_EQ(expected, oracle.digest()) << label;
}

}  // namespace

TEST(ParserDiff, SeedCorpus) {
  Oracle oracle;
  for (const std::string_view snippet : corpus::seed_snippets()) {
    oracle.parse(std::string(snippet));
  }
  expect_oracle("kOracleSeedCorpus", kOracleSeedCorpus, oracle);
}

TEST(ParserDiff, TechniqueTransforms) {
  Oracle oracle;
  std::uint64_t seed = 0x7a11;
  for (const std::string_view snippet : corpus::seed_snippets()) {
    for (const transform::Technique technique : transform::all_techniques()) {
      Rng rng(++seed);
      oracle.parse(transform::apply_technique(technique, snippet, rng));
    }
  }
  expect_oracle("kOracleTechniqueTransforms", kOracleTechniqueTransforms,
                oracle);
}

TEST(ParserDiff, TailSizeDncScripts) {
  // The §IV malware tail: scripts over 64 KiB from the DNC simulator are
  // no-alphanumeric floods, one token per byte. A packed script of the
  // same size stands in for the packer tail.
  const std::vector<analysis::Sample> samples =
      analysis::simulate_population(analysis::dnc_spec(), 300, 2);
  Oracle oracle;
  std::size_t floods = 0;
  std::string packer_payload;
  for (const analysis::Sample& sample : samples) {
    if (sample.source.size() > 64 * 1024) {
      if (floods < 2) oracle.parse(sample.source);
      ++floods;
    } else if (packer_payload.size() < 192 * 1024) {
      packer_payload += sample.source;
      packer_payload += '\n';
    }
  }
  ASSERT_GE(floods, 2u);
  Rng rng(0x9ac);
  const std::string packed = transform::pack(packer_payload, rng);
  ASSERT_GT(packed.size(), 64u * 1024);
  oracle.parse(packed);
  expect_oracle("kOracleTailScripts", kOracleTailScripts, oracle);
}

TEST(ParserDiff, HostileGenerators) {
  Oracle oracle;
  for (const std::size_t length : {64u, 4096u, 65536u}) {
    oracle.parse(hostile::jsfuck_flood(length, 0xf00d + length));
  }
  oracle.parse(hostile::huge_string_literal(1 << 18, 0, '"'));
  oracle.parse(hostile::huge_string_literal(1 << 16, 3, '\''));
  for (const std::size_t depth : {1u, 7u, 63u, 255u}) {
    oracle.parse(hostile::deep_template(depth));
  }
  // Unterminated and mismatched forms: every error position must hold.
  for (const char* source :
       {"var s = \"abc", "var t = `a${b", "f(a, b", "x = [1, 2", "{ a: 1",
        "if (a) {", "a ? b", "new", "a.", "(", ")", "]", "}", "a + + ;",
        "var = 1;", "function () {}", "for (;;", "x = {a b}", "`${}`"}) {
    oracle.parse(source);
  }
  // Nesting floods at and past the parser's recursion guard.
  for (const std::size_t depth : {100u, 699u, 700u, 5000u}) {
    oracle.parse(std::string(depth, '(') + "1" + std::string(depth, ')'));
    oracle.parse(std::string(depth, '[') + std::string(depth, ']'));
  }
  expect_oracle("kOracleHostileGenerators", kOracleHostileGenerators, oracle);
}

TEST(ParserDiff, ArrowParenSoup) {
  // Pins the arrow lookahead: a '(' starts an arrow head exactly when the
  // first bracket closing it, counting ( [ { alike, is followed by '=>'.
  Oracle oracle;
  for (const char* source :
       {"(a,b)=>c", "((a))", "f(a)(b)=>c", "async (x) => x", "(]",
        "(", "(a", "(a,b", "((a)", "(a]=>b", "(a}=>b", "([)]=>1",
        "(a)\n=>b", "(a) => (b) => c", "((a)) => b", "f((a) => a, (b))",
        "async(a)", "async (a) => { return a }", "async\n(a) => a",
        "(a, [b], {c}) => a", "(a = 1, ...b) => a", "(a, b) + c",
        "((((((a))))))", "(((a, b) => c))", "x = (a)(b)(c)",
        "({a}) => a", "([a, b]) => a + b", "() => {}", "() => ({})",
        "(a) => { (b) => c; }", "f(() => 1)((x) => x)", "(a)[0] => b",
        "a => b => c", "async a => a", "(a, b) => (c, d) => [e]"}) {
    oracle.parse(source);
  }
  expect_oracle("kOracleArrowParenSoup", kOracleArrowParenSoup, oracle);
}

}  // namespace jst
