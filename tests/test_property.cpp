// Property-based (parameterized) sweeps over seeds: invariants that must
// hold for every generated program and every transformation.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/dataset.h"
#include "ast/walk.h"
#include "cfg/cfg.h"
#include "codegen/codegen.h"
#include "corpus/generator.h"
#include "dataflow/dataflow.h"
#include "features/feature_extractor.h"
#include "parser/parser.h"
#include "support/graph_oracles.h"
#include "transform/transform.h"

namespace jst {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::string program() const {
    corpus::ProgramGenerator generator(GetParam());
    corpus::GeneratorOptions options;
    options.min_bytes = 900;
    return generator.generate(options);
  }
};

// Codegen is a structural fixed point: parse(print(parse(s))) preserves the
// pre-order node-kind sequence, in both printing modes.
TEST_P(SeedSweep, CodegenRoundtripPreservesStructure) {
  const std::string source = program();
  const ParseResult first = parse_program(source);
  const std::vector<NodeKind> original = preorder_kinds(first.ast.root());

  const std::string pretty = to_source(first.ast.root());
  const ParseResult second = parse_program(pretty);
  EXPECT_EQ(original, preorder_kinds(second.ast.root()));

  const std::string compact = to_minified_source(first.ast.root());
  const ParseResult third = parse_program(compact);
  EXPECT_EQ(original, preorder_kinds(third.ast.root()));
}

// Minified output is never larger than the original (comments/whitespace
// removal guarantees strict shrinkage for generated programs).
TEST_P(SeedSweep, MinificationShrinks) {
  const std::string source = program();
  EXPECT_LT(transform::minify(source).size(), source.size());
}

// Every technique yields parseable output, and the level-1 family of the
// labels matches the technique's family.
TEST_P(SeedSweep, EveryTechniqueParseable) {
  const std::string source = program();
  for (transform::Technique technique : transform::all_techniques()) {
    Rng rng(GetParam() ^ static_cast<std::uint64_t>(technique));
    const std::string out =
        transform::apply_technique(technique, source, rng);
    EXPECT_TRUE(parses(out)) << transform::technique_name(technique);
  }
}

// The reach-pruned, count-only graph passes equal the reference builders
// (support/graph_oracles.h) on the program and on every technique's
// output, and the reach bits equal a full recomputation.
TEST_P(SeedSweep, GraphCountsMatchReferenceForAllVariants) {
  const std::string source = program();
  std::vector<std::string> variants = {source};
  for (transform::Technique technique : transform::all_techniques()) {
    Rng rng(GetParam() ^ static_cast<std::uint64_t>(technique));
    variants.push_back(transform::apply_technique(technique, source, rng));
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const ParseResult parsed = parse_program(variants[i]);
    EXPECT_EQ(oracle::reach_mismatch(parsed.ast), "") << "variant " << i;
    EXPECT_EQ(oracle::graph_mismatch(parsed.ast), "") << "variant " << i;
  }
}

// CFG invariants: edges reference valid pre-order ids; no self-loops from
// sequencing (a node never flows to itself).
TEST_P(SeedSweep, CfgEdgesWellFormed) {
  const std::string source = program();
  ParseResult parsed = parse_program(source);
  const oracle::ControlFlow flow = oracle::build_control_flow(parsed.ast);
  const std::size_t node_count = parsed.ast.node_count();
  for (const auto& [from, to] : flow.edges) {
    EXPECT_LT(from, node_count);
    EXPECT_LT(to, node_count);
    EXPECT_NE(from, to);
  }
}

// Data-flow invariants: every edge links two Identifier nodes, the source
// being a declaration or write of the same name as the destination.
TEST_P(SeedSweep, DataFlowEdgesLinkIdentifiers) {
  const std::string source = program();
  ParseResult parsed = parse_program(source);
  const oracle::DataFlow flow = oracle::build_data_flow(parsed.ast);

  std::vector<const Node*> by_id(parsed.ast.node_count(), nullptr);
  walk_preorder(static_cast<const Node*>(parsed.ast.root()),
                [&by_id](const Node& node) { by_id[node.id] = &node; });
  for (const auto& [from, to] : flow.edges) {
    ASSERT_LT(from, by_id.size());
    ASSERT_LT(to, by_id.size());
    const Node* def = by_id[from];
    const Node* use = by_id[to];
    ASSERT_NE(def, nullptr);
    ASSERT_NE(use, nullptr);
    EXPECT_EQ(def->kind, NodeKind::kIdentifier);
    EXPECT_EQ(use->kind, NodeKind::kIdentifier);
    EXPECT_EQ(def->str_value, use->str_value);
  }
}

// Feature extraction yields finite values of stable dimensionality for
// regular and transformed variants alike.
TEST_P(SeedSweep, FeaturesFiniteForAllVariants) {
  const std::string source = program();
  features::FeatureConfig config;
  config.ngram.hash_dim = 64;

  std::vector<std::string> variants = {source};
  Rng rng(GetParam() * 31 + 7);
  variants.push_back(transform::minify(source));
  variants.push_back(transform::obfuscate_identifiers(source, rng));
  variants.push_back(transform::inject_dead_code(source, rng));

  for (const std::string& variant : variants) {
    const auto vec = features::extract_from_source(variant, config);
    ASSERT_EQ(vec.size(), features::feature_dimension(config));
    for (float value : vec) EXPECT_TRUE(std::isfinite(value));
  }
}

// Identifier obfuscation keeps the node-kind structure identical.
TEST_P(SeedSweep, IdentifierObfuscationStructurePreserving) {
  const std::string source = program();
  Rng rng(GetParam() + 17);
  const std::string out = transform::obfuscate_identifiers(source, rng);
  const ParseResult a = parse_program(source);
  const ParseResult b = parse_program(out);
  EXPECT_EQ(preorder_kinds(a.ast.root()).size(),
            preorder_kinds(b.ast.root()).size());
}

// Transformations are deterministic given the same seed.
TEST_P(SeedSweep, TransformsDeterministic) {
  const std::string source = program();
  Rng rng1(42);
  Rng rng2(42);
  EXPECT_EQ(transform::obfuscate_strings(source, rng1),
            transform::obfuscate_strings(source, rng2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// --- no-alphanumeric sweep over small payloads -----------------------------

class JsFuckSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(JsFuckSweep, EncodesToSixCharAlphabet) {
  const std::string out = transform::no_alnum_transform(GetParam());
  for (char c : out) {
    ASSERT_TRUE(c == '[' || c == ']' || c == '(' || c == ')' || c == '!' ||
                c == '+')
        << "char '" << c << "' in encoding of " << GetParam();
  }
  EXPECT_TRUE(parses(out));
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, JsFuckSweep,
    ::testing::Values("x(1);", "alert('hi');", "var a = \"B\";",
                      "if (x) { y(); }", "console.log(2 + 2);",
                      "var Z = '~!@#$%^&*';", "f(`tpl ${x}`);"));

// --- mixed-technique sweep ---------------------------------------------------

class MixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MixSweep, MixedSamplesParseAndCarryLabels) {
  corpus::ProgramGenerator generator(777);
  corpus::GeneratorOptions options;
  options.min_bytes = 900;
  const std::string source = generator.generate(options);
  Rng rng(GetParam() * 1000 + 1);
  const analysis::Sample sample =
      analysis::make_mixed_sample(source, GetParam(), rng);
  EXPECT_TRUE(parses(sample.source));
  EXPECT_GE(sample.techniques.size(), GetParam());
  EXPECT_TRUE(sample.level1.transformed());
}

INSTANTIATE_TEST_SUITE_P(TechniqueCounts, MixSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace jst
