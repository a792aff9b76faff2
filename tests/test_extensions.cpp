// Extension-surface tests: Esprima-style JSON serialization, the
// unmonitored transformation techniques (§II-C's generalization claim),
// and trained-model serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/pipeline.h"
#include "ast/ast_json.h"
#include "interp/interpreter.h"
#include "ml/compiled_forest.h"
#include "ml/random_forest.h"
#include "parser/parser.h"
#include "transform/transform.h"

namespace jst {
namespace {

// --- AST JSON -----------------------------------------------------------

TEST(AstJson, SimpleProgramShape) {
  const ParseResult parsed = parse_program("var a = 1;");
  const std::string json = ast_to_json(parsed.ast.root());
  EXPECT_NE(json.find("\"type\":\"Program\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"VariableDeclaration\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"var\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":1"), std::string::npos);
}

TEST(AstJson, OperatorsAndFlags) {
  const ParseResult parsed = parse_program("x = a + b; o.p; o['q']; i++;");
  const std::string json = ast_to_json(parsed.ast.root());
  EXPECT_NE(json.find("\"operator\":\"+\""), std::string::npos);
  EXPECT_NE(json.find("\"computed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"computed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"prefix\":false"), std::string::npos);
}

TEST(AstJson, NullSlotsSerializeAsNull) {
  const ParseResult parsed = parse_program("if (a) b();");
  const std::string json = ast_to_json(parsed.ast.root());
  EXPECT_NE(json.find("\"alternate\":null"), std::string::npos);
}

TEST(AstJson, FunctionsCarryParams) {
  const ParseResult parsed = parse_program("function f(a, b) { return a; }");
  const std::string json = ast_to_json(parsed.ast.root());
  EXPECT_NE(json.find("\"params\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"async\":false"), std::string::npos);
}

TEST(AstJson, PrettyModeIndents) {
  const ParseResult parsed = parse_program("var a = [1, 2];");
  const std::string pretty = ast_to_json(parsed.ast.root(), /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("  \"type\""), std::string::npos);
}

TEST(AstJson, EscapesStringContent) {
  const ParseResult parsed = parse_program(R"(var s = "a\"b";)");
  const std::string json = ast_to_json(parsed.ast.root());
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

// --- unmonitored techniques ----------------------------------------------

TEST(Unmonitored, FieldReferenceRewritesDots) {
  Rng rng(1);
  const std::string out = transform::obfuscate_field_references(
      "console.log(obj.first.second);", rng, 1.0);
  EXPECT_TRUE(parses(out));
  EXPECT_EQ(out.find(".first"), std::string::npos);
  EXPECT_NE(out.find("[\"first\"]"), std::string::npos);
  EXPECT_NE(out.find("[\"second\"]"), std::string::npos);
  // console.log itself is a member access too.
  EXPECT_NE(out.find("[\"log\"]"), std::string::npos);
}

TEST(Unmonitored, FieldReferencePreservesSemantics) {
  const char* fixture = R"JS(
    var account = { owner: { name: "ada" }, balance: 42 };
    console.log(account.owner.name + ":" + account.balance);
  )JS";
  const auto original = interp::run_program_source(fixture);
  ASSERT_TRUE(original.ok);
  Rng rng(2);
  const std::string out =
      transform::obfuscate_field_references(fixture, rng, 1.0);
  const auto after = interp::run_program_source(out);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(original.log, after.log);
}

TEST(Unmonitored, IntegerObfuscationHidesLiterals) {
  Rng rng(3);
  const std::string out =
      transform::obfuscate_integers("var port = 8080; var max = 255;", rng, 1.0);
  EXPECT_TRUE(parses(out));
  EXPECT_EQ(out.find("8080"), std::string::npos);
}

TEST(Unmonitored, IntegerObfuscationPreservesSemantics) {
  const char* fixture = R"JS(
    var total = 0;
    for (var i = 0; i < 10; i++) { total += 7; }
    console.log(total * 3 - 10);
  )JS";
  const auto original = interp::run_program_source(fixture);
  ASSERT_TRUE(original.ok);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::string out = transform::obfuscate_integers(fixture, rng, 1.0);
    const auto after = interp::run_program_source(out);
    ASSERT_TRUE(after.ok) << after.error << "\n" << out;
    EXPECT_EQ(original.log, after.log) << out;
  }
}

TEST(Unmonitored, PropertyKeysNotRewritten) {
  Rng rng(4);
  const std::string out =
      transform::obfuscate_integers("var o = { 3: 'x' }; use(o[3]);", rng, 1.0);
  EXPECT_TRUE(parses(out));
  EXPECT_NE(out.find("3: "), std::string::npos);  // key literal intact
}

// --- model serialization ---------------------------------------------------

TEST(Serialization, ForestRoundTrip) {
  Rng rng(5);
  std::vector<std::vector<float>> rows;
  std::vector<std::uint8_t> labels;
  for (int i = 0; i < 300; ++i) {
    const float a = static_cast<float>(rng.uniform());
    const float b = static_cast<float>(rng.uniform());
    rows.push_back({a, b});
    labels.push_back(a + b > 1.0f ? 1 : 0);
  }
  ml::RandomForest forest;
  ml::ForestParams params;
  params.tree_count = 8;
  forest.fit(ml::Matrix{&rows}, labels, params, rng);

  std::stringstream buffer;
  forest.save(buffer);
  ml::RandomForest restored;
  restored.load(buffer);

  const ml::CompiledForest original = ml::CompiledForest::compile(forest);
  const ml::CompiledForest reloaded = ml::CompiledForest::compile(restored);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> probe = {static_cast<float>(rng.uniform()),
                                static_cast<float>(rng.uniform())};
    EXPECT_DOUBLE_EQ(original.predict_proba(probe),
                     reloaded.predict_proba(probe));
  }
}

TEST(Serialization, ForestRejectsGarbage) {
  ml::RandomForest forest;
  std::stringstream buffer("not-a-forest 3");
  EXPECT_THROW(forest.load(buffer), ModelError);
}

TEST(Serialization, AnalyzerRoundTrip) {
  analysis::PipelineOptions options;
  options.training_regular_count = 24;
  options.per_technique_count = 5;
  options.detector.forest.tree_count = 8;
  options.detector.features.ngram.hash_dim = 128;
  analysis::TransformationAnalyzer analyzer(options);
  analyzer.train();

  std::stringstream buffer;
  analyzer.save(buffer);

  analysis::TransformationAnalyzer restored(options);
  EXPECT_FALSE(restored.trained());
  restored.load(buffer);
  EXPECT_TRUE(restored.trained());

  // Identical reports on a probe script.
  analysis::CorpusSpec spec;
  spec.regular_count = 1;
  spec.seed = 777;
  const std::string probe = analysis::generate_regular_corpus(spec)[0];
  const auto a = analyzer.analyze(probe);
  const auto b = restored.analyze(probe);
  EXPECT_EQ(a.level1.p_regular, b.level1.p_regular);
  EXPECT_EQ(a.level1.p_minified, b.level1.p_minified);
  EXPECT_EQ(a.technique_confidence, b.technique_confidence);
}

TEST(Serialization, AnalyzerRejectsDimensionMismatch) {
  analysis::PipelineOptions options;
  options.training_regular_count = 12;
  options.per_technique_count = 3;
  options.detector.forest.tree_count = 4;
  options.detector.features.ngram.hash_dim = 64;
  analysis::TransformationAnalyzer analyzer(options);
  analyzer.train();
  std::stringstream buffer;
  analyzer.save(buffer);

  options.detector.features.ngram.hash_dim = 128;  // different space
  analysis::TransformationAnalyzer other(options);
  EXPECT_THROW(other.load(buffer), ModelError);
}

TEST(Serialization, SaveBeforeTrainThrows) {
  analysis::TransformationAnalyzer analyzer;
  std::stringstream buffer;
  EXPECT_THROW(analyzer.save(buffer), ModelError);
}

}  // namespace
}  // namespace jst
