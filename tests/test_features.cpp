#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "features/feature_extractor.h"
#include "support/feature_oracles.h"
#include "support/strings.h"
#include "transform/transform.h"

namespace jst {
namespace {

using features::FeatureConfig;

// The hand-picked block of `analysis` on its own.
std::vector<float> handpicked_block(const ScriptAnalysis& analysis) {
  FeatureConfig config;
  config.use_ngrams = false;
  features::ExtractScratch scratch;
  return features::extract_into(analysis, config, scratch);
}

// The hashed n-gram block of `analysis` on its own, `hash_dim` buckets.
std::vector<float> ngram_block(const ScriptAnalysis& analysis,
                               std::size_t hash_dim) {
  FeatureConfig config;
  config.use_handpicked = false;
  config.ngram.hash_dim = hash_dim;
  features::ExtractScratch scratch;
  return features::extract_into(analysis, config, scratch);
}

std::size_t name_index(std::string_view name) {
  const auto& names = features::handpicked_feature_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  ADD_FAILURE() << "unknown feature " << name;
  return 0;
}

float feature_of(std::string_view source, std::string_view name) {
  const ScriptAnalysis analysis = analyze_script(source);
  const std::vector<float> values = handpicked_block(analysis);
  return values[name_index(name)];
}

TEST(AnalysisPipeline, ParsesAndAugments) {
  const ScriptAnalysis analysis =
      analyze_script("var a = 1; if (a) { use(a); } else { other(); }");
  EXPECT_GT(analysis.parse.ast.node_count(), 5u);
  EXPECT_GT(analysis.control_flow.edge_count(), 0u);
  EXPECT_GT(analysis.data_flow.edge_count(), 0u);
}

TEST(AnalysisPipeline, OptionsDisableStages) {
  AnalysisOptions options;
  options.build_cfg = false;
  options.build_dataflow = false;
  const ScriptAnalysis analysis = analyze_script("if (a) b();", options);
  EXPECT_EQ(analysis.control_flow.edge_count(), 0u);
  EXPECT_EQ(analysis.data_flow.edge_count(), 0u);
}

TEST(Eligibility, SizeBounds) {
  EXPECT_FALSE(size_eligible(std::string(100, 'x')));
  EXPECT_TRUE(size_eligible(std::string(1000, 'x')));
  EXPECT_FALSE(size_eligible(std::string(3 * 1024 * 1024, 'x')));
}

TEST(Eligibility, RequiresInterestingNodes) {
  std::string boring = "var filler = 0;\n";
  while (boring.size() < 600) {
    boring += "var x" + std::to_string(boring.size()) + " = 1;\n";
  }
  const ScriptAnalysis boring_analysis = analyze_script(boring);
  EXPECT_FALSE(script_eligible(boring_analysis));

  const std::string interesting = boring + "function f() { return 1; }\n";
  const ScriptAnalysis ok_analysis = analyze_script(interesting);
  EXPECT_TRUE(script_eligible(ok_analysis));
}

TEST(Ngram, DimensionAndNormalization) {
  const ScriptAnalysis analysis =
      analyze_script("function f(a) { return a + 1; } f(2);");
  const std::vector<float> histogram = ngram_block(analysis, 64);
  ASSERT_EQ(histogram.size(), 64u);
  float total = 0.0f;
  for (float v : histogram) {
    EXPECT_GE(v, 0.0f);
    total += v;
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

TEST(Ngram, TinyTreeYieldsZeroVector) {
  const ScriptAnalysis analysis = analyze_script("x;");
  const auto histogram = ngram_block(analysis, 32);
  float total = 0.0f;
  for (float v : histogram) total += v;
  EXPECT_EQ(total, 0.0f);  // fewer than n nodes
}

TEST(Ngram, IdenticalStructureSameHistogram) {
  const ScriptAnalysis a = analyze_script("var a = f(1);");
  const ScriptAnalysis b = analyze_script("var zz = gg(7);");
  EXPECT_EQ(ngram_block(a, 512), ngram_block(b, 512));
}

TEST(Ngram, DifferentStructureDiffers) {
  const ScriptAnalysis a = analyze_script("var a = f(1); if (a) g();");
  const ScriptAnalysis b = analyze_script("while (x) { y += 1; }");
  EXPECT_NE(ngram_block(a, 512), ngram_block(b, 512));
}

// Oracle fingerprints of each block on its own: FNV-1a over the float
// bits of the block for a fixed set of generated programs, their
// minified forms, and a tree too small for one n-gram window. Captured
// from the standalone multi-walk hand-picked and n-gram extractors that
// preceded the single-pass extract_into; the hand-picked one again when
// template heads, middles and tails became tokens of their own (the
// token statistics moved).
std::vector<std::string> pinned_sources() {
  corpus::ProgramGenerator generator(31);
  std::vector<std::string> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(generator.generate());
    sources.push_back(transform::minify(sources.back()));
  }
  sources.push_back("x;");
  return sources;
}

void append_block(std::string& bits, const std::vector<float>& block) {
  bits.append(reinterpret_cast<const char*>(block.data()),
              block.size() * sizeof(float));
}

TEST(FeatureBlocks, HandpickedBlockPinned) {
  std::string bits;
  for (const std::string& source : pinned_sources()) {
    append_block(bits, handpicked_block(analyze_script(source)));
  }
  EXPECT_EQ(strings::fnv1a(bits), 0x16078d24a2531947ull);
}

TEST(FeatureBlocks, NgramBlockPinned) {
  const std::vector<std::string> sources = pinned_sources();
  const std::size_t dims[] = {32, 64, 512};
  const std::uint64_t oracles[] = {0x690f3d65b97cc091ull,
                                   0xcd31fff44f223e56ull,
                                   0xc80b5f85fcd76221ull};
  for (std::size_t d = 0; d < 3; ++d) {
    std::string bits;
    for (const std::string& source : sources) {
      append_block(bits, ngram_block(analyze_script(source), dims[d]));
    }
    EXPECT_EQ(strings::fnv1a(bits), oracles[d]) << "hash_dim " << dims[d];
  }
}

TEST(Handpicked, NamesMatchVectorSize) {
  const ScriptAnalysis analysis = analyze_script("var a = 1; use(a);");
  const std::vector<float> values = handpicked_block(analysis);
  EXPECT_EQ(values.size(), features::handpicked_feature_names().size());
}

TEST(Handpicked, AllFinite) {
  corpus::ProgramGenerator generator(5);
  for (int i = 0; i < 5; ++i) {
    const std::string program = generator.generate();
    const ScriptAnalysis analysis = analyze_script(program);
    for (float value : handpicked_block(analysis)) {
      EXPECT_TRUE(std::isfinite(value));
    }
  }
}

TEST(Handpicked, TernaryProportion) {
  EXPECT_GT(feature_of("var v = a ? b : c;", "ternary_proportion"), 0.0f);
  EXPECT_EQ(feature_of("var v = 1;", "ternary_proportion"), 0.0f);
}

TEST(Handpicked, DotVsBracketRatio) {
  const float all_dot = feature_of("a.b; c.d; e.f;", "dot_to_member_ratio");
  const float all_bracket =
      feature_of("a['b']; c['d'];", "dot_to_member_ratio");
  EXPECT_FLOAT_EQ(all_dot, 1.0f);
  EXPECT_FLOAT_EQ(all_bracket, 0.0f);
}

TEST(Handpicked, IdentifierLengthStats) {
  const float long_names = feature_of(
      "var veryLongIdentifierName = anotherExtremelyLongName;",
      "avg_identifier_length");
  const float short_names = feature_of("var a = b;", "avg_identifier_length");
  EXPECT_GT(long_names, short_names);
}

TEST(Handpicked, HexlikeIdentifiers) {
  EXPECT_GT(
      feature_of("var _0x1a2b3c = _0xdeadbe;", "hexlike_identifier_fraction"),
      0.9f);
  EXPECT_EQ(feature_of("var userName = count;", "hexlike_identifier_fraction"),
            0.0f);
}

TEST(Handpicked, BuiltinPresence) {
  EXPECT_EQ(feature_of("eval(code);", "has_eval"), 1.0f);
  EXPECT_EQ(feature_of("run(code);", "has_eval"), 0.0f);
  EXPECT_EQ(feature_of("var d = atob(s);", "has_atob"), 1.0f);
}

TEST(Handpicked, StringOperations) {
  EXPECT_GT(
      feature_of("s.split('').reverse().join('');", "string_ops_per_node"),
      0.0f);
}

TEST(Handpicked, DebuggerDensity) {
  EXPECT_GT(feature_of("while (true) { debugger; }", "debugger_per_node"),
            0.0f);
  EXPECT_GT(
      feature_of("while (true) { debugger; }", "debugger_in_loop_fraction"),
      0.9f);
}

TEST(Handpicked, SwitchInLoopSignature) {
  const std::string flattened =
      "function f() { var s = 0; while (true) { switch (s) { case 0: a(); "
      "continue; } break; } }";
  EXPECT_GT(feature_of(flattened, "switch_in_loop_per_function"), 0.0f);
  EXPECT_EQ(feature_of("function g() { switch (x) { case 1: a(); } }",
                       "switch_in_loop_per_function"),
            0.0f);
}

// The infinite loops' switch_in_loop count, read from the kReachSwitch
// bits of one extraction.
std::size_t switch_in_loop_count(const ScriptAnalysis& analysis) {
  features::ExtractScratch scratch;
  features::extract_into(analysis, FeatureConfig{}, scratch);
  return scratch.counters.switch_in_loop;
}

// 300 nested for(;;) loops around one switch: every loop's body holds the
// switch, so every loop counts, as the body-walking oracle says.
TEST(Handpicked, SwitchInLoopUnderNestedLoopsMatchesBodyWalk) {
  constexpr std::size_t kDepth = 300;
  std::string source;
  for (std::size_t i = 0; i < kDepth; ++i) source += "for(;;){";
  source += "switch(x){case 1:a();}";
  source.append(kDepth, '}');
  const ScriptAnalysis analysis = analyze_script(source);
  ASSERT_NE(analysis.parse.ast.root(), nullptr);
  EXPECT_EQ(switch_in_loop_count(analysis), kDepth);
  EXPECT_EQ(oracle::switch_in_loop(*analysis.parse.ast.root()), kDepth);
}

// The reach-bit count equals the body walk on generated programs, their
// flattened forms (switch dispatchers in while(true) loops) and loops
// whose switch sits in a nested function or outside the loop.
TEST(Handpicked, SwitchInLoopMatchesBodyWalkOracle) {
  std::vector<std::string> sources = pinned_sources();
  Rng rng(7);
  for (int i = 0; i < 4; ++i) {
    sources.push_back(transform::flatten_control_flow(sources[2 * i], rng));
  }
  sources.push_back("while (true) { f(function () { switch (a) {} }); }");
  sources.push_back("do { if (x) switch (y) { default: } } while (1);");
  sources.push_back("switch (s) { case 0: for (;;) { s++; } }");
  sources.push_back("for (;;) ; for (;x;) { switch (y) {} }");
  std::size_t flagged = 0;
  for (const std::string& source : sources) {
    const ScriptAnalysis analysis = analyze_script(source);
    ASSERT_NE(analysis.parse.ast.root(), nullptr) << source;
    const std::size_t count = switch_in_loop_count(analysis);
    EXPECT_EQ(count, oracle::switch_in_loop(*analysis.parse.ast.root()))
        << source;
    flagged += count;
  }
  EXPECT_GT(flagged, 4u);
}

TEST(Handpicked, CommentRatioReflectsComments) {
  const float commented = feature_of(
      "// a comment about things\n// more commentary here\nvar a = f(1);",
      "comment_byte_ratio");
  const float bare = feature_of("var a = f(1);", "comment_byte_ratio");
  EXPECT_GT(commented, bare);
}

TEST(Handpicked, FetchedFromStructureUsesDataflow) {
  const float fetched = feature_of(
      "var table = ['a', 'b', 'c']; use(table[0]); use(table[1]); use(table);",
      "fetched_from_structure_fraction");
  const float plain = feature_of("var n = 1; use(n); use(n);",
                                 "fetched_from_structure_fraction");
  EXPECT_GT(fetched, plain);
}

TEST(Handpicked, MinifiedVsPrettyCharsPerLine) {
  corpus::ProgramGenerator generator(9);
  const std::string pretty = generator.generate();
  const std::string compact = transform::minify(pretty);
  const ScriptAnalysis pretty_analysis = analyze_script(pretty);
  const ScriptAnalysis compact_analysis = analyze_script(compact);
  const std::size_t index = name_index("avg_chars_per_line");
  EXPECT_GT(handpicked_block(compact_analysis)[index],
            handpicked_block(pretty_analysis)[index] * 3);
}

TEST(Extractor, DimensionsMatchConfig) {
  FeatureConfig config;
  config.ngram.hash_dim = 128;
  EXPECT_EQ(features::feature_dimension(config),
            features::handpicked_feature_names().size() + 128);
  const std::vector<float> vec =
      features::extract_from_source("var a = f(1); if (a) g();", config);
  EXPECT_EQ(vec.size(), features::feature_dimension(config));
  EXPECT_EQ(features::feature_names(config).size(), vec.size());
}

TEST(Extractor, ConfigSubsets) {
  FeatureConfig ngrams_only;
  ngrams_only.use_handpicked = false;
  EXPECT_EQ(features::feature_dimension(ngrams_only),
            ngrams_only.ngram.hash_dim);
  FeatureConfig handpicked_only;
  handpicked_only.use_ngrams = false;
  EXPECT_EQ(features::feature_dimension(handpicked_only),
            features::handpicked_feature_names().size());
}

TEST(Extractor, DeterministicForSameInput) {
  FeatureConfig config;
  const std::string source = "function q(a) { return a * 2; } q(3);";
  EXPECT_EQ(features::extract_from_source(source, config),
            features::extract_from_source(source, config));
}

TEST(Extractor, SeparatesRegularFromMinified) {
  corpus::ProgramGenerator generator(11);
  const std::string pretty = generator.generate();
  const std::string compact = transform::minify(pretty);
  FeatureConfig config;
  const auto a = features::extract_from_source(pretty, config);
  const auto b = features::extract_from_source(compact, config);
  double distance = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    distance += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  EXPECT_GT(distance, 1.0);
}

}  // namespace
}  // namespace jst
