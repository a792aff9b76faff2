// Oracle suite for the compiled predictor, the single-pass feature
// extractor, and model loading. The compiled forest and extract_into are
// the only production paths; the multi-walk extractor, the per-tree
// reference forest walk, and the text model encoding they replaced are
// gone. Their outputs live on as FNV-1a fingerprints captured before the
// removal (feature rows, probabilities, decision-rule picks, model
// bytes), so every check below is exact — the fast paths must reproduce
// the reference bits, not approximate them. The ModelHardening cases
// feed crafted forest streams through load and compile: each must fail
// with ModelError, never abort, hang or read out of bounds. The suite
// carries the `robustness` label, so it also runs under the asan/ubsan
// presets and in the JST_THREADS=1/4 matrix.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/detector.h"
#include "analysis/labels.h"
#include "analysis/model_io.h"
#include "analysis/pipeline.h"
#include "features/feature_extractor.h"
#include "ml/compiled_forest.h"
#include "ml/multilabel.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/graph_oracles.h"
#include "support/rng.h"
#include "support/strings.h"
#include "transform/technique.h"

namespace jst {
namespace {

std::vector<std::vector<float>> random_rows(std::size_t count,
                                            std::size_t features, Rng& rng) {
  std::vector<std::vector<float>> rows(count);
  for (auto& row : rows) {
    row.resize(features);
    for (float& value : row) value = static_cast<float>(rng.uniform());
  }
  return rows;
}

std::vector<std::uint8_t> noisy_labels(
    const std::vector<std::vector<float>>& rows, Rng& rng) {
  std::vector<std::uint8_t> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bool positive = rows[i][0] + rows[i][1] > 1.0f;
    if (rng.bernoulli(0.1)) positive = !positive;
    labels[i] = positive ? 1 : 0;
  }
  return labels;
}

ml::RandomForest trained_forest(std::size_t tree_count, std::uint64_t seed,
                                std::vector<std::vector<float>>& rows_out) {
  Rng rng(seed);
  rows_out = random_rows(300, 5, rng);
  const std::vector<std::uint8_t> labels = noisy_labels(rows_out, rng);
  ml::RandomForest forest;
  ml::ForestParams params;
  params.tree_count = tree_count;
  forest.fit(ml::Matrix{&rows_out}, labels, params, rng);
  return forest;
}

// Oracle fingerprints: FNV-1a 64 over the raw bit patterns of what a
// test observes (feature rows, probabilities, decision-rule picks, model
// bytes). The constants below were captured from the reference paths —
// the multi-walk extractor, the per-tree forest walk — before they were
// removed.
template <typename T>
void append_bits(std::string& out, std::span<const T> values) {
  const std::uint64_t size = values.size();
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(T));
}

void append_bits(std::string& out, double value) {
  append_bits(out, std::span<const double>(&value, 1));
}

ml::LabelMatrix correlated_labels(const std::vector<std::vector<float>>& rows) {
  ml::LabelMatrix labels;
  labels.reserve(rows.size());
  for (const auto& row : rows) {
    const std::uint8_t l0 = row[0] > 0.5f;
    const std::uint8_t l2 = row[1] > 0.5f;
    labels.push_back({l0, l0, l2});
  }
  return labels;
}

// --- CompiledForest -------------------------------------------------------

TEST(CompiledForest, MatchesOracleOnRandomRows) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(20, 101, rows);
  const ml::CompiledForest compiled = ml::CompiledForest::compile(forest);
  EXPECT_EQ(compiled.tree_count(), forest.tree_count());
  EXPECT_EQ(compiled.feature_count(), forest.feature_count());

  Rng rng(102);
  const auto probes = random_rows(200, 5, rng);
  std::string bits;
  for (const auto& probe : probes) {
    append_bits(bits, compiled.predict_proba(probe));
  }
  EXPECT_EQ(strings::fnv1a(bits), 0x71860fb7c15b996bull);
}

TEST(CompiledForest, ErrorsOnUntrainedAndUncompiled) {
  EXPECT_THROW(ml::CompiledForest::compile(ml::RandomForest{}), ModelError);
  ml::CompiledForest not_compiled;
  EXPECT_FALSE(not_compiled.compiled());
  const std::vector<float> row = {0.5f};
  EXPECT_THROW(not_compiled.predict_proba(row), ModelError);
}

// --- CompiledEnsemble -----------------------------------------------------

// Fits `Classifier` on a seeded correlated-label task and pins the
// compiled ensemble's probabilities and decision-rule picks (thresholded
// label sets, thresholded top-k, plain top-k) to the oracles.
template <typename Classifier>
void expect_ensemble_matches_oracle(std::uint64_t seed,
                                    std::uint64_t proba_oracle,
                                    std::uint64_t picks_oracle) {
  Rng rng(seed);
  const auto rows = random_rows(300, 2, rng);
  const ml::LabelMatrix labels = correlated_labels(rows);
  Classifier classifier;
  ml::ForestParams params;
  params.tree_count = 8;
  classifier.fit(ml::Matrix{&rows}, labels, params, rng);

  const ml::CompiledEnsemble compiled =
      ml::CompiledEnsemble::compile(classifier, 2);
  EXPECT_EQ(compiled.label_count(), classifier.label_count());
  EXPECT_EQ(compiled.chained(), classifier.chained());

  ml::PredictScratch scratch;
  const auto probes = random_rows(60, 2, rng);
  std::string proba_bits;
  std::string pick_bits;
  for (const auto& probe : probes) {
    std::vector<double> proba;
    compiled.predict_proba(probe, scratch, proba);
    ASSERT_EQ(proba.size(), classifier.label_count());
    append_bits<double>(proba_bits, proba);

    std::vector<std::size_t> picked;
    for (const double threshold : {0.1, 0.5, 0.9}) {
      picked.clear();
      for (std::size_t j = 0; j < proba.size(); ++j) {
        if (proba[j] >= threshold) picked.push_back(j);
      }
      append_bits<std::size_t>(pick_bits, picked);
      for (const std::size_t k : {1u, 2u, 3u, 5u}) {
        compiled.predict_topk_thresholded(probe, k, threshold, scratch,
                                          picked);
        append_bits<std::size_t>(pick_bits, picked);
      }
    }
    for (const std::size_t k : {1u, 2u, 3u, 5u}) {
      compiled.predict_topk(probe, k, scratch, picked);
      append_bits<std::size_t>(pick_bits, picked);
    }
  }
  EXPECT_EQ(strings::fnv1a(proba_bits), proba_oracle);
  EXPECT_EQ(strings::fnv1a(pick_bits), picks_oracle);
}

TEST(CompiledEnsemble, BinaryRelevanceMatchesOracle) {
  expect_ensemble_matches_oracle<ml::BinaryRelevance>(
      201, 0x109b436e31884c5eull, 0x94aca27de37a11c6ull);
}

TEST(CompiledEnsemble, ClassifierChainMatchesOracle) {
  expect_ensemble_matches_oracle<ml::ClassifierChain>(
      202, 0x3775cae5144a0b9full, 0xc62b25d759475d06ull);
}

TEST(CompiledEnsemble, MatchesOracleAfterSaveLoad) {
  Rng rng(203);
  const auto rows = random_rows(250, 2, rng);
  const ml::LabelMatrix labels = correlated_labels(rows);
  ml::ClassifierChain original;
  ml::ForestParams params;
  params.tree_count = 6;
  original.fit(ml::Matrix{&rows}, labels, params, rng);

  std::stringstream stream;
  original.save(stream);
  EXPECT_EQ(strings::fnv1a(stream.str()), 0xf8b8e9d953d885a9ull);
  ml::ClassifierChain loaded;
  loaded.load(stream);

  const ml::CompiledEnsemble before =
      ml::CompiledEnsemble::compile(original, 2);
  const ml::CompiledEnsemble after = ml::CompiledEnsemble::compile(loaded, 2);
  const auto probes = random_rows(40, 2, rng);
  std::string before_bits;
  std::string after_bits;
  for (const auto& probe : probes) {
    append_bits<double>(before_bits, before.predict_proba(probe));
    append_bits<double>(after_bits, after.predict_proba(probe));
  }
  EXPECT_EQ(strings::fnv1a(before_bits), 0x3c477d226f1e9decull);
  EXPECT_EQ(after_bits, before_bits);
}

TEST(CompiledEnsemble, RejectsForestsOfTheWrongWidth) {
  Rng rng(204);
  const auto rows = random_rows(80, 2, rng);
  ml::ClassifierChain chain;
  ml::ForestParams params;
  params.tree_count = 2;
  chain.fit(ml::Matrix{&rows}, correlated_labels(rows), params, rng);
  // Chain position j expects 2 + j features; any other row width is a
  // model/configuration mismatch.
  EXPECT_NO_THROW(ml::CompiledEnsemble::compile(chain, 2));
  EXPECT_THROW(ml::CompiledEnsemble::compile(chain, 3), ModelError);
  EXPECT_THROW(ml::CompiledEnsemble::compile(chain, 1), ModelError);
  EXPECT_THROW(ml::CompiledEnsemble::compile(ml::ClassifierChain{}, 2),
               ModelError);
}

// --- model encoding ---------------------------------------------------------

TEST(ModelEncoding, ForestRoundTripMatchesOracle) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(6, 301, rows);

  std::stringstream stream;
  forest.save(stream);
  const std::string bytes = stream.str();
  EXPECT_EQ(strings::fnv1a(bytes), 0x53013da7edc6d5f5ull);

  ml::RandomForest loaded;
  loaded.load(stream);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  EXPECT_EQ(loaded.feature_count(), forest.feature_count());
  std::ostringstream resaved;
  loaded.save(resaved);
  EXPECT_EQ(resaved.str(), bytes);

  const ml::CompiledForest compiled = ml::CompiledForest::compile(loaded);
  Rng rng(302);
  const auto probes = random_rows(50, 5, rng);
  std::string bits;
  for (const auto& probe : probes) {
    append_bits(bits, compiled.predict_proba(probe));
  }
  EXPECT_EQ(strings::fnv1a(bits), 0xbc749870b41d35a0ull);
}

TEST(ModelEncoding, TruncatedStreamThrows) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(4, 303, rows);
  std::ostringstream out;
  forest.save(out);
  const std::string bytes = out.str();
  for (const std::size_t keep :
       {bytes.size() / 2, bytes.size() - 1, std::size_t{24}}) {
    std::istringstream truncated(bytes.substr(0, keep));
    ml::RandomForest loaded;
    EXPECT_THROW(loaded.load(truncated), ModelError) << "keep=" << keep;
  }
}

TEST(ModelEncoding, UnknownMagicThrows) {
  // The retired text encoding's magic is as foreign as any other.
  for (const std::string magic : {"jstraced-forest-v9", "jstraced-forest-v1"}) {
    std::istringstream stream(magic + " garbage");
    ml::RandomForest forest;
    try {
      forest.load(stream);
      FAIL() << "expected ModelError";
    } catch (const ModelError& error) {
      // The mismatch error must name the unrecognized magic.
      EXPECT_NE(std::string(error.what()).find(magic), std::string::npos);
    }
  }
}

// --- model hardening --------------------------------------------------------

using TreeNode = ml::DecisionTree::TreeNode;

void append_u64(std::string& out, std::uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// A hand-assembled one-tree "jstraced-forest-v2b" payload. `node_count`
// is written as given, so it may disagree with `nodes`.
std::string crafted_forest(std::uint64_t feature_count,
                           std::uint64_t node_count,
                           const std::vector<TreeNode>& nodes) {
  std::string out = "jstraced-forest-v2b\n";
  append_u64(out, 1);  // tree count
  append_u64(out, feature_count);
  append_u64(out, node_count);
  append_u64(out, 1);  // depth
  append_u64(out, feature_count);
  out.append(reinterpret_cast<const char*>(nodes.data()),
             nodes.size() * sizeof(TreeNode));
  return out;
}

TreeNode leaf(float value) {
  TreeNode node;
  node.value = value;
  return node;
}

TreeNode split(std::int32_t feature, std::int32_t left, std::int32_t right) {
  TreeNode node;
  node.feature = feature;
  node.threshold = 0.5f;
  node.left = left;
  node.right = right;
  return node;
}

struct CraftedCase {
  const char* name;
  std::string forest;
  const char* message;  // fragment the ModelError must carry
};

// The three hostile node tables, each on a 2-feature forest: a node count
// that would size a 24 TiB allocation, an internal node whose children
// point back at itself (an endless walk), and a feature index far past
// the row (an out-of-bounds read).
std::vector<CraftedCase> crafted_cases() {
  return {
      {"huge node count",
       crafted_forest(2, std::uint64_t{1} << 40, {leaf(0.5f)}),
       "tree node count"},
      {"self-referencing children",
       crafted_forest(2, 2, {split(0, 0, 0), leaf(0.5f)}),
       "child outside"},
      {"feature index past the row",
       crafted_forest(2, 3, {split(30000, 1, 2), leaf(0.0f), leaf(1.0f)}),
       "feature 30000"},
  };
}

void expect_model_error(const std::function<void()>& action,
                        const char* fragment, const char* name) {
  try {
    action();
    ADD_FAILURE() << name << ": expected ModelError";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << name << ": " << error.what();
  }
}

TEST(ModelHardening, CraftedForestsFailLoadOrCompile) {
  for (const CraftedCase& crafted : crafted_cases()) {
    expect_model_error(
        [&] {
          std::istringstream stream(crafted.forest);
          ml::RandomForest forest;
          forest.load(stream);
          ml::CompiledForest::compile(forest);
        },
        crafted.message, crafted.name);
  }
  // The tree count is bounded by the bytes left, too.
  std::string huge_forest = "jstraced-forest-v2b\n";
  append_u64(huge_forest, std::uint64_t{1} << 40);
  append_u64(huge_forest, 2);
  expect_model_error(
      [&] {
        std::istringstream stream(huge_forest);
        ml::RandomForest().load(stream);
      },
      "forest tree count", "huge tree count");
}

TEST(ModelHardening, CraftedDetectorStreamsFailLoad) {
  // A level-1 detector over a 2-wide feature space (the n-gram block with
  // two buckets), so each crafted forest is width-consistent and only
  // its node table is hostile.
  analysis::DetectorConfig config;
  config.classifier_chain = false;
  config.features.use_handpicked = false;
  config.features.ngram.hash_dim = 2;
  config.forest.tree_count = 1;
  const std::string valid = crafted_forest(2, 1, {leaf(0.25f)});
  const auto detector_stream = [&](const std::string& forests,
                                   std::size_t forest_count) {
    std::ostringstream out;
    analysis::write_model_header(out,
                                 analysis::make_model_header("level1", config));
    out << "binary-relevance " << forest_count << '\n' << forests;
    return out.str();
  };

  {
    // Sanity: three well-formed forests load and predict.
    std::istringstream stream(detector_stream(valid + valid + valid, 3));
    analysis::Level1Detector detector(config);
    detector.load(stream);
    EXPECT_EQ(detector.predict(std::vector<float>{0.0f, 1.0f}).p_minified,
              0.25);
  }
  for (const CraftedCase& crafted : crafted_cases()) {
    expect_model_error(
        [&] {
          std::istringstream stream(
              detector_stream(crafted.forest + valid + valid, 3));
          analysis::Level1Detector(config).load(stream);
        },
        crafted.message, crafted.name);
  }
  expect_model_error(
      [&] {
        std::istringstream stream(
            detector_stream(valid, std::size_t{1} << 40));
        analysis::Level1Detector(config).load(stream);
      },
      "forest count", "huge forest count");
  expect_model_error(
      [&] {
        const std::string wide = crafted_forest(3, 1, {leaf(0.25f)});
        std::istringstream stream(detector_stream(wide + valid + valid, 3));
        analysis::Level1Detector(config).load(stream);
      },
      "expects 3 features", "forest wider than the rows");
  expect_model_error(
      [&] {
        std::istringstream stream(detector_stream(valid + valid, 2));
        analysis::Level1Detector(config).load(stream);
      },
      "labels", "too few labels");
}

TEST(ModelHardening, UntrainedDetectorThrows) {
  const std::vector<float> row(4, 0.0f);
  EXPECT_THROW(analysis::Level1Detector().predict(row), ModelError);
  EXPECT_THROW(analysis::Level2Detector().predict_proba(row), ModelError);
}

// --- fused feature extraction ---------------------------------------------

std::vector<std::string> seed_corpus() {
  analysis::CorpusSpec spec;
  spec.regular_count = 16;
  spec.seed = 424242;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  // Transformed variants: every technique applied to the first sources, so
  // the fused walk sees obfuscator-shaped trees (big arrays, hex names,
  // switch dispatchers), not just regular code.
  Rng rng(99);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    corpus.push_back(
        analysis::make_transformed_sample(corpus[base % 16], technique, rng)
            .source);
    ++base;
  }
  return corpus;
}

TEST(FusedExtraction, SeedCorpusMatchesOracle) {
  const std::vector<std::string> corpus = seed_corpus();
  const features::FeatureConfig config;
  // ONE scratch across the whole corpus: matching the oracle on every
  // script also proves reuse leaks no state from previous scripts.
  features::ExtractScratch scratch;
  std::string bits;
  for (const std::string& source : corpus) {
    const ScriptAnalysis analysis = analyze_script(source, config.analysis);
    const std::vector<float>& row =
        features::extract_into(analysis, config, scratch);
    ASSERT_EQ(row.size(), features::feature_dimension(config));
    append_bits<float>(bits, row);
  }
  EXPECT_EQ(strings::fnv1a(bits), 0xb4b56f959fba6445ull);
  EXPECT_EQ(scratch.uses, corpus.size());
  EXPECT_GT(scratch.capacity_bytes(), 0u);
}

TEST(FusedExtraction, SingleBlockConfigsMatchOracle) {
  const std::vector<std::string> corpus = seed_corpus();
  features::ExtractScratch scratch;
  // Oracles: hand-picked block only, then n-gram block only.
  const std::uint64_t oracles[2] = {0x93ecc46a9c6f5f20ull,
                                    0x7803797f37330bb0ull};
  for (std::size_t variant = 0; variant < 2; ++variant) {
    features::FeatureConfig config;
    config.use_handpicked = variant == 0;
    config.use_ngrams = variant == 1;
    std::string bits;
    for (const std::string& source : corpus) {
      const ScriptAnalysis analysis = analyze_script(source, config.analysis);
      append_bits<float>(bits,
                         features::extract_into(analysis, config, scratch));
    }
    EXPECT_EQ(strings::fnv1a(bits), oracles[variant]) << "variant " << variant;
  }
}

TEST(FusedExtraction, DataflowScratchDoesNotChangeAnalysis) {
  const std::vector<std::string> corpus = seed_corpus();
  DataFlowScratch dataflow_scratch;
  for (std::size_t i = 0; i < 6; ++i) {
    AnalysisOptions plain;
    AnalysisOptions reusing;
    reusing.dataflow_scratch = &dataflow_scratch;
    const ScriptAnalysis a = analyze_script(corpus[i], plain);
    const ScriptAnalysis b = analyze_script(corpus[i], reusing);
    EXPECT_EQ(a.data_flow.edge_count(), b.data_flow.edge_count())
        << "script " << i;
    EXPECT_EQ(oracle::graph_mismatch(a.parse.ast), "") << "script " << i;
    EXPECT_EQ(a.data_flow.unresolved_uses, b.data_flow.unresolved_uses);
  }
}

// --- detector routing ------------------------------------------------------

const analysis::TransformationAnalyzer& shared_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 20260806;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

TEST(CompiledDetector, PredictionsMatchOracle) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const features::FeatureConfig& config =
      analyzer.options().detector.features;
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_TRUE(analyzer.level1().compiled().compiled());
  ASSERT_TRUE(analyzer.level2().compiled().compiled());

  features::ExtractScratch extract_scratch;
  std::string level1_bits;
  std::string level2_bits;
  std::string technique_bits;
  for (std::size_t i = 0; i < 8; ++i) {
    const ScriptAnalysis analysis_result =
        analyze_script(corpus[corpus.size() - 1 - i], config.analysis);
    const std::vector<float>& row =
        features::extract_into(analysis_result, config, extract_scratch);

    const auto level1 = analyzer.level1().predict(row);
    const std::vector<double> level1_proba = {
        level1.p_regular, level1.p_minified, level1.p_obfuscated};
    append_bits<double>(level1_bits, level1_proba);
    append_bits<double>(level2_bits, analyzer.level2().predict_proba(row));
    append_bits<std::size_t>(
        technique_bits, analysis::indices_from_techniques(
                            analyzer.level2().predict_techniques(row)));
  }
  EXPECT_EQ(strings::fnv1a(level1_bits), 0xdb553884574a5e65ull);
  EXPECT_EQ(strings::fnv1a(level2_bits), 0x5dd5f532554d9f9bull);
  EXPECT_EQ(strings::fnv1a(technique_bits), 0x104c39642385c1ecull);
}

TEST(CompiledDetector, SaveLoadRoundTripKeepsPredictions) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  std::stringstream stream;
  analyzer.save(stream);
  // Pins the saved model bytes, and with them the result cache's
  // model fingerprint.
  EXPECT_EQ(strings::fnv1a(stream.str()), 0x1cbab2b04fd9362bull);

  analysis::TransformationAnalyzer loaded(analyzer.options());
  loaded.load(stream);

  const std::vector<std::string> corpus = seed_corpus();
  for (std::size_t i = 0; i < 4; ++i) {
    const analysis::ScriptReport a = analyzer.analyze(corpus[i]);
    const analysis::ScriptReport b = loaded.analyze(corpus[i]);
    EXPECT_EQ(a.level1.p_regular, b.level1.p_regular) << "script " << i;
    EXPECT_EQ(a.level1.p_minified, b.level1.p_minified);
    EXPECT_EQ(a.level1.p_obfuscated, b.level1.p_obfuscated);
    EXPECT_EQ(a.technique_confidence, b.technique_confidence);
    EXPECT_EQ(a.techniques, b.techniques);
  }
}

// --- scratch reuse ---------------------------------------------------------

TEST(ScriptScratch, ReusedScratchMatchesFreshAndRecordsMetrics) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const std::vector<std::string> corpus = seed_corpus();

  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_scratch_reuse_total");
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("jst_scratch_peak_bytes");
  const std::uint64_t reuses_before = reuses.value();

  analysis::ScriptScratch scratch;
  for (std::size_t i = 0; i < 6; ++i) {
    const analysis::ScriptOutcome reused =
        analyzer.analyze_outcome(corpus[i], ResourceLimits{}, scratch);
    analysis::ScriptScratch fresh;
    const analysis::ScriptOutcome baseline =
        analyzer.analyze_outcome(corpus[i], ResourceLimits{}, fresh);
    EXPECT_EQ(reused.status, baseline.status) << "script " << i;
    EXPECT_EQ(reused.report.level1.p_regular, baseline.report.level1.p_regular);
    EXPECT_EQ(reused.report.level1.p_minified,
              baseline.report.level1.p_minified);
    EXPECT_EQ(reused.report.level1.p_obfuscated,
              baseline.report.level1.p_obfuscated);
    EXPECT_EQ(reused.report.technique_confidence,
              baseline.report.technique_confidence);
    EXPECT_EQ(reused.report.techniques, baseline.report.techniques);
  }
  // 5 reuses of `scratch` (first use is a warm-up, not a reuse).
  EXPECT_GE(reuses.value() - reuses_before, 5u);
  EXPECT_GT(peak.value(), 0.0);
}

}  // namespace
}  // namespace jst
