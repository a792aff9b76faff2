#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/dataset.h"
#include "analysis/detector.h"
#include "analysis/model_io.h"
#include "analysis/longitudinal.h"
#include "analysis/wild.h"
#include "parser/parser.h"
#include "support/snapshot_oracle.h"

namespace jst::analysis {
namespace {

using transform::Technique;

TEST(Labels, Level1FromTechniques) {
  EXPECT_TRUE(level1_from_techniques({}).regular);
  EXPECT_FALSE(level1_from_techniques({}).transformed());

  const Level1Truth minified =
      level1_from_techniques({Technique::kMinificationSimple});
  EXPECT_TRUE(minified.minified);
  EXPECT_FALSE(minified.obfuscated);
  EXPECT_TRUE(minified.transformed());

  const Level1Truth both = level1_from_techniques(
      {Technique::kMinificationSimple, Technique::kStringObfuscation});
  EXPECT_TRUE(both.minified);
  EXPECT_TRUE(both.obfuscated);
}

TEST(Labels, TechniqueRowRoundTrip) {
  const std::vector<Technique> techniques = {Technique::kGlobalArray,
                                             Technique::kDebugProtection};
  const auto row = technique_row(techniques);
  ASSERT_EQ(row.size(), transform::kTechniqueCount);
  EXPECT_EQ(row[static_cast<std::size_t>(Technique::kGlobalArray)], 1);
  EXPECT_EQ(row[static_cast<std::size_t>(Technique::kDebugProtection)], 1);
  std::size_t set_bits = 0;
  for (auto bit : row) set_bits += bit;
  EXPECT_EQ(set_bits, 2u);

  const auto indices = indices_from_techniques(techniques);
  EXPECT_EQ(techniques_from_indices(indices), techniques);
}

TEST(Dataset, RegularCorpusParsesAndCounts) {
  CorpusSpec spec;
  spec.regular_count = 12;
  spec.seed = 5;
  const auto corpus = generate_regular_corpus(spec);
  ASSERT_EQ(corpus.size(), 12u);
  for (const std::string& source : corpus) {
    EXPECT_TRUE(parses(source));
    EXPECT_GE(source.size(), 500u);
  }
}

TEST(Dataset, RegularCorpusDeterministic) {
  CorpusSpec spec;
  spec.regular_count = 4;
  spec.seed = 9;
  EXPECT_EQ(generate_regular_corpus(spec), generate_regular_corpus(spec));
}

TEST(Dataset, TransformedSampleLabels) {
  CorpusSpec spec;
  spec.regular_count = 1;
  const auto corpus = generate_regular_corpus(spec);
  Rng rng(3);
  const Sample sample = make_transformed_sample(
      corpus[0], Technique::kControlFlowFlattening, rng);
  EXPECT_TRUE(parses(sample.source));
  EXPECT_EQ(sample.techniques.size(), 3u);  // cff + id obf + min simple
  EXPECT_TRUE(sample.level1.obfuscated);
  EXPECT_TRUE(sample.level1.minified);
}

TEST(Dataset, MixedSampleHasUnionLabels) {
  CorpusSpec spec;
  spec.regular_count = 1;
  const auto corpus = generate_regular_corpus(spec);
  Rng rng(4);
  const Sample sample = make_mixed_sample(corpus[0], 3, rng);
  EXPECT_TRUE(parses(sample.source));
  EXPECT_GE(sample.techniques.size(), 3u);
  EXPECT_LE(sample.techniques.size(), 7u);
  EXPECT_TRUE(sample.level1.transformed());
}

TEST(Dataset, ApplyConfigurationKeepsHexNamesUnderMinification) {
  CorpusSpec spec;
  spec.regular_count = 1;
  const auto corpus = generate_regular_corpus(spec);
  Rng rng(5);
  const Sample sample = apply_configuration(
      corpus[0],
      {Technique::kIdentifierObfuscation, Technique::kMinificationSimple},
      rng);
  EXPECT_TRUE(parses(sample.source));
  EXPECT_NE(sample.source.find("_0x"), std::string::npos);
}

TEST(Dataset, FeatureTableAligned) {
  CorpusSpec spec;
  spec.regular_count = 3;
  const auto corpus = generate_regular_corpus(spec);
  std::vector<Sample> samples;
  for (const auto& source : corpus) samples.push_back(make_regular_sample(source));
  features::FeatureConfig config;
  config.ngram.hash_dim = 64;
  const FeatureTable table = extract_features(std::move(samples), config);
  EXPECT_EQ(table.rows.size(), 3u);
  EXPECT_EQ(table.samples.size(), 3u);
  EXPECT_EQ(table.rows[0].size(), features::feature_dimension(config));
}

TEST(Dataset, LabelMatrices) {
  std::vector<Sample> samples;
  Sample regular;
  regular.level1 = level1_from_techniques({});
  samples.push_back(regular);
  Sample transformed;
  transformed.techniques = {Technique::kMinificationSimple};
  transformed.level1 = level1_from_techniques(transformed.techniques);
  samples.push_back(transformed);

  const auto level1 = level1_labels(samples);
  EXPECT_EQ(level1[0], (std::vector<std::uint8_t>{1, 0, 0}));
  EXPECT_EQ(level1[1], (std::vector<std::uint8_t>{0, 1, 0}));
  const auto level2 = level2_labels(samples);
  EXPECT_EQ(level2[0][static_cast<std::size_t>(Technique::kMinificationSimple)],
            0);
  EXPECT_EQ(level2[1][static_cast<std::size_t>(Technique::kMinificationSimple)],
            1);
}

TEST(Wild, SpecsMatchPaperRates) {
  EXPECT_NEAR(alexa_spec().transformed_rate, 0.686, 1e-6);
  EXPECT_NEAR(npm_spec().transformed_rate, 0.087, 1e-6);
  EXPECT_NEAR(dnc_spec().transformed_rate, 0.6594, 1e-6);
  EXPECT_NEAR(hynek_spec().transformed_rate, 0.7307, 1e-6);
  EXPECT_NEAR(bsi_spec().transformed_rate, 0.2893, 1e-6);
}

TEST(Wild, SimulatedPopulationMatchesRate) {
  PopulationSpec spec = npm_spec();
  const auto samples = simulate_population(spec, 300, 7);
  ASSERT_EQ(samples.size(), 300u);
  std::size_t transformed = 0;
  for (const Sample& sample : samples) {
    if (sample.level1.transformed()) ++transformed;
    EXPECT_TRUE(parses(sample.source));
  }
  const double rate = static_cast<double>(transformed) / 300.0;
  EXPECT_NEAR(rate, spec.transformed_rate, 0.06);
}

TEST(Wild, MalwareBasesHaveLoaderMotifs) {
  Rng rng(8);
  bool saw_motif = false;
  for (int i = 0; i < 8 && !saw_motif; ++i) {
    const std::string base = generate_malware_base(rng);
    EXPECT_TRUE(parses(base));
    saw_motif = base.find("payload") != std::string::npos;
  }
  EXPECT_TRUE(saw_motif);
}

TEST(Wild, RankBucketsMonotonicAlexa) {
  const double top = alexa_rank_bucket_spec(0).transformed_rate;
  const double bottom = alexa_rank_bucket_spec(9).transformed_rate;
  EXPECT_GT(top, bottom);
}

TEST(Wild, NpmTopBucketLessTransformed) {
  const double top = npm_rank_bucket_spec(0).transformed_rate;
  const double later = npm_rank_bucket_spec(5).transformed_rate;
  EXPECT_LT(top * 2.0, later);  // at least 2x less likely (paper: 2.4-4.4x)
}

TEST(Longitudinal, MonthLabels) {
  EXPECT_EQ(month_label(0), "2015-05");
  EXPECT_EQ(month_label(7), "2015-12");
  EXPECT_EQ(month_label(8), "2016-01");
  EXPECT_EQ(month_label(64), "2020-09");
}

TEST(Longitudinal, AlexaTrendRises) {
  const double early = alexa_month_spec(0).transformed_rate;
  const double late = alexa_month_spec(64).transformed_rate;
  EXPECT_LT(early, late);
}

TEST(Longitudinal, NpmThreePhases) {
  // Average rates per phase follow 7.4% / 17.95% / 15.17%.
  double phase1 = 0.0;
  for (std::size_t m = 0; m < 12; ++m) {
    phase1 += npm_month_spec(m).transformed_rate;
  }
  phase1 /= 12;
  double phase2 = 0.0;
  for (std::size_t m = 12; m < 49; ++m) {
    phase2 += npm_month_spec(m).transformed_rate;
  }
  phase2 /= 37;
  EXPECT_LT(phase1, phase2);
  EXPECT_NEAR(phase1, 0.074, 0.03);
  EXPECT_NEAR(phase2, 0.1795, 0.03);
}

TEST(Longitudinal, MalwareWavesVary) {
  const PopulationSpec base = bsi_spec();
  double min_rate = 1.0;
  double max_rate = 0.0;
  for (std::size_t m = 0; m < 24; ++m) {
    const double rate = malware_month_spec(base, m).transformed_rate;
    min_rate = std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  EXPECT_GT(max_rate - min_rate, 0.08);  // strong monthly variation
}

TEST(Longitudinal, EvolveSnapshotMatchesFullDrawOracle) {
  // Refreshed-slot evolution against the full-draw form: same scripts in
  // the same slots, each string sized as the oracle's copy is, over the
  // Alexa, npm and malware month specs at the persistence extremes and
  // between them.
  const std::vector<PopulationSpec (*)(std::size_t)> months = {
      alexa_month_spec, npm_month_spec,
      [](std::size_t m) { return malware_month_spec(dnc_spec(), m); }};
  for (const auto month_spec : months) {
    std::vector<std::string> previous;
    for (const Sample& sample : simulate_population(month_spec(4), 24, 11)) {
      previous.push_back(sample.source);
    }
    const PopulationSpec spec = month_spec(5);
    for (const double persistence : {0.0, 0.3, 0.7, 1.0}) {
      for (const std::uint64_t seed : {1ULL, 42ULL, 0x5eedULL}) {
        const std::vector<std::string> next =
            evolve_snapshot(previous, spec, persistence, seed);
        const std::vector<std::string> expected =
            oracle::full_draw_evolve_snapshot(previous, spec, persistence,
                                              seed);
        ASSERT_EQ(next, expected) << spec.name << " persistence "
                                  << persistence << " seed " << seed;
        for (std::size_t i = 0; i < next.size(); ++i) {
          EXPECT_EQ(next[i].capacity(), expected[i].capacity())
              << spec.name << " slot " << i;
        }
      }
    }
  }
}

TEST(Detector, Level1RejectsWrongLabelWidth) {
  Level1Detector detector;
  std::vector<std::vector<float>> rows = {{0.f}, {1.f}};
  ml::LabelMatrix bad = {{1, 0}, {0, 1}};  // 2 columns, needs 3
  Rng rng(1);
  EXPECT_THROW(detector.fit(ml::Matrix{&rows}, bad, rng), ModelError);
}

TEST(Detector, Level2RejectsWrongLabelWidth) {
  Level2Detector detector;
  std::vector<std::vector<float>> rows = {{0.f}, {1.f}};
  ml::LabelMatrix bad = {{1, 0, 0}, {0, 1, 0}};
  Rng rng(2);
  EXPECT_THROW(detector.fit(ml::Matrix{&rows}, bad, rng), ModelError);
}

// --- versioned model header (shared by all persisted detectors) ---

// Fails with ModelError and asserts the message mentions every expected
// fragment (field name plus both values).
template <typename Fn>
void expect_model_error(Fn&& fn, std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected ModelError";
  } catch (const ModelError& error) {
    const std::string message = error.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in: " << message;
    }
  }
}

TEST(ModelHeader, WriteReadRoundTrip) {
  DetectorConfig config;
  const ModelHeader written = make_model_header("level1", config);
  std::stringstream stream;
  write_model_header(stream, written);
  const ModelHeader read = read_model_header(stream);
  EXPECT_EQ(read.version, ModelHeader::kFormatVersion);
  EXPECT_EQ(read.component, "level1");
  EXPECT_EQ(read.feature_dimension, written.feature_dimension);
  EXPECT_EQ(read.tree_count, written.tree_count);
  EXPECT_EQ(read.max_depth, written.max_depth);
  EXPECT_EQ(read.min_samples_split, written.min_samples_split);
  EXPECT_EQ(read.min_samples_leaf, written.min_samples_leaf);
  EXPECT_EQ(read.max_features, written.max_features);
  EXPECT_EQ(read.classifier_chain, written.classifier_chain);
}

TEST(ModelHeader, RejectsEmptyStreamAndBadMagic) {
  std::stringstream empty;
  expect_model_error([&empty] { read_model_header(empty); },
                     {"empty or truncated"});
  std::stringstream bad("jstraced-analyzer-v1 whatever");
  expect_model_error([&bad] { read_model_header(bad); },
                     {"unrecognized format", "jstraced-analyzer-v1"});
}

TEST(ModelHeader, RejectsUnsupportedVersionAndTruncation) {
  std::stringstream future("jstraced-model 99 level1 10 8 0 2 1 0 1");
  expect_model_error([&future] { read_model_header(future); },
                     {"unsupported format version 99"});
  std::stringstream cut("jstraced-model 2 level1 10 8");
  expect_model_error([&cut] { read_model_header(cut); },
                     {"truncated header"});
}

TEST(ModelHeader, CheckNamesFirstMismatchedField) {
  DetectorConfig config;
  std::stringstream stream;
  write_model_header(stream, make_model_header("level1", config));

  DetectorConfig other = config;
  other.forest.tree_count = config.forest.tree_count + 5;
  expect_model_error(
      [&] { check_model_header(stream, make_model_header("level1", other)); },
      {"model load (level1)", "tree_count",
       std::to_string(config.forest.tree_count).c_str()});
}

TEST(ModelHeader, CheckRejectsFeatureDimensionChange) {
  DetectorConfig config;
  std::stringstream stream;
  write_model_header(stream, make_model_header("level2", config));

  DetectorConfig other = config;
  other.features.ngram.hash_dim = config.features.ngram.hash_dim * 2;
  expect_model_error(
      [&] { check_model_header(stream, make_model_header("level2", other)); },
      {"model load (level2)", "feature_dimension"});
}

TEST(ModelHeader, CheckRejectsChainFlip) {
  DetectorConfig config;
  config.classifier_chain = true;
  std::stringstream stream;
  write_model_header(stream, make_model_header("analyzer", config));

  DetectorConfig other = config;
  other.classifier_chain = false;
  expect_model_error(
      [&] { check_model_header(stream, make_model_header("analyzer", other)); },
      {"classifier_chain", "chain", "independent"});
}

TEST(ModelHeader, CheckRejectsComponentMismatch) {
  DetectorConfig config;
  std::stringstream stream;
  write_model_header(stream, make_model_header("level2", config));
  expect_model_error(
      [&] { check_model_header(stream, make_model_header("level1", config)); },
      {"component", "level2", "level1"});
}

TEST(Detector, SaveLoadRoundTripAndMismatchDiagnostics) {
  // Fit a deliberately tiny level-1 forest, then exercise the load paths:
  // identical config succeeds; changed forest size / flipped chain /
  // swapped component all throw precise ModelErrors.
  DetectorConfig config;
  config.forest.tree_count = 3;
  config.features.ngram.hash_dim = 64;

  // Rows span the configured feature space (the model header records its
  // width, and load checks every forest against it); only the first
  // three columns carry signal.
  const std::size_t width = features::feature_dimension(config.features);
  Rng data_rng(11);
  std::vector<std::vector<float>> rows;
  ml::LabelMatrix labels;
  for (int i = 0; i < 24; ++i) {
    const float a = static_cast<float>(data_rng.uniform());
    std::vector<float> row(width, 0.0f);
    row[0] = a;
    row[1] = 1.0f - a;
    row[2] = static_cast<float>(data_rng.uniform());
    rows.push_back(std::move(row));
    const std::uint8_t transformed = a > 0.5f ? 1 : 0;
    labels.push_back({static_cast<std::uint8_t>(1 - transformed), transformed,
                      0});
  }
  Level1Detector detector(config);
  Rng fit_rng(12);
  detector.fit(ml::Matrix{&rows}, labels, fit_rng);

  std::stringstream saved;
  detector.save(saved);

  Level1Detector same(config);
  same.load(saved);
  const auto a = detector.predict(rows[0]);
  const auto b = same.predict(rows[0]);
  EXPECT_DOUBLE_EQ(a.p_minified, b.p_minified);

  DetectorConfig bigger = config;
  bigger.forest.tree_count = 9;
  Level1Detector mismatched(bigger);
  std::stringstream saved2;
  detector.save(saved2);
  expect_model_error([&] { mismatched.load(saved2); }, {"tree_count", "3", "9"});

  Level2Detector wrong_component(config);
  std::stringstream saved3;
  detector.save(saved3);
  expect_model_error([&] { wrong_component.load(saved3); },
                     {"component", "level1", "level2"});

  // Fitting on rows narrower than the configured feature space would
  // save a model whose header misstates its width.
  std::vector<std::vector<float>> narrow;
  for (const std::vector<float>& row : rows) {
    narrow.emplace_back(row.begin(), row.begin() + 3);
  }
  Level1Detector misfit(config);
  Rng misfit_rng(12);
  const std::string configured_width = std::to_string(width);
  expect_model_error(
      [&] { misfit.fit(ml::Matrix{&narrow}, labels, misfit_rng); },
      {"expects 3 features", configured_width.c_str()});
}

}  // namespace
}  // namespace jst::analysis
