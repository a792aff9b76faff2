#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ml/compiled_forest.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/multilabel.h"
#include "ml/random_forest.h"
#include "support/strings.h"

namespace jst::ml {
namespace {

// Synthetic binary task: positive iff feature0 + feature1 > 1.
struct BinaryTask {
  std::vector<std::vector<float>> rows;
  std::vector<std::uint8_t> labels;
};

BinaryTask make_binary_task(std::size_t n, Rng& rng, double noise = 0.0) {
  BinaryTask task;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = static_cast<float>(rng.uniform());
    const float b = static_cast<float>(rng.uniform());
    const float distractor = static_cast<float>(rng.uniform());
    task.rows.push_back({a, b, distractor});
    bool positive = a + b > 1.0f;
    if (noise > 0.0 && rng.bernoulli(noise)) positive = !positive;
    task.labels.push_back(positive ? 1 : 0);
  }
  return task;
}

// Positive-class probability of one fitted tree, by walking its node
// table (production predicts through CompiledForest).
double tree_proba(const DecisionTree& tree, std::span<const float> row) {
  const std::span<const DecisionTree::TreeNode> nodes = tree.nodes();
  std::size_t index = 0;
  while (nodes[index].feature >= 0) {
    const DecisionTree::TreeNode& node = nodes[index];
    const float value = row[static_cast<std::size_t>(node.feature)];
    index = static_cast<std::size_t>(value <= node.threshold ? node.left
                                                             : node.right);
  }
  return nodes[index].value;
}

TEST(DecisionTree, LearnsSeparableTask) {
  Rng rng(1);
  const BinaryTask task = make_binary_task(600, rng);
  DecisionTree tree;
  std::vector<std::size_t> all(task.rows.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  TreeParams params;
  params.max_features = 3;
  tree.fit(Matrix{&task.rows}, task.labels, all, params, rng);

  const BinaryTask test = make_binary_task(200, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.rows.size(); ++i) {
    const bool predicted = tree_proba(tree, test.rows[i]) >= 0.5;
    if (predicted == (test.labels[i] == 1)) ++correct;
  }
  EXPECT_GT(correct, 180u);
}

TEST(DecisionTree, PureLeafProbabilities) {
  Rng rng(2);
  std::vector<std::vector<float>> rows = {{0.f}, {0.1f}, {0.9f}, {1.f}};
  std::vector<std::uint8_t> labels = {0, 0, 1, 1};
  std::vector<std::size_t> all = {0, 1, 2, 3};
  DecisionTree tree;
  TreeParams params;
  params.min_samples_split = 2;
  params.min_samples_leaf = 1;
  params.max_features = 1;
  tree.fit(Matrix{&rows}, labels, all, params, rng);
  EXPECT_DOUBLE_EQ(tree_proba(tree, std::vector<float>{0.0f}), 0.0);
  EXPECT_DOUBLE_EQ(tree_proba(tree, std::vector<float>{1.0f}), 1.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Rng rng(3);
  const BinaryTask task = make_binary_task(500, rng);
  std::vector<std::size_t> all(task.rows.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  TreeParams params;
  params.max_depth = 3;
  tree.fit(Matrix{&task.rows}, task.labels, all, params, rng);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, ThrowsOnEmptyFit) {
  DecisionTree tree;
  std::vector<std::vector<float>> rows;
  std::vector<std::uint8_t> labels;
  Rng rng(4);
  EXPECT_THROW(
      tree.fit(Matrix{&rows}, labels, std::vector<std::size_t>{}, {}, rng),
      ModelError);
}

TEST(DecisionTree, UnfittedTreeHasNoNodes) {
  DecisionTree tree;
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_TRUE(tree.nodes().empty());
}

TEST(DecisionTree, FeatureImportanceFindsSignal) {
  Rng rng(5);
  const BinaryTask task = make_binary_task(800, rng);
  std::vector<std::size_t> all(task.rows.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree;
  TreeParams params;
  params.max_features = 3;
  tree.fit(Matrix{&task.rows}, task.labels, all, params, rng);
  std::vector<double> importance;
  tree.add_feature_importance(importance);
  ASSERT_EQ(importance.size(), 3u);
  // The distractor must matter less than the true signal features.
  EXPECT_GT(importance[0] + importance[1], importance[2]);
}

TEST(DecisionTree, BootstrapFitMatchesOracle) {
  // Split finding switches between a presorted-column filter (large
  // nodes) and gather+sort (small nodes); both feed the split scan the
  // same sorted (value, label) sequence. The fit is pinned to the FNV-1a
  // of its binary serialization, captured while either finder could be
  // forced for the whole tree (all three choices produced these bytes).
  // Exercised on a bootstrap-style index multiset (duplicate rows)
  // because the presorted filter tracks membership by multiplicity.
  Rng data_rng(7);
  const BinaryTask task = make_binary_task(400, data_rng, 0.1);
  Rng bootstrap_rng(11);
  std::vector<std::size_t> bootstrap;
  for (std::size_t i = 0; i < task.rows.size(); ++i) {
    bootstrap.push_back(static_cast<std::size_t>(bootstrap_rng.uniform_int(
        0, static_cast<std::int64_t>(task.rows.size()) - 1)));
  }

  DecisionTree tree;
  TreeParams params;
  params.max_features = 2;
  Rng fit_rng(1234);
  tree.fit(Matrix{&task.rows}, task.labels, bootstrap, params, fit_rng);
  std::ostringstream bytes;
  tree.save(bytes);
  EXPECT_EQ(strings::fnv1a(bytes.str()), 0xba81ed72c23297d7ull);
}

TEST(RandomForest, FitMatchesOracle) {
  // Same pin end to end: a whole forest (bootstrap sampling, per-tree RNG
  // streams, parallel fit) serializes to the captured bytes.
  Rng data_rng(42);
  const BinaryTask task = make_binary_task(500, data_rng, 0.05);
  RandomForest forest;
  ForestParams params;
  params.tree_count = 8;
  Rng fit_rng(777);
  forest.fit(Matrix{&task.rows}, task.labels, params, fit_rng);
  std::ostringstream bytes;
  forest.save(bytes);
  EXPECT_EQ(strings::fnv1a(bytes.str()), 0x37c44bcadc137691ull);
}

TEST(RandomForest, BeatsNoiseOnNoisyTask) {
  Rng rng(6);
  const BinaryTask task = make_binary_task(800, rng, /*noise=*/0.1);
  RandomForest forest;
  ForestParams params;
  params.tree_count = 16;
  forest.fit(Matrix{&task.rows}, task.labels, params, rng);

  const CompiledForest compiled = CompiledForest::compile(forest);
  const BinaryTask test = make_binary_task(300, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.rows.size(); ++i) {
    const bool predicted = compiled.predict_proba(test.rows[i]) >= 0.5;
    if (predicted == (test.labels[i] == 1)) ++correct;
  }
  EXPECT_GT(correct, 260u);
}

TEST(RandomForest, ProbabilitiesInRange) {
  Rng rng(7);
  const BinaryTask task = make_binary_task(300, rng, 0.2);
  RandomForest forest;
  ForestParams params;
  params.tree_count = 8;
  forest.fit(Matrix{&task.rows}, task.labels, params, rng);
  const CompiledForest compiled = CompiledForest::compile(forest);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> row = {static_cast<float>(rng.uniform()),
                              static_cast<float>(rng.uniform()),
                              static_cast<float>(rng.uniform())};
    const double p = compiled.predict_proba(row);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, ImportancesNormalized) {
  Rng rng(8);
  const BinaryTask task = make_binary_task(400, rng);
  RandomForest forest;
  ForestParams params;
  params.tree_count = 8;
  forest.fit(Matrix{&task.rows}, task.labels, params, rng);
  const std::vector<double> importance = forest.feature_importance();
  double total = 0.0;
  for (double v : importance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForest, ParallelFitIsBitIdentical) {
  // Per-tree seeds are drawn serially before the fan-out, so the trained
  // forest must not depend on the thread count. Compare the serialized
  // models byte for byte and the probabilities exactly.
  Rng data_rng(42);
  const BinaryTask task = make_binary_task(500, data_rng, 0.05);
  const BinaryTask probes = make_binary_task(60, data_rng);

  const auto fit_with_threads = [&task](std::size_t threads) {
    RandomForest forest;
    ForestParams params;
    params.tree_count = 12;
    params.threads = threads;
    Rng fit_rng(777);
    forest.fit(Matrix{&task.rows}, task.labels, params, fit_rng);
    return forest;
  };

  const RandomForest serial = fit_with_threads(1);
  std::ostringstream serial_bytes;
  serial.save(serial_bytes);
  const CompiledForest serial_compiled = CompiledForest::compile(serial);

  for (std::size_t threads : {2u, 4u, 8u}) {
    const RandomForest parallel = fit_with_threads(threads);
    std::ostringstream parallel_bytes;
    parallel.save(parallel_bytes);
    EXPECT_EQ(parallel_bytes.str(), serial_bytes.str())
        << "threads=" << threads;
    const CompiledForest parallel_compiled = CompiledForest::compile(parallel);
    for (std::size_t i = 0; i < probes.rows.size(); ++i) {
      EXPECT_DOUBLE_EQ(parallel_compiled.predict_proba(probes.rows[i]),
                       serial_compiled.predict_proba(probes.rows[i]))
          << "threads=" << threads << " probe=" << i;
    }
  }
}

TEST(RandomForest, TrainedFlag) {
  RandomForest forest;
  EXPECT_FALSE(forest.trained());
  EXPECT_THROW(CompiledForest::compile(forest), ModelError);
}

// Multi-label task with correlated labels: label0 = f0 > 0.5,
// label1 = label0 (perfect correlation), label2 = f1 > 0.5.
struct MultiTask {
  std::vector<std::vector<float>> rows;
  LabelMatrix labels;
};

MultiTask make_multi_task(std::size_t n, Rng& rng) {
  MultiTask task;
  for (std::size_t i = 0; i < n; ++i) {
    const float f0 = static_cast<float>(rng.uniform());
    const float f1 = static_cast<float>(rng.uniform());
    task.rows.push_back({f0, f1});
    const std::uint8_t l0 = f0 > 0.5f;
    const std::uint8_t l2 = f1 > 0.5f;
    task.labels.push_back({l0, l0, l2});
  }
  return task;
}

TEST(BinaryRelevance, LearnsIndependentLabels) {
  Rng rng(9);
  const MultiTask task = make_multi_task(500, rng);
  BinaryRelevance classifier;
  ForestParams params;
  params.tree_count = 8;
  classifier.fit(Matrix{&task.rows}, task.labels, params, rng);
  EXPECT_EQ(classifier.label_count(), 3u);

  const std::vector<float> clearly_positive = {0.9f, 0.1f};
  const auto probabilities =
      CompiledEnsemble::compile(classifier, 2).predict_proba(clearly_positive);
  EXPECT_GT(probabilities[0], 0.7);
  EXPECT_GT(probabilities[1], 0.7);
  EXPECT_LT(probabilities[2], 0.3);
}

TEST(ClassifierChain, LearnsCorrelatedLabels) {
  Rng rng(10);
  const MultiTask task = make_multi_task(500, rng);
  ClassifierChain classifier;
  ForestParams params;
  params.tree_count = 8;
  classifier.fit(Matrix{&task.rows}, task.labels, params, rng);

  const std::vector<float> clearly_positive = {0.95f, 0.05f};
  const auto probabilities =
      CompiledEnsemble::compile(classifier, 2).predict_proba(clearly_positive);
  EXPECT_GT(probabilities[0], 0.7);
  EXPECT_GT(probabilities[1], 0.7);  // follows the chain
  EXPECT_LT(probabilities[2], 0.3);
}

TEST(MultiLabel, AllLabelsClearThreshold) {
  Rng rng(11);
  const MultiTask task = make_multi_task(400, rng);
  ClassifierChain classifier;
  ForestParams params;
  params.tree_count = 8;
  classifier.fit(Matrix{&task.rows}, task.labels, params, rng);
  const std::vector<float> row = {0.9f, 0.9f};
  const auto probabilities =
      CompiledEnsemble::compile(classifier, 2).predict_proba(row);
  ASSERT_EQ(probabilities.size(), 3u);
  for (const double p : probabilities) EXPECT_GE(p, 0.5);
}

TEST(MultiLabel, TopkOrdering) {
  Rng rng(12);
  const MultiTask task = make_multi_task(400, rng);
  ClassifierChain classifier;
  ForestParams params;
  params.tree_count = 8;
  classifier.fit(Matrix{&task.rows}, task.labels, params, rng);
  const std::vector<float> row = {0.9f, 0.1f};
  PredictScratch scratch;
  std::vector<std::size_t> top2;
  CompiledEnsemble::compile(classifier, 2).predict_topk(row, 2, scratch, top2);
  ASSERT_EQ(top2.size(), 2u);
  // Labels 0 and 1 are the confident ones.
  EXPECT_TRUE((top2[0] == 0 || top2[0] == 1));
  EXPECT_TRUE((top2[1] == 0 || top2[1] == 1));
}

TEST(MultiLabel, TopkThresholded) {
  Rng rng(13);
  const MultiTask task = make_multi_task(400, rng);
  ClassifierChain classifier;
  ForestParams params;
  params.tree_count = 8;
  classifier.fit(Matrix{&task.rows}, task.labels, params, rng);
  const std::vector<float> row = {0.9f, 0.1f};
  // With a high threshold only the confident labels remain, regardless of k.
  PredictScratch scratch;
  std::vector<std::size_t> picked;
  CompiledEnsemble::compile(classifier, 2)
      .predict_topk_thresholded(row, 3, 0.6, scratch, picked);
  EXPECT_LE(picked.size(), 2u);
  EXPECT_FALSE(picked.empty());
}

TEST(MultiLabel, RaggedLabelsRejected) {
  std::vector<std::vector<float>> rows = {{0.f}, {1.f}};
  LabelMatrix labels = {{1, 0}, {1}};
  BinaryRelevance classifier;
  Rng rng(14);
  EXPECT_THROW(classifier.fit(Matrix{&rows}, labels, {}, rng), ModelError);
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, SubsetAccuracy) {
  const std::vector<std::vector<std::size_t>> predicted = {{0, 1}, {2}, {}};
  const std::vector<std::vector<std::size_t>> truth = {{1, 0}, {2, 3}, {}};
  EXPECT_NEAR(subset_accuracy(predicted, truth), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, SubsetAccuracySizeMismatch) {
  EXPECT_THROW(subset_accuracy({{0}}, {{0}, {1}}), InvalidArgument);
}

TEST(Metrics, TopkCorrectness) {
  // Paper's example: truth {A,B,C}; Top-1 {B} correct, Top-2 {B,C} correct,
  // Top-3 {B,C,D} wrong.
  const std::vector<std::size_t> truth = {0, 1, 2};
  EXPECT_TRUE(topk_correct(std::vector<std::size_t>{1}, truth));
  EXPECT_TRUE(topk_correct(std::vector<std::size_t>{1, 2}, truth));
  EXPECT_FALSE(topk_correct(std::vector<std::size_t>{1, 2, 3}, truth));
  EXPECT_FALSE(topk_correct(std::vector<std::size_t>{}, truth));
}

TEST(Metrics, WrongAndMissingLabels) {
  const std::vector<std::size_t> predicted = {0, 3};
  const std::vector<std::size_t> truth = {0, 1, 2};
  EXPECT_EQ(wrong_labels(predicted, truth), 1u);
  EXPECT_EQ(missing_labels(predicted, truth), 2u);
}

TEST(Metrics, ConfusionMatrix) {
  BinaryConfusion confusion;
  confusion.add(true, true);
  confusion.add(true, false);
  confusion.add(false, true);
  confusion.add(false, false);
  EXPECT_DOUBLE_EQ(confusion.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(confusion.precision(), 0.5);
  EXPECT_DOUBLE_EQ(confusion.recall(), 0.5);
  EXPECT_DOUBLE_EQ(confusion.f1(), 0.5);
  EXPECT_EQ(confusion.total(), 4u);
}

TEST(Metrics, ConfusionEdgeCases) {
  BinaryConfusion confusion;
  EXPECT_DOUBLE_EQ(confusion.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(confusion.precision(), 0.0);
  EXPECT_DOUBLE_EQ(confusion.f1(), 0.0);
}

TEST(Metrics, BinaryAccuracy) {
  const bool predicted[] = {true, false, true};
  const bool truth[] = {true, true, true};
  EXPECT_NEAR(binary_accuracy(predicted, truth), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace jst::ml
