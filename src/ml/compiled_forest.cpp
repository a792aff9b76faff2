#include "ml/compiled_forest.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "support/error.h"

namespace jst::ml {

CompiledForest CompiledForest::compile(const RandomForest& forest) {
  if (!forest.trained()) {
    throw ModelError("CompiledForest::compile: forest not trained");
  }
  CompiledForest out;
  out.feature_count_ = forest.feature_count();

  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.node_count();
  }
  out.feature_.reserve(total_nodes);
  out.threshold_.reserve(total_nodes);
  out.left_.reserve(total_nodes);
  out.right_.reserve(total_nodes);
  out.leaf_value_.reserve(total_nodes);
  out.roots_.reserve(forest.tree_count());

  for (const DecisionTree& tree : forest.trees()) {
    const std::span<const DecisionTree::TreeNode> nodes = tree.nodes();
    if (nodes.empty()) {
      throw ModelError("CompiledForest::compile: empty tree");
    }
    // Child offsets are int16 and children lie inside their tree, so a
    // tree may hold at most 32768 nodes; jstraced-trained trees are
    // orders of magnitude below that.
    if (nodes.size() > 32768) {
      throw ModelError(
          "CompiledForest::compile: tree too large for compact node table");
    }
    if (tree.feature_count() != forest.feature_count()) {
      throw ModelError(
          "CompiledForest::compile: tree and forest feature counts differ");
    }
    const auto base = static_cast<std::int32_t>(out.feature_.size());
    out.roots_.push_back(static_cast<std::uint32_t>(base));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const DecisionTree::TreeNode& node = nodes[i];
      const auto self = static_cast<std::int32_t>(i);
      const bool internal = node.feature >= 0;
      if (internal) {
        if (static_cast<std::size_t>(node.feature) >= forest.feature_count() ||
            node.feature > 32767) {
          throw ModelError("CompiledForest::compile: node " +
                           std::to_string(i) + " reads feature " +
                           std::to_string(node.feature) + " of " +
                           std::to_string(forest.feature_count()));
        }
        const auto size = static_cast<std::int64_t>(nodes.size());
        if (node.left <= self || node.right <= self || node.left >= size ||
            node.right >= size) {
          throw ModelError("CompiledForest::compile: node " +
                           std::to_string(i) +
                           " has a child outside (node, tree end)");
        }
      }
      out.feature_.push_back(internal ? static_cast<std::int16_t>(node.feature)
                                      : std::int16_t{-1});
      out.threshold_.push_back(node.threshold);
      // Children are stored as offsets relative to the node itself; the
      // source indices are tree-local, so self-relative offsets survive
      // the concatenation unchanged. Leaves keep 0 (never followed).
      out.left_.push_back(internal ? static_cast<std::int16_t>(node.left - self)
                                   : std::int16_t{0});
      out.right_.push_back(internal
                               ? static_cast<std::int16_t>(node.right - self)
                               : std::int16_t{0});
      out.leaf_value_.push_back(node.value);
    }
  }
  return out;
}

double CompiledForest::predict_tree(std::uint32_t root,
                                    std::span<const float> row) const {
  const std::int16_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const std::int16_t* left = left_.data();
  const std::int16_t* right = right_.data();
  std::uint32_t index = root;
  std::int32_t f = feature[index];
  while (f >= 0) {
    const std::int32_t offset =
        row[static_cast<std::size_t>(f)] <= threshold[index] ? left[index]
                                                             : right[index];
    index += static_cast<std::uint32_t>(offset);
    f = feature[index];
  }
  return static_cast<double>(leaf_value_[index]);
}

double CompiledForest::predict_proba(std::span<const float> row) const {
  if (roots_.empty()) {
    throw ModelError("CompiledForest::predict before compile");
  }
  double total = 0.0;
  for (const std::uint32_t root : roots_) total += predict_tree(root, row);
  return total / static_cast<double>(roots_.size());
}

CompiledEnsemble CompiledEnsemble::compile(
    const MultiLabelClassifier& classifier, std::size_t feature_dimension) {
  if (classifier.label_count() == 0) {
    throw ModelError("CompiledEnsemble::compile: classifier not trained");
  }
  CompiledEnsemble out;
  out.chained_ = classifier.chained();
  out.chain_threshold_ = classifier.chain_threshold();
  const std::span<const RandomForest> forests = classifier.forests();
  out.forests_.reserve(forests.size());
  for (std::size_t j = 0; j < forests.size(); ++j) {
    // Chain position j sees the row plus the j upstream label bits.
    const std::size_t expected = feature_dimension + (out.chained_ ? j : 0);
    if (forests[j].feature_count() != expected) {
      throw ModelError("CompiledEnsemble::compile: forest " +
                       std::to_string(j) + " expects " +
                       std::to_string(forests[j].feature_count()) +
                       " features, the model's rows carry " +
                       std::to_string(expected));
    }
    out.forests_.push_back(CompiledForest::compile(forests[j]));
  }
  return out;
}

void CompiledEnsemble::predict_proba(std::span<const float> row,
                                     PredictScratch& scratch,
                                     std::vector<double>& out) const {
  if (forests_.empty()) {
    throw ModelError("CompiledEnsemble::predict before compile");
  }
  out.resize(forests_.size());
  if (!chained_) {
    for (std::size_t j = 0; j < forests_.size(); ++j) {
      out[j] = forests_[j].predict_proba(row);
    }
    return;
  }
  // Chain rule: position j sees the thresholded predictions of positions
  // [0, j-1] appended to the row, as ClassifierChain::fit appended the
  // ground-truth labels.
  scratch.extended.assign(row.begin(), row.end());
  for (std::size_t j = 0; j < forests_.size(); ++j) {
    out[j] = forests_[j].predict_proba(scratch.extended);
    if (j + 1 < forests_.size()) {
      scratch.extended.push_back(out[j] >= chain_threshold_ ? 1.0f : 0.0f);
    }
  }
}

std::vector<double> CompiledEnsemble::predict_proba(
    std::span<const float> row) const {
  PredictScratch scratch;
  std::vector<double> out;
  predict_proba(row, scratch, out);
  return out;
}

namespace {

// Ranks label indices into `order` by probability: stable, descending,
// ties keep label order.
void rank_labels(std::span<const double> probabilities,
                 std::vector<std::size_t>& order) {
  order.resize(probabilities.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return probabilities[a] > probabilities[b];
                   });
}

}  // namespace

void topk_thresholded(std::span<const double> probabilities, std::size_t k,
                      double threshold, std::vector<std::size_t>& order,
                      std::vector<std::size_t>& out) {
  rank_labels(probabilities, order);
  out.clear();
  for (std::size_t i = 0; i < order.size() && out.size() < k; ++i) {
    const std::size_t label = order[i];
    if (probabilities[label] >= threshold) out.push_back(label);
  }
}

void CompiledEnsemble::predict_topk(std::span<const float> row, std::size_t k,
                                    PredictScratch& scratch,
                                    std::vector<std::size_t>& out) const {
  predict_proba(row, scratch, scratch.proba);
  rank_labels(scratch.proba, scratch.order);
  const std::size_t take = std::min(k, scratch.order.size());
  out.assign(scratch.order.begin(),
             scratch.order.begin() + static_cast<std::ptrdiff_t>(take));
}

void CompiledEnsemble::predict_topk_thresholded(
    std::span<const float> row, std::size_t k, double threshold,
    PredictScratch& scratch, std::vector<std::size_t>& out) const {
  predict_proba(row, scratch, scratch.proba);
  topk_thresholded(scratch.proba, k, threshold, scratch.order, out);
}

}  // namespace jst::ml
