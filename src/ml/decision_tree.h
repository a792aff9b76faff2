// CART binary decision tree with probability estimates.
//
// Replaces the scikit-learn tree the paper builds on. Splits minimize Gini
// impurity; leaves store the positive-class fraction of their training
// samples, so a tree walk yields calibrated-ish probabilities that the
// forest averages. Prediction runs on the flattened node tables of
// compiled_forest.h; this class only fits, introspects and serializes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "support/rng.h"

namespace jst::ml {

// Row-major dense feature matrix view.
struct Matrix {
  const std::vector<std::vector<float>>* rows = nullptr;
  std::size_t row_count() const { return rows == nullptr ? 0 : rows->size(); }
  std::size_t column_count() const {
    return row_count() == 0 ? 0 : (*rows)[0].size();
  }
  float at(std::size_t row, std::size_t column) const {
    return (*rows)[row][column];
  }
};

struct TreeParams {
  std::size_t max_depth = 24;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 1;
  // Number of feature candidates per split; 0 = sqrt(feature count).
  std::size_t max_features = 0;
};

class DecisionTree {
 public:
  // One node of the fitted tree. Kept public (it is plain data) so the
  // compiled predictor (compiled_forest.h) can flatten the node table.
  struct TreeNode {
    std::int32_t feature = -1;       // -1 for leaves
    float threshold = 0.0f;          // go left when value <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    float value = 0.0f;              // leaf: positive-class probability
    float importance = 0.0f;         // weighted impurity decrease
  };

  // Fits on the samples selected by `indices` (bootstrap subset).
  void fit(const Matrix& data, std::span<const std::uint8_t> labels,
           std::span<const std::size_t> indices, const TreeParams& params,
           Rng& rng);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const { return depth_; }
  std::size_t feature_count() const { return feature_count_; }

  // Fitted node table (root = index 0; internal nodes precede their
  // subtrees, so both children of node i sit at indices > i). Read-only
  // view for flattening/inspection.
  std::span<const TreeNode> nodes() const { return nodes_; }

  // Accumulates impurity-decrease feature importances into `out`
  // (size = feature count).
  void add_feature_importance(std::vector<double>& out) const;

  // Binary serialization: raw little-endian node records, framed by the
  // forest wrapper's versioned magic. load() throws ModelError on
  // truncation or on a node count larger than the bytes left in the
  // stream; the node table's structure is validated when the forest is
  // compiled (CompiledForest::compile).
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  // Per-fit scratch for split finding (freed when fit returns). The
  // presorted columns are computed lazily — a feature pays its one-time
  // O(N log N) sort only when a large node first consults it.
  struct SplitScratch {
    // Per feature: the tree's bootstrap row ids (one entry per slot,
    // duplicates included) ordered by (feature value, label). Empty until
    // first use.
    std::vector<std::vector<std::uint32_t>> sorted_slots;
    // Row-id multiplicity workspace for the presorted filter; all zeros
    // between uses (each walk consumes exactly what it planted).
    std::vector<std::uint32_t> counts;
    // The bootstrap multiset fit() was called with (rows, slot order).
    std::vector<std::uint32_t> bootstrap;
  };

  std::int32_t build(const Matrix& data, std::span<const std::uint8_t> labels,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, std::size_t depth,
                     const TreeParams& params, Rng& rng,
                     SplitScratch& scratch);

  std::vector<TreeNode> nodes_;
  std::size_t depth_ = 0;
  std::size_t feature_count_ = 0;
};

}  // namespace jst::ml
