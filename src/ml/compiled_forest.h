// Compiled inference: the one prediction path for fitted forests.
//
// A fitted RandomForest holds one std::vector<TreeNode> per tree — an AoS
// layout where every hop would touch a 24-byte node (half of which is
// training-only payload: importance, and the redundant left index) spread
// over per-tree heap blocks. At wild-study scale (the paper classifies
// ~20M scripts, 13 forests per script) that pointer-chasing would be the
// inference bottleneck.
//
// CompiledForest flattens a fitted forest into one contiguous
// structure-of-arrays node table in the spirit of QuickScorer's tree
// blocking (Lucchese et al., SIGIR 2015): per node a feature index, a
// threshold, and child links as offsets *relative to the node itself*
// within the shared table; leaf probabilities live in a parallel array.
// Feature indices and child offsets are 16-bit — a full ensemble streams
// half the bytes of an int32 layout, which matters because batch analysis
// interleaves inference with extraction, so the node tables re-enter
// cache cold for every script. A tree hop reads a 2-byte feature, a
// 4-byte threshold, and a 2-byte offset from three hot arrays instead of
// one cold 24-byte struct.
//
// compile() is also where a loaded model is validated, so a corrupt or
// hostile model file fails with ModelError instead of hanging or reading
// out of bounds at prediction time:
//  - every tree is non-empty, has at most 32768 nodes (the 16-bit
//    offset range), and declares the forest's feature count;
//  - every internal node's children lie strictly after it and inside its
//    tree (what DecisionTree::fit produces), so every walk terminates;
//  - every feature index is below the forest's feature count (and fits
//    the 16-bit layout);
//  - CompiledEnsemble::compile additionally requires forest j to expect
//    exactly feature_dimension + j features in a chain (feature_dimension
//    otherwise), so no lookup can run past the rows it is given.
//
// A forest predicts the average of its trees' leaf values: float leaves
// accumulated into a double in ascending tree order, then one division
// by the tree count. The oracle suite (tests/test_compiled.cpp) pins the
// outputs to fingerprints captured from the former per-tree reference
// walk, across the JST_THREADS=1/4 matrix and under ASan/UBSan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/multilabel.h"
#include "ml/random_forest.h"

namespace jst::ml {

// Reusable per-thread buffers for the compiled prediction path. All
// predict calls that take a PredictScratch are allocation-free once the
// scratch has warmed up (capacities stick across calls).
struct PredictScratch {
  std::vector<float> extended;      // row + chain-position label bits
  std::vector<double> proba;        // per-label probabilities
  std::vector<std::size_t> order;   // label ranking workspace
  std::vector<std::size_t> picked;  // thresholded top-k workspace

  // Approximate steady-state footprint, for the obs peak-bytes gauge.
  std::size_t capacity_bytes() const {
    return extended.capacity() * sizeof(float) +
           proba.capacity() * sizeof(double) +
           (order.capacity() + picked.capacity()) * sizeof(std::size_t);
  }
};

class CompiledForest {
 public:
  CompiledForest() = default;

  // Flattens and validates a fitted or loaded forest. Throws ModelError
  // if the forest is empty or breaks a rule listed at the top of this
  // file.
  static CompiledForest compile(const RandomForest& forest);

  bool compiled() const { return !roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }
  std::size_t feature_count() const { return feature_count_; }

  // Averaged positive-class probability across trees. `row` must hold
  // feature_count() values.
  double predict_proba(std::span<const float> row) const;

 private:
  double predict_tree(std::uint32_t root, std::span<const float> row) const;

  // Structure-of-arrays node table, all trees concatenated.
  std::vector<std::int16_t> feature_;    // -1 = leaf
  std::vector<float> threshold_;
  std::vector<std::int16_t> left_;       // child offset relative to node
  std::vector<std::int16_t> right_;      // child offset relative to node
  std::vector<float> leaf_value_;        // parallel: positive-class prob
  std::vector<std::uint32_t> roots_;     // per-tree root index
  std::size_t feature_count_ = 0;
};

// Compiled counterpart of a fitted MultiLabelClassifier: one
// CompiledForest per label plus the chain rule (thresholded upstream
// predictions appended as features) when the source was a
// ClassifierChain. The scratch-taking overloads are allocation-free in
// steady state.
// Top-k of already computed per-label probabilities, restricted to
// labels whose probability clears `threshold` (the paper's level-2
// decision rule): label indices into `out`, most probable first, ranked
// by a stable descending sort (ties keep label order). `order` is
// ranking workspace.
void topk_thresholded(std::span<const double> probabilities, std::size_t k,
                      double threshold, std::vector<std::size_t>& order,
                      std::vector<std::size_t>& out);

class CompiledEnsemble {
 public:
  CompiledEnsemble() = default;

  // Compiles every per-label forest for rows of `feature_dimension`
  // values. Throws ModelError if the classifier is untrained or any
  // forest fails validation.
  static CompiledEnsemble compile(const MultiLabelClassifier& classifier,
                                  std::size_t feature_dimension);

  bool compiled() const { return !forests_.empty(); }
  std::size_t label_count() const { return forests_.size(); }
  bool chained() const { return chained_; }

  // Per-label positive probability into `out` (resized to label_count()).
  // Independent scores; they do not sum to 1 — the paper leans on this
  // for its confidence-threshold analysis.
  void predict_proba(std::span<const float> row, PredictScratch& scratch,
                     std::vector<double>& out) const;
  std::vector<double> predict_proba(std::span<const float> row) const;

  // Indices of the k most probable labels, most probable first.
  void predict_topk(std::span<const float> row, std::size_t k,
                    PredictScratch& scratch,
                    std::vector<std::size_t>& out) const;

  // Top-k restricted to labels whose probability clears `threshold`
  // (the paper's level-2 decision rule).
  void predict_topk_thresholded(std::span<const float> row, std::size_t k,
                                double threshold, PredictScratch& scratch,
                                std::vector<std::size_t>& out) const;

  const CompiledForest& forest(std::size_t label) const {
    return forests_[label];
  }

 private:
  std::vector<CompiledForest> forests_;
  bool chained_ = false;
  double chain_threshold_ = 0.5;
};

}  // namespace jst::ml
