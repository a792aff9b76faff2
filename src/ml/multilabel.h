// Multi-task (multi-label) classification wrappers.
//
// The paper (§III-C/D3) compares two scikit-learn strategies over random
// forests and selects the second:
//  - binary relevance ("classifiers independence assumption"): one
//    independent binary classifier per label;
//  - classifier chain: classifier at position P additionally receives the
//    labels of positions [0, P-1] as features (ground truth at training
//    time, thresholded predictions at inference time).
//
// These classes fit, introspect and serialize; predictions run through
// CompiledEnsemble (compiled_forest.h), which applies the chain rule.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ml/random_forest.h"

namespace jst::ml {

// Binary label matrix: labels[i][j] == 1 iff sample i carries label j.
using LabelMatrix = std::vector<std::vector<std::uint8_t>>;

class MultiLabelClassifier {
 public:
  virtual ~MultiLabelClassifier() = default;

  virtual void fit(const Matrix& data, const LabelMatrix& labels,
                   const ForestParams& params, Rng& rng) = 0;

  virtual std::size_t label_count() const = 0;

  // Introspection for the compiled predictor (ml/compiled_forest.h): the
  // fitted per-label forests and the chain rule parameters. `chained()`
  // is true when position P's forest expects the thresholded predictions
  // of positions [0, P-1] appended to the row.
  virtual std::span<const RandomForest> forests() const = 0;
  virtual bool chained() const = 0;
  virtual double chain_threshold() const { return 0.5; }

  // Serialization of the trained per-label forests (a tagged count, then
  // one binary forest payload per label).
  virtual void save(std::ostream& out) const = 0;
  virtual void load(std::istream& in) = 0;
};

class BinaryRelevance final : public MultiLabelClassifier {
 public:
  void fit(const Matrix& data, const LabelMatrix& labels,
           const ForestParams& params, Rng& rng) override;
  std::size_t label_count() const override { return forests_.size(); }
  std::span<const RandomForest> forests() const override { return forests_; }
  bool chained() const override { return false; }
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  std::vector<RandomForest> forests_;
};

class ClassifierChain final : public MultiLabelClassifier {
 public:
  void fit(const Matrix& data, const LabelMatrix& labels,
           const ForestParams& params, Rng& rng) override;
  std::size_t label_count() const override { return forests_.size(); }
  std::span<const RandomForest> forests() const override { return forests_; }
  bool chained() const override { return true; }
  double chain_threshold() const override { return chain_threshold_; }
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

 private:
  std::vector<RandomForest> forests_;
  double chain_threshold_ = 0.5;
};

}  // namespace jst::ml
