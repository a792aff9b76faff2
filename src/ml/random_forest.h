// Random forest (bagged CART trees) for binary classification, mirroring
// the scikit-learn estimator the paper uses. Predictions run through
// CompiledForest (compiled_forest.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/decision_tree.h"
#include "support/rng.h"

namespace jst::ml {

struct ForestParams {
  // Each tree trains on a bootstrap sample: row_count rows drawn with
  // replacement.
  std::size_t tree_count = 48;
  TreeParams tree;
  // Training parallelism (0 = JST_THREADS / hardware default, 1 = serial).
  // Runtime knob only — not part of the serialized model, and the trained
  // forest is bit-identical for every value (each tree trains from its own
  // deterministic RNG stream).
  std::size_t threads = 0;
};

class RandomForest {
 public:
  void fit(const Matrix& data, std::span<const std::uint8_t> labels,
           const ForestParams& params, Rng& rng);

  bool trained() const { return !trees_.empty(); }
  std::size_t tree_count() const { return trees_.size(); }
  std::size_t feature_count() const { return feature_count_; }

  // Fitted trees, read-only — consumed by CompiledForest::compile.
  std::span<const DecisionTree> trees() const { return trees_; }

  // Normalized Gini feature importances (sums to 1 unless all zero).
  std::vector<double> feature_importance() const;

  // Serialization: save a trained forest as fixed-width binary node
  // records behind the "jstraced-forest-v2b" magic, load it back without
  // retraining. load() throws ModelError on a foreign magic, truncation,
  // or a tree count larger than the bytes left in the stream.
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  std::vector<DecisionTree> trees_;
  std::size_t feature_count_ = 0;
};

}  // namespace jst::ml
