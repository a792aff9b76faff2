// The two multi-task detectors (§III-C).
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "analysis/labels.h"
#include "features/feature_extractor.h"
#include "ml/compiled_forest.h"
#include "ml/metrics.h"
#include "ml/multilabel.h"

namespace jst::analysis {

// The paper's level-2 decision rule (§III-E2): up to kLevel2TopK
// techniques whose confidence clears kLevel2Threshold (empirically 10%).
inline constexpr double kLevel2Threshold = 0.10;
inline constexpr std::size_t kLevel2TopK = 7;

struct DetectorConfig {
  features::FeatureConfig features;
  ml::ForestParams forest;
  // Classifier-chain (paper's pick) vs. independence assumption.
  bool classifier_chain = true;
};

// Level 1: multi-task over {regular, minified, obfuscated}.
class Level1Detector {
 public:
  explicit Level1Detector(DetectorConfig config = {});

  void fit(const ml::Matrix& data, const ml::LabelMatrix& labels, Rng& rng);

  struct Prediction {
    double p_regular = 0.0;
    double p_minified = 0.0;
    double p_obfuscated = 0.0;
    bool minified() const { return p_minified >= 0.5; }
    bool obfuscated() const { return p_obfuscated >= 0.5; }
    // "We consider that a file is transformed if level 1 flagged it as
    // obfuscated and/or minified."
    bool transformed() const { return minified() || obfuscated(); }
    bool regular() const { return !transformed(); }
  };

  // Predictions run on the compiled ensemble built at the end of
  // fit()/load(); the scratch overload is allocation-free in steady
  // state. Before fit()/load() they throw ModelError.
  Prediction predict(std::span<const float> row) const;
  Prediction predict(std::span<const float> row,
                     ml::PredictScratch& scratch) const;
  const DetectorConfig& config() const { return config_; }

  // The compiled ensemble; compiled().compiled() is false until fit() or
  // load().
  const ml::CompiledEnsemble& compiled() const { return compiled_; }

  // Persist/restore the trained classifier behind a versioned model header
  // (magic + format version + feature dimension + forest parameters),
  // followed by the binary forest payloads. The loader must be
  // constructed with the same DetectorConfig; a mismatch throws
  // ModelError naming the offending field, and a model that fails
  // CompiledEnsemble validation throws the compile error.
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  DetectorConfig config_;
  std::unique_ptr<ml::MultiLabelClassifier> classifier_;
  ml::CompiledEnsemble compiled_;
};

// Level 2: multi-task over the ten techniques.
class Level2Detector {
 public:
  explicit Level2Detector(DetectorConfig config = {});

  void fit(const ml::Matrix& data, const ml::LabelMatrix& labels, Rng& rng);

  // Per-technique confidence, index = Technique value. The scratch
  // overload writes into `out` without allocating in steady state.
  std::vector<double> predict_proba(std::span<const float> row) const;
  void predict_proba(std::span<const float> row, ml::PredictScratch& scratch,
                     std::vector<double>& out) const;

  // Paper's final rule: the kLevel2TopK most confident techniques above
  // kLevel2Threshold.
  std::vector<transform::Technique> predict_techniques(
      std::span<const float> row) const;
  std::vector<transform::Technique> predict_techniques(
      std::span<const float> row, ml::PredictScratch& scratch) const;
  // The same rule over confidences predict_proba already returned, so a
  // caller that keeps them runs the forests once.
  static std::vector<transform::Technique> techniques_from_confidence(
      std::span<const double> confidence, ml::PredictScratch& scratch);
  std::vector<transform::Technique> predict_topk(std::span<const float> row,
                                                 std::size_t k) const;

  const DetectorConfig& config() const { return config_; }

  const ml::CompiledEnsemble& compiled() const { return compiled_; }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  DetectorConfig config_;
  std::unique_ptr<ml::MultiLabelClassifier> classifier_;
  ml::CompiledEnsemble compiled_;
};

}  // namespace jst::analysis
