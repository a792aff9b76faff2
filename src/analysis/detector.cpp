#include "analysis/detector.h"

#include <istream>
#include <ostream>
#include <string>

#include "analysis/model_io.h"
#include "support/error.h"

namespace jst::analysis {
namespace {

std::unique_ptr<ml::MultiLabelClassifier> make_classifier(bool chain) {
  if (chain) return std::make_unique<ml::ClassifierChain>();
  return std::make_unique<ml::BinaryRelevance>();
}

// Fallback scratch for the conveniences that do not take one.
ml::PredictScratch& thread_scratch() {
  static thread_local ml::PredictScratch scratch;
  return scratch;
}

// Compiles (and so validates) the fitted or loaded classifier for rows
// of the configured feature dimension and `label_count` labels; a model
// that fails validation throws ModelError out of fit()/load().
ml::CompiledEnsemble compile(const ml::MultiLabelClassifier& classifier,
                             const DetectorConfig& config,
                             std::size_t label_count) {
  if (classifier.label_count() != label_count) {
    throw ModelError("model has " + std::to_string(classifier.label_count()) +
                     " labels, the detector expects " +
                     std::to_string(label_count));
  }
  return ml::CompiledEnsemble::compile(
      classifier, features::feature_dimension(config.features));
}

}  // namespace

Level1Detector::Level1Detector(DetectorConfig config)
    : config_(std::move(config)),
      classifier_(make_classifier(config_.classifier_chain)) {}

void Level1Detector::fit(const ml::Matrix& data, const ml::LabelMatrix& labels,
                         Rng& rng) {
  if (!labels.empty() && labels[0].size() != 3) {
    throw ModelError("Level1Detector::fit: expected 3 label columns");
  }
  classifier_->fit(data, labels, config_.forest, rng);
  compiled_ = compile(*classifier_, config_, 3);
}

Level1Detector::Prediction Level1Detector::predict(
    std::span<const float> row, ml::PredictScratch& scratch) const {
  compiled_.predict_proba(row, scratch, scratch.proba);
  Prediction prediction;
  prediction.p_regular = scratch.proba[0];
  prediction.p_minified = scratch.proba[1];
  prediction.p_obfuscated = scratch.proba[2];
  return prediction;
}

Level1Detector::Prediction Level1Detector::predict(
    std::span<const float> row) const {
  return predict(row, thread_scratch());
}

void Level1Detector::save(std::ostream& out) const {
  write_model_header(out, make_model_header("level1", config_));
  classifier_->save(out);
}

void Level1Detector::load(std::istream& in) {
  check_model_header(in, make_model_header("level1", config_));
  classifier_->load(in);
  compiled_ = compile(*classifier_, config_, 3);
}

Level2Detector::Level2Detector(DetectorConfig config)
    : config_(std::move(config)),
      classifier_(make_classifier(config_.classifier_chain)) {}

void Level2Detector::fit(const ml::Matrix& data, const ml::LabelMatrix& labels,
                         Rng& rng) {
  if (!labels.empty() && labels[0].size() != transform::kTechniqueCount) {
    throw ModelError("Level2Detector::fit: expected 10 label columns");
  }
  classifier_->fit(data, labels, config_.forest, rng);
  compiled_ = compile(*classifier_, config_, transform::kTechniqueCount);
}

void Level2Detector::predict_proba(std::span<const float> row,
                                   ml::PredictScratch& scratch,
                                   std::vector<double>& out) const {
  compiled_.predict_proba(row, scratch, out);
}

std::vector<double> Level2Detector::predict_proba(
    std::span<const float> row) const {
  std::vector<double> out;
  predict_proba(row, thread_scratch(), out);
  return out;
}

std::vector<transform::Technique> Level2Detector::predict_techniques(
    std::span<const float> row, ml::PredictScratch& scratch) const {
  compiled_.predict_topk_thresholded(row, kLevel2TopK, kLevel2Threshold,
                                     scratch, scratch.picked);
  return techniques_from_indices(scratch.picked);
}

std::vector<transform::Technique> Level2Detector::techniques_from_confidence(
    std::span<const double> confidence, ml::PredictScratch& scratch) {
  ml::topk_thresholded(confidence, kLevel2TopK, kLevel2Threshold,
                       scratch.order, scratch.picked);
  return techniques_from_indices(scratch.picked);
}

std::vector<transform::Technique> Level2Detector::predict_techniques(
    std::span<const float> row) const {
  return predict_techniques(row, thread_scratch());
}

std::vector<transform::Technique> Level2Detector::predict_topk(
    std::span<const float> row, std::size_t k) const {
  ml::PredictScratch& scratch = thread_scratch();
  compiled_.predict_topk(row, k, scratch, scratch.picked);
  return techniques_from_indices(scratch.picked);
}

void Level2Detector::save(std::ostream& out) const {
  write_model_header(out, make_model_header("level2", config_));
  classifier_->save(out);
}

void Level2Detector::load(std::istream& in) {
  check_model_header(in, make_model_header("level2", config_));
  classifier_->load(in);
  compiled_ = compile(*classifier_, config_, transform::kTechniqueCount);
}

}  // namespace jst::analysis
