#include "ml/multilabel.h"

#include <istream>
#include <ostream>

#include "ml/model_codec.h"
#include "support/error.h"

namespace jst::ml {
namespace {

std::size_t validate(const Matrix& data, const LabelMatrix& labels) {
  if (data.row_count() == 0) throw ModelError("multilabel fit: empty data");
  if (labels.size() != data.row_count()) {
    throw ModelError("multilabel fit: label row mismatch");
  }
  const std::size_t label_count = labels[0].size();
  if (label_count == 0) throw ModelError("multilabel fit: zero labels");
  for (const auto& row : labels) {
    if (row.size() != label_count) {
      throw ModelError("multilabel fit: ragged label matrix");
    }
  }
  return label_count;
}

std::vector<std::uint8_t> label_column(const LabelMatrix& labels,
                                       std::size_t column) {
  std::vector<std::uint8_t> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) out[i] = labels[i][column];
  return out;
}

}  // namespace

void BinaryRelevance::fit(const Matrix& data, const LabelMatrix& labels,
                          const ForestParams& params, Rng& rng) {
  const std::size_t label_count = validate(data, labels);
  forests_.clear();
  forests_.resize(label_count);
  for (std::size_t j = 0; j < label_count; ++j) {
    const std::vector<std::uint8_t> column = label_column(labels, j);
    forests_[j].fit(data, column, params, rng);
  }
}

void ClassifierChain::fit(const Matrix& data, const LabelMatrix& labels,
                          const ForestParams& params, Rng& rng) {
  const std::size_t label_count = validate(data, labels);
  forests_.clear();
  forests_.resize(label_count);

  // Extended copies of the rows: base features plus the ground-truth labels
  // of all previous chain positions (Read et al., 2011).
  std::vector<std::vector<float>> extended(*data.rows);
  for (std::size_t j = 0; j < label_count; ++j) {
    Matrix extended_view{&extended};
    const std::vector<std::uint8_t> column = label_column(labels, j);
    forests_[j].fit(extended_view, column, params, rng);
    if (j + 1 < label_count) {
      for (std::size_t i = 0; i < extended.size(); ++i) {
        extended[i].push_back(static_cast<float>(labels[i][j]));
      }
    }
  }
}

namespace {

// Each serialized forest is at least its two u64 header fields.
constexpr std::uint64_t kMinForestBytes = 2 * sizeof(std::uint64_t);

void save_forests(const std::vector<RandomForest>& forests, const char* tag,
                  std::ostream& out) {
  out << tag << ' ' << forests.size() << '\n';
  for (const RandomForest& forest : forests) forest.save(out);
}

void load_forests(std::vector<RandomForest>& forests, const char* tag,
                  std::istream& in) {
  std::string magic;
  std::size_t count = 0;
  if (!(in >> magic >> count) || magic != tag) {
    throw ModelError(std::string("multilabel load: expected ") + tag);
  }
  codec::check_count(in, count, kMinForestBytes, "forest count");
  forests.assign(count, RandomForest{});
  for (RandomForest& forest : forests) forest.load(in);
}

}  // namespace

void BinaryRelevance::save(std::ostream& out) const {
  save_forests(forests_, "binary-relevance", out);
}

void BinaryRelevance::load(std::istream& in) {
  load_forests(forests_, "binary-relevance", in);
}

void ClassifierChain::save(std::ostream& out) const {
  save_forests(forests_, "classifier-chain", out);
}

void ClassifierChain::load(std::istream& in) {
  load_forests(forests_, "classifier-chain", in);
}

}  // namespace jst::ml
