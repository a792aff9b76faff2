#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "ml/model_codec.h"
#include "support/error.h"

namespace jst::ml {
namespace {

double gini(std::size_t positives, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::fit(const Matrix& data, std::span<const std::uint8_t> labels,
                       std::span<const std::size_t> indices,
                       const TreeParams& params, Rng& rng) {
  if (data.row_count() == 0) throw ModelError("DecisionTree::fit: empty data");
  if (labels.size() != data.row_count()) {
    throw ModelError("DecisionTree::fit: label/row count mismatch");
  }
  nodes_.clear();
  depth_ = 0;
  feature_count_ = data.column_count();
  std::vector<std::size_t> working(indices.begin(), indices.end());
  if (working.empty()) throw ModelError("DecisionTree::fit: empty index set");

  SplitScratch scratch;
  scratch.sorted_slots.resize(feature_count_);
  scratch.counts.assign(data.row_count(), 0);
  scratch.bootstrap.reserve(working.size());
  for (const std::size_t row : working) {
    scratch.bootstrap.push_back(static_cast<std::uint32_t>(row));
  }
  build(data, labels, working, 0, working.size(), 1, params, rng, scratch);
}

std::int32_t DecisionTree::build(const Matrix& data,
                                 std::span<const std::uint8_t> labels,
                                 std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end,
                                 std::size_t depth, const TreeParams& params,
                                 Rng& rng, SplitScratch& scratch) {
  depth_ = std::max(depth_, depth);
  const std::size_t count = end - begin;
  std::size_t positives = 0;
  for (std::size_t i = begin; i < end; ++i) positives += labels[indices[i]];

  const auto make_leaf = [&]() {
    TreeNode leaf;
    leaf.value =
        count == 0 ? 0.5f
                   : static_cast<float>(static_cast<double>(positives) /
                                        static_cast<double>(count));
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (count < params.min_samples_split || depth >= params.max_depth ||
      positives == 0 || positives == count) {
    return make_leaf();
  }

  const double parent_impurity = gini(positives, count);
  std::size_t candidates = params.max_features;
  if (candidates == 0) {
    candidates = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(feature_count_))));
    candidates = std::max<std::size_t>(candidates, 1);
  }
  candidates = std::min(candidates, feature_count_);

  // Best split over a random feature subset.
  std::int32_t best_feature = -1;
  float best_threshold = 0.0f;
  double best_gain = 1e-12;
  std::vector<std::pair<float, std::uint8_t>> values;
  values.reserve(count);

  // Per feature, the split scan consumes the node's (value, label) pairs
  // sorted ascending. Nodes still holding at least a quarter of the
  // tree's samples (the top of the tree, where sorts are biggest) filter
  // a once-per-tree presorted column in O(N); smaller nodes gather their
  // pairs and sort them. Both produce the identical sequence.
  const std::size_t total_slots = scratch.bootstrap.size();
  const bool use_presorted = count * 4 >= total_slots;

  const std::vector<std::size_t> feature_subset =
      rng.sample_indices(feature_count_, candidates);
  for (const std::size_t feature : feature_subset) {
    values.clear();
    if (use_presorted) {
      // Once per tree per feature: order the bootstrap slots by
      // (value, label) — exactly the pair ordering std::sort applies to
      // the gathered vector, so ties are interchangeable duplicates.
      std::vector<std::uint32_t>& slots = scratch.sorted_slots[feature];
      if (slots.empty()) {
        slots = scratch.bootstrap;
        std::sort(slots.begin(), slots.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    const float va = data.at(a, feature);
                    const float vb = data.at(b, feature);
                    if (va != vb) return va < vb;
                    return labels[a] < labels[b];
                  });
      }
      // Filter the presorted column down to this node's rows. Bootstrap
      // sampling repeats rows, so membership is a multiplicity count, not
      // a flag; the walk consumes every count it planted (node slots are
      // a sub-multiset of the tree's), leaving `counts` all-zero again.
      for (std::size_t i = begin; i < end; ++i) {
        ++scratch.counts[indices[i]];
      }
      for (const std::uint32_t row : slots) {
        if (scratch.counts[row] > 0) {
          --scratch.counts[row];
          values.emplace_back(data.at(row, feature), labels[row]);
        }
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        values.emplace_back(data.at(indices[i], feature), labels[indices[i]]);
      }
      std::sort(values.begin(), values.end());
    }
    if (values.front().first == values.back().first) continue;  // constant

    std::size_t left_count = 0;
    std::size_t left_positives = 0;
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
      ++left_count;
      left_positives += values[i].second;
      if (values[i].first == values[i + 1].first) continue;
      const std::size_t right_count = count - left_count;
      if (left_count < params.min_samples_leaf ||
          right_count < params.min_samples_leaf) {
        continue;
      }
      const double weighted =
          (static_cast<double>(left_count) * gini(left_positives, left_count) +
           static_cast<double>(right_count) *
               gini(positives - left_positives, right_count)) /
          static_cast<double>(count);
      const double gain = parent_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<std::int32_t>(feature);
        // Midpoint threshold between distinct values.
        best_threshold =
            values[i].first +
            (values[i + 1].first - values[i].first) * 0.5f;
        if (best_threshold == values[i + 1].first) {
          best_threshold = values[i].first;  // float underflow guard
        }
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition indices in place.
  const auto middle_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) {
        return data.at(row, static_cast<std::size_t>(best_feature)) <=
               best_threshold;
      });
  const std::size_t middle =
      static_cast<std::size_t>(middle_it - indices.begin());
  if (middle == begin || middle == end) return make_leaf();

  const std::int32_t self = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[self].feature = best_feature;
  nodes_[self].threshold = best_threshold;
  nodes_[self].importance =
      static_cast<float>(best_gain * static_cast<double>(count));
  const std::int32_t left = build(data, labels, indices, begin, middle,
                                  depth + 1, params, rng, scratch);
  const std::int32_t right =
      build(data, labels, indices, middle, end, depth + 1, params, rng, scratch);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

void DecisionTree::save(std::ostream& out) const {
  codec::write_u64(out, nodes_.size());
  codec::write_u64(out, depth_);
  codec::write_u64(out, feature_count_);
  codec::write_array<TreeNode>(out, nodes_);
}

void DecisionTree::load(std::istream& in) {
  const std::uint64_t count = codec::read_u64(in, "tree node count");
  depth_ = static_cast<std::size_t>(codec::read_u64(in, "tree depth"));
  feature_count_ =
      static_cast<std::size_t>(codec::read_u64(in, "tree feature count"));
  codec::check_count(in, count, sizeof(TreeNode), "tree node count");
  nodes_.assign(static_cast<std::size_t>(count), TreeNode{});
  codec::read_array<TreeNode>(in, nodes_, "tree node table");
}

void DecisionTree::add_feature_importance(std::vector<double>& out) const {
  if (out.size() < feature_count_) out.resize(feature_count_, 0.0);
  for (const TreeNode& node : nodes_) {
    if (node.feature >= 0) {
      out[static_cast<std::size_t>(node.feature)] += node.importance;
    }
  }
}

}  // namespace jst::ml
