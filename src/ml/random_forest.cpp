#include "ml/random_forest.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "ml/model_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace jst::ml {

void RandomForest::fit(const Matrix& data, std::span<const std::uint8_t> labels,
                       const ForestParams& params, Rng& rng) {
  if (data.row_count() == 0) throw ModelError("RandomForest::fit: empty data");
  trees_.clear();
  trees_.resize(params.tree_count);
  feature_count_ = data.column_count();
  const std::size_t row_count = data.row_count();
  // One seed per tree, drawn serially from the caller's stream: tree t sees
  // the same RNG stream no matter how many threads train the forest, so the
  // fitted model is bit-identical for every params.threads value.
  std::vector<std::uint64_t> seeds(trees_.size());
  for (std::uint64_t& seed : seeds) seed = rng.next();
  JST_SPAN("forest.fit");
  obs::Histogram& tree_fit_ms =
      obs::MetricsRegistry::global().histogram("jst_forest_tree_fit_ms");
  support::run_parallel(
      params.threads, trees_.size(), [&](std::size_t t) {
        JST_SPAN("forest.fit_tree");
        const auto start = support::Clock::now();
        Rng tree_rng(seeds[t]);
        std::vector<std::size_t> bootstrap(row_count);
        for (std::size_t& index : bootstrap) index = tree_rng.index(row_count);
        trees_[t].fit(data, labels, bootstrap, params.tree, tree_rng);
        tree_fit_ms.record(support::ms_since(start));
      });
}

namespace {
// Tag line in front of the binary payload; it ends in '\n' so the
// payload starts at an exact byte offset.
constexpr const char* kForestMagic = "jstraced-forest-v2b";
// Each serialized tree is at least its three u64 header fields.
constexpr std::uint64_t kMinTreeBytes = 3 * sizeof(std::uint64_t);
}  // namespace

void RandomForest::save(std::ostream& out) const {
  out << kForestMagic << '\n';
  codec::write_u64(out, trees_.size());
  codec::write_u64(out, feature_count_);
  for (const DecisionTree& tree : trees_) tree.save(out);
}

void RandomForest::load(std::istream& in) {
  std::string magic;
  if (!(in >> magic)) {
    throw ModelError("RandomForest::load: empty or truncated stream");
  }
  if (magic != kForestMagic) {
    throw ModelError("RandomForest::load: unrecognized format (magic \"" +
                     magic + "\")");
  }
  codec::skip_separator(in);
  const std::uint64_t count = codec::read_u64(in, "forest tree count");
  feature_count_ =
      static_cast<std::size_t>(codec::read_u64(in, "forest feature count"));
  codec::check_count(in, count, kMinTreeBytes, "forest tree count");
  trees_.assign(static_cast<std::size_t>(count), DecisionTree{});
  for (DecisionTree& tree : trees_) tree.load(in);
}

std::vector<double> RandomForest::feature_importance() const {
  std::vector<double> importance(feature_count_, 0.0);
  for (const DecisionTree& tree : trees_) {
    tree.add_feature_importance(importance);
  }
  const double total =
      std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (double& value : importance) value /= total;
  }
  return importance;
}

}  // namespace jst::ml
