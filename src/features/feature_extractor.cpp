#include "features/feature_extractor.h"

#include <algorithm>
#include <cstdint>

#include "ast/walk.h"

namespace jst::features {

std::size_t feature_dimension(const FeatureConfig& config) {
  std::size_t dimension = 0;
  if (config.use_handpicked) dimension += handpicked_feature_names().size();
  if (config.use_ngrams) dimension += config.ngram.hash_dim;
  return dimension;
}

std::vector<std::string> feature_names(const FeatureConfig& config) {
  std::vector<std::string> names;
  if (config.use_handpicked) {
    names = handpicked_feature_names();
  }
  if (config.use_ngrams) {
    for (std::size_t i = 0; i < config.ngram.hash_dim; ++i) {
      names.push_back("ngram" + std::to_string(kNgramSize) + "_" +
                      std::to_string(i));
    }
  }
  return names;
}

std::vector<float> extract_from_source(std::string_view source,
                                       const FeatureConfig& config) {
  static thread_local ExtractScratch scratch;
  const ScriptAnalysis analysis = analyze_script(source, config.analysis);
  return extract_into(analysis, config, scratch);
}

const std::vector<float>& extract_into(const ScriptAnalysis& analysis,
                                       const FeatureConfig& config,
                                       ExtractScratch& scratch) {
  ++scratch.uses;
  scratch.row.clear();
  const Node* root = analysis.parse.ast.root();

  constexpr std::size_t n = kNgramSize;
  const std::size_t hash_dim = config.ngram.hash_dim;
  const bool want_handpicked = config.use_handpicked;
  const bool want_ngrams = config.use_ngrams && hash_dim > 0;

  ExtractCounters& counters = scratch.counters;
  support::AtomTable& atoms = analysis.parse.ast.atoms();
  if (want_handpicked) {
    counters.reset();
    scratch.level_counts.clear();
  }
  if (want_ngrams) {
    scratch.ngram_histogram.assign(hash_dim, 0.0f);
    scratch.fnv_ring.fill(0);
  }

  std::size_t max_depth = 0;
  std::size_t node_index = 0;
  if (root != nullptr && (want_handpicked || want_ngrams)) {
    for_each_preorder_depth(
        root, scratch.walk_stack,
        [&](const Node& node, std::size_t depth) {
          if (want_handpicked) {
            gather_handpicked(node, atoms, counters);
            if (depth > max_depth) max_depth = depth;
            const std::size_t level = depth - 1;
            if (level >= scratch.level_counts.size()) {
              scratch.level_counts.resize(level + 1, 0);
            }
            ++scratch.level_counts[level];
          }
          if (want_ngrams) {
            // Ring of FNV-1a partial states, one per in-flight window:
            // the slot for the window starting at this node resets to the
            // offset basis, every slot absorbs this node's kind byte, and
            // the window that just saw its n-th byte emits. Windows emit
            // in start order, so each one is hashed exactly as FNV-1a over
            // its n kind bytes.
            const auto byte = static_cast<std::uint8_t>(node.kind);
            scratch.fnv_ring[node_index % n] = kFnvOffsetBasis;
            for (std::uint64_t& hash : scratch.fnv_ring) {
              hash = (hash ^ byte) * kFnvPrime;
            }
            if (node_index + 1 >= n) {
              ++scratch
                    .ngram_histogram[scratch.fnv_ring[(node_index + 1) % n] %
                                     hash_dim];
            }
          }
          ++node_index;
        });
  }

  if (want_handpicked) {
    const std::size_t breadth =
        scratch.level_counts.empty()
            ? 0
            : *std::max_element(scratch.level_counts.begin(),
                                scratch.level_counts.end());
    assemble_handpicked(analysis, counters, max_depth, breadth, scratch.row);
  }
  if (want_ngrams) {
    const std::size_t windows = node_index >= n ? node_index - n + 1 : 0;
    if (windows > 0) {
      const float scale = 1.0f / static_cast<float>(windows);
      for (float& value : scratch.ngram_histogram) value *= scale;
    }
    scratch.row.insert(scratch.row.end(), scratch.ngram_histogram.begin(),
                       scratch.ngram_histogram.end());
  }
  return scratch.row;
}

}  // namespace jst::features
