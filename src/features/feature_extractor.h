// The complete vector space (§III-B): hashed AST 4-grams plus hand-picked
// features, each feature pinned to one consistent dimension.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "features/analysis_pipeline.h"
#include "features/handpicked.h"
#include "features/ngram.h"
#include "features/scratch.h"

namespace jst::features {

struct FeatureConfig {
  bool use_ngrams = true;
  bool use_handpicked = true;
  NgramConfig ngram;
  AnalysisOptions analysis;
};

// Total dimensionality under `config`.
std::size_t feature_dimension(const FeatureConfig& config);

// Names aligned with extract_into()'s output (hand-picked names, then
// "ngram4_<bucket>").
std::vector<std::string> feature_names(const FeatureConfig& config);

// Extracts the feature vector from an already-analyzed script in ONE
// pre-order traversal: the hand-picked counters, depth/breadth tracking,
// and an incremental FNV-1a ring of partial n-gram hash states all
// advance per node, with no materialized kind sequence. All working
// storage lives in `scratch` (capacities survive across calls, so steady
// state allocates nothing). Returns a view of scratch.row that stays
// valid until the next call with the same scratch.
const std::vector<float>& extract_into(const ScriptAnalysis& analysis,
                                       const FeatureConfig& config,
                                       ExtractScratch& scratch);

// Parses + analyzes + extracts in one call (analyze_script, then
// extract_into with a scratch local to the calling thread). Throws
// ParseError.
std::vector<float> extract_from_source(std::string_view source,
                                       const FeatureConfig& config);

}  // namespace jst::features
