// Hashed AST n-gram features.
//
// The paper extracts 4-grams over "the list of syntactic units" of the AST
// (pre-order node-kind sequence). We hash each n-gram into a fixed number
// of buckets (the vector-space dimensions stay consistent across samples,
// §III-B) and store relative frequencies. The fused extractor
// (feature_extractor.cpp: extract_into) computes the histogram.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jst::features {

// The paper's n-gram length.
inline constexpr std::size_t kNgramSize = 4;

struct NgramConfig {
  std::size_t hash_dim = 512;
};

// FNV-1a parameters: each n-gram window hashes its node-kind bytes with
// these, and the bucket is the hash modulo hash_dim.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace jst::features
