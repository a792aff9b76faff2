// Reusable per-thread extraction state for the fused feature fast path.
//
// Allocating counter containers, traversal stacks, the n-gram histogram,
// and the output vector fresh for every script would dominate
// small-script extraction at batch scale, so the extractor
// (feature_extractor.h: extract_into) threads one ExtractScratch through
// every script a worker analyzes: containers are
// cleared between scripts but keep their capacity, making steady-state
// extraction allocation-free. AnalyzerService owns one scratch per batch
// worker thread and reports reuse/footprint via the obs metrics
// jst_scratch_reuse_total and jst_scratch_peak_bytes.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "features/ngram.h"

namespace jst::features {

// Open-addressed set of identifier names (views into the AST), replacing
// std::unordered_set on the extraction fast path: libstdc++'s node-based
// table mallocs once per unique identifier even after clear(), which made
// identifier dedup the last allocating step of gather at batch scale.
// Linear probing over a power-of-two slot array, FNV-1a hashing (same
// parameters as the n-gram hasher), byte-exact comparison on hash hits —
// size() matches the unordered_set it replaced exactly. clear() is O(1):
// slots carry an epoch and stale epochs read as empty.
class IdentifierSet {
 public:
  std::size_t size() const { return size_; }

  void clear() {
    ++epoch_;
    if (epoch_ == 0) {
      // Epoch wrapped: lazily-invalidated slots would read as live again.
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
    size_ = 0;
  }

  void insert(std::string_view name) {
    if (size_ * 10 >= slots_.size() * 7) grow();
    std::uint64_t hash = kFnvOffsetBasis;
    for (const char ch : name) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= kFnvPrime;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t index = static_cast<std::size_t>(hash) & mask;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // empty: never used, or stale epoch
        slot.data = name.data();
        slot.hash = hash;
        slot.size = static_cast<std::uint32_t>(name.size());
        slot.epoch = epoch_;
        ++size_;
        return;
      }
      if (slot.hash == hash && slot.size == name.size() &&
          std::memcmp(slot.data, name.data(), name.size()) == 0) {
        return;  // already present
      }
      index = (index + 1) & mask;
    }
  }

  std::size_t capacity_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    const char* data = nullptr;
    std::uint64_t hash = 0;
    std::uint32_t size = 0;
    std::uint32_t epoch = 0;  // live iff equal to the set's current epoch
  };
  static constexpr std::size_t kInitialSlots = 256;  // power of two

  // Doubles the table (first call: allocates it — the default-constructed
  // set owns no memory, so value-resetting an ExtractCounters stays free).
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.epoch != epoch_) continue;
      std::size_t index = static_cast<std::size_t>(slot.hash) & mask;
      while (slots_[index].epoch == epoch_) index = (index + 1) & mask;
      slots_[index] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;  // default-constructed slots (epoch 0) are empty
};

// Per-script counters the hand-picked feature block is assembled from.
// One instance per scratch; reset() clears values but keeps container
// capacity (and hash-table bucket arrays) for the next script.
struct ExtractCounters {
  // node-kind counts
  std::size_t nodes = 0;
  std::size_t identifiers = 0;
  std::size_t literals = 0;
  std::size_t string_literals = 0;
  std::size_t number_literals = 0;
  std::size_t hex_number_literals = 0;
  std::size_t calls = 0;
  std::size_t members = 0;
  std::size_t member_dot = 0;
  std::size_t member_bracket = 0;
  std::size_t member_bracket_string_key = 0;
  std::size_t conditionals = 0;   // ConditionalExpression
  std::size_t if_statements = 0;
  std::size_t sequences = 0;
  std::size_t empty_statements = 0;
  std::size_t unary_bang_plus = 0;
  std::size_t unary_total = 0;
  std::size_t binary_total = 0;
  std::size_t binary_plus = 0;
  std::size_t binary_plus_on_strings = 0;
  std::size_t binary_numeric_only = 0;
  std::size_t empty_arrays = 0;
  std::size_t functions = 0;
  std::size_t function_params = 0;
  std::size_t iife = 0;
  std::size_t try_statements = 0;
  std::size_t throw_statements = 0;
  std::size_t with_statements = 0;
  std::size_t regex_literals = 0;
  std::size_t template_literals = 0;
  std::size_t debugger_statements = 0;
  std::size_t debugger_in_loop_or_function = 0;
  std::size_t labeled = 0;
  std::size_t assignments = 0;
  std::size_t update_expressions = 0;
  std::size_t var_declarations = 0;
  std::size_t declarators = 0;
  std::size_t switches = 0;
  std::size_t switch_cases = 0;
  std::size_t switch_in_loop = 0;
  std::size_t infinite_loops = 0;   // while(true) / for(;;)
  std::size_t string_operations = 0;
  std::size_t self_defense_markers = 0;  // toString/callee/constructor refs
  std::size_t new_expressions = 0;
  std::size_t spread_like = 0;
  std::size_t array_elements_total = 0;
  std::size_t arrays = 0;
  std::size_t object_properties_total = 0;
  std::size_t objects = 0;
  std::size_t large_arrays = 0;  // >= 16 elements

  std::vector<double> identifier_lengths;
  std::size_t identifiers_len1 = 0;
  std::size_t identifiers_len2 = 0;
  std::size_t identifiers_hexlike = 0;  // _0x.... (obfuscator.io style)
  // Views into the AST's identifier names — no per-occurrence string
  // copies. Valid only while the analyzed script's AST is alive, which
  // reset() guarantees by clearing the set before the next script.
  IdentifierSet unique_identifiers;

  std::vector<double> string_lengths;
  std::string all_string_bytes;
  std::size_t encoded_looking_strings = 0;

  // Presence flags, indexed in handpicked.cpp's decoder-builtin order
  // (eval, Function, atob, btoa, unescape, escape, decodeURIComponent,
  // encodeURIComponent, parseInt).
  std::array<bool, 9> builtin_seen{};
  std::size_t eval_calls = 0;

  // Zeroes every scalar and empties every container while preserving
  // container capacity. Implemented by moving the containers aside,
  // value-resetting the whole struct (immune to a newly added scalar
  // being missed), then moving the containers back and clear()ing them.
  void reset() {
    auto keep_identifier_lengths = std::move(identifier_lengths);
    auto keep_unique_identifiers = std::move(unique_identifiers);
    auto keep_string_lengths = std::move(string_lengths);
    auto keep_all_string_bytes = std::move(all_string_bytes);
    *this = ExtractCounters{};
    identifier_lengths = std::move(keep_identifier_lengths);
    identifier_lengths.clear();
    unique_identifiers = std::move(keep_unique_identifiers);
    unique_identifiers.clear();
    string_lengths = std::move(keep_string_lengths);
    string_lengths.clear();
    all_string_bytes = std::move(keep_all_string_bytes);
    all_string_bytes.clear();
  }

  std::size_t capacity_bytes() const {
    return identifier_lengths.capacity() * sizeof(double) +
           string_lengths.capacity() * sizeof(double) +
           all_string_bytes.capacity() +
           unique_identifiers.capacity_bytes();
  }
};

// Everything the fused single-pass extractor reuses across scripts.
struct ExtractScratch {
  ExtractCounters counters;
  // Traversal stack for for_each_preorder_depth.
  std::vector<std::pair<const Node*, std::size_t>> walk_stack;
  // Nodes per depth level (tree breadth).
  std::vector<std::size_t> level_counts;
  // FNV-1a partial hash states, one per in-flight n-gram window.
  std::array<std::uint64_t, kNgramSize> fnv_ring{};
  // Hashed n-gram histogram (hash_dim buckets).
  std::vector<float> ngram_histogram;
  // The assembled feature vector extract_into returns a view of.
  std::vector<float> row;
  // Data-flow builder workspace (scope/binding tables and pooled site
  // spans), threaded through AnalysisOptions::dataflow_scratch when this
  // scratch drives the analysis stage too.
  DataFlowScratch dataflow;
  // CFG builder workspace (raw edge list, statement-walk stacks),
  // threaded through AnalysisOptions::cfg_scratch alongside `dataflow`.
  CfgScratch cfg;
  // Early-exit traversal stack for script_eligible / ast_eligible.
  std::vector<const Node*> eligibility_stack;
  // Number of times this scratch has been handed an extraction; >0 means
  // a reuse (the allocation-free steady state the obs counter tracks).
  std::uint64_t uses = 0;

  std::size_t capacity_bytes() const {
    return counters.capacity_bytes() +
           walk_stack.capacity() * sizeof(walk_stack[0]) +
           level_counts.capacity() * sizeof(std::size_t) +
           (ngram_histogram.capacity() + row.capacity()) * sizeof(float) +
           dataflow.capacity_bytes() + cfg.capacity_bytes() +
           eligibility_stack.capacity() * sizeof(const Node*);
  }
};

}  // namespace jst::features
