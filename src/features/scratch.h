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
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "features/ngram.h"

namespace jst::features {

// Per-script counters the hand-picked feature block is assembled from.
// One instance per scratch; reset() clears values but keeps container
// capacity (and the per-atom stamps) for the next script.
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
  // Distinct identifier spellings, counted by atom id (Node::atom, or
  // interned on the spot for a node without one): atom_stamps[atom] ==
  // atom_epoch marks an atom already counted this script. reset() moves
  // to the next epoch instead of clearing the array.
  std::size_t unique_identifiers = 0;
  std::vector<std::uint32_t> atom_stamps;
  std::uint32_t atom_epoch = 1;  // fresh stamps (0) read as not yet seen

  void count_atom(std::uint32_t atom) {
    if (atom >= atom_stamps.size()) atom_stamps.resize(atom + 1, 0);
    if (atom_stamps[atom] == atom_epoch) return;
    atom_stamps[atom] = atom_epoch;
    ++unique_identifiers;
  }

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
    auto keep_atom_stamps = std::move(atom_stamps);
    std::uint32_t next_epoch = atom_epoch + 1;
    auto keep_string_lengths = std::move(string_lengths);
    auto keep_all_string_bytes = std::move(all_string_bytes);
    *this = ExtractCounters{};
    identifier_lengths = std::move(keep_identifier_lengths);
    identifier_lengths.clear();
    atom_stamps = std::move(keep_atom_stamps);
    if (next_epoch == 0) {
      // Epoch wrapped: stale stamps would read as seen again.
      std::fill(atom_stamps.begin(), atom_stamps.end(), 0);
      next_epoch = 1;
    }
    atom_epoch = next_epoch;
    string_lengths = std::move(keep_string_lengths);
    string_lengths.clear();
    all_string_bytes = std::move(keep_all_string_bytes);
    all_string_bytes.clear();
  }

  std::size_t capacity_bytes() const {
    return identifier_lengths.capacity() * sizeof(double) +
           string_lengths.capacity() * sizeof(double) +
           all_string_bytes.capacity() +
           atom_stamps.capacity() * sizeof(std::uint32_t);
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
