// Hand-picked features (§III-B).
//
// Implements the features the paper names explicitly — AST depth/breadth
// per line, MemberExpression-to-unique-Identifier ratio, proportions of
// CallExpression/Literal/Identifier nodes, built-in function presence,
// string-operation counts, average identifier length, characters per line,
// ternary-operator proportion, dot-vs-bracket notation ratio, array/
// dictionary sizes, and the data-flow-based "fetched from a structure"
// proportion — plus the companion signals the same in-depth study of the
// ten techniques yields (hex identifier prefixes, encoded-string ratios,
// switch-in-loop dispatchers, debugger density, self-defending markers,
// JSFuck-style operator densities, comment volume, whitespace ratios, CFG
// shape).
#pragma once

#include <string>
#include <vector>

#include "features/analysis_pipeline.h"
#include "features/scratch.h"

namespace jst::features {

// Stable list of hand-picked feature names, in the order
// assemble_handpicked() appends the values.
const std::vector<std::string>& handpicked_feature_names();

// Per-node counter update, driven by the single-pass extractor
// (feature_extractor.cpp) from its own walk. Must be called once per node
// in pre-order. `atoms` is the node's Ast's atom table; an identifier
// node without an atom is interned into it.
void gather_handpicked(const Node& node, support::AtomTable& atoms,
                       ExtractCounters& counters);

// Assembles the hand-picked feature block from gathered counters plus the
// tree depth/breadth, appending handpicked_feature_names().size() values
// to `out`.
void assemble_handpicked(const ScriptAnalysis& analysis,
                         const ExtractCounters& counters, std::size_t depth,
                         std::size_t breadth, std::vector<float>& out);

}  // namespace jst::features
