// Test oracles for the two graph layers (DESIGN.md §17).
//
// Production `build_control_flow` / `build_data_flow` keep only the
// counts the features read and skip subtrees by their reach bits. The
// builders here are the full-walk, edge-list passes they replaced, kept
// verbatim: they enumerate every edge, so a test can assert individual
// edges, pin digests of the edge lists (test_dataflow_diff), and check
// that every production count equals the enumeration. Link
// `jst_test_oracles` to use them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "dataflow/dataflow.h"
#include "support/budget.h"

namespace jst::oracle {

struct ControlFlow {
  // Deduplicated directed edges between node ids (Ast::finalize() order),
  // sorted by (from, to).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  std::size_t edge_count() const { return edges.size(); }
  // Nodes with out-degree >= 2.
  std::size_t branch_node_count() const { return branch_node_count_; }
  // Edges to an id <= the source's id.
  std::size_t back_edge_count() const { return back_edge_count_; }

 private:
  friend struct CfgBuildAccess;
  std::size_t branch_node_count_ = 0;
  std::size_t back_edge_count_ = 0;
};

// The reference builder's workspace, including the CSR arrays its
// finalize counting-sorts the raw edges through.
struct CfgScratch {
  struct Breakable {
    std::string_view label;       // empty for unlabeled targets
    const Node* continue_target;  // nullptr for switch / labeled block
    std::uint32_t sink_head;
    std::uint32_t sink_tail;
  };
  struct BreakLink {
    const Node* site = nullptr;
    std::uint32_t next = 0;
  };

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // raw order
  std::vector<const Node*> exits;
  std::vector<std::pair<const Node*, const Node*>> cond_stack;
  std::vector<Breakable> breakables;
  std::vector<BreakLink> break_links;
  std::vector<const Node*> func_stack;
  std::vector<std::uint32_t> row_offsets;
  std::vector<std::uint32_t> col;
};

// Every control-flow edge of a finalized AST, visiting every node.
ControlFlow build_control_flow(const Ast& ast, Budget* budget = nullptr,
                               CfgScratch* scratch = nullptr);

// The reference data-flow result: production's DataFlow plus the def ->
// use edge list, in emission order.
struct DataFlow {
  DataFlow() = default;
  DataFlow(DataFlow&&) noexcept = default;
  DataFlow& operator=(DataFlow&&) noexcept = default;
  DataFlow(const DataFlow&) = delete;
  DataFlow& operator=(const DataFlow&) = delete;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<Binding> bindings;
  std::vector<const Node*> site_pool;
  std::size_t unresolved_uses = 0;
  std::size_t scope_count = 0;
  bool completed = true;
  std::optional<BudgetTrip> tripped;

  std::size_t edge_count() const { return edges.size(); }
};

// Every def -> use edge of a finalized AST, visiting every node and
// charging the budget one edge at a time.
DataFlow build_data_flow(const Ast& ast, const DataFlowOptions& options = {});

// Runs production and reference builders of both layers over `ast`, each
// under its own Budget with `limits` (none when no limit is enabled), and
// describes the first disagreement: CFG counts, data-flow edge count,
// scope and unresolved counts, completion, trip, or any binding field or
// site. Empty when they agree. Both data-flow passes get `options`'s
// node budget; only production reuses its scratch, and each builder's
// own Budget replaces its `budget`.
std::string graph_mismatch(const Ast& ast, const ResourceLimits& limits = {},
                           DataFlowOptions options = {});

// Recomputes every reachable node's reach bits from its subtree and
// describes the first node whose stored Node::reach differs. Empty when
// all agree.
std::string reach_mismatch(const Ast& ast);

}  // namespace jst::oracle
