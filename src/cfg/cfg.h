// Control-flow augmentation of the AST.
//
// Following the paper's JSTAP adjustment (§III-A): "we restrict flows of
// control to nodes having an impact on program execution paths, meaning
// statement nodes, CatchClause, and ConditionalExpression."
//
// The graph is intra-procedural (one sub-graph per function plus the
// top-level program), with edges for sequencing, branching (if/switch/
// conditional expressions), loop back-edges, break/continue (including
// labeled forms), and exception paths into CatchClause.
//
// Production keeps only what the features read: the deduplicated edge
// count, the branch-node count and the back-edge count (DESIGN.md §17).
// The walks enter only subtrees whose reach bits (Node::reach) say they
// hold a function or a ConditionalExpression, so JSFuck-style operator
// soup between statements costs nothing here. The full edge-list
// builder survives in the tests as the oracle these counts are checked
// against (tests/support/graph_oracles.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ast/ast.h"

namespace jst {

struct CfgScratch;

struct ControlFlow {
  // Number of distinct directed edges between node ids.
  std::size_t edge_count() const { return edge_count_; }

  // Number of nodes with out-degree >= 2 (branch points).
  std::size_t branch_node_count() const { return branch_node_count_; }

  // Number of back edges (edge to an id <= own id, i.e., loops; pre-order
  // ids make ancestors smaller).
  std::size_t back_edge_count() const { return back_edge_count_; }

 private:
  friend ControlFlow build_control_flow(const Ast&, Budget*, CfgScratch*);
  std::size_t edge_count_ = 0;
  std::size_t branch_node_count_ = 0;
  std::size_t back_edge_count_ = 0;
};

// Reusable builder workspace: the raw edge list (sorted and deduplicated
// in place to count), and the shared exits/conditional/breakable stacks
// the statement walk runs on. Capacity survives across scripts, so
// steady-state CFG builds allocate nothing.
struct CfgScratch {
  // One break/continue target on the breakable stack. `label` views the
  // AST arena; `sink_head`/`sink_tail` chain this target's recorded break
  // sites through `break_links`.
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
  // Shared exits stack: each statement's fall-through exits are a
  // segment on top; callers mark/consume/truncate.
  std::vector<const Node*> exits;
  // (node, nearest cfg parent) stack for conditional-expression linking.
  std::vector<std::pair<const Node*, const Node*>> cond_stack;
  std::vector<Breakable> breakables;
  std::vector<BreakLink> break_links;
  // Nested-function discovery stack.
  std::vector<const Node*> func_stack;

  std::size_t capacity_bytes() const {
    return edges.capacity() * sizeof(edges[0]) +
           exits.capacity() * sizeof(const Node*) +
           cond_stack.capacity() * sizeof(cond_stack[0]) +
           breakables.capacity() * sizeof(Breakable) +
           break_links.capacity() * sizeof(BreakLink) +
           func_stack.capacity() * sizeof(const Node*);
  }
};

// Counts the control-flow edges of a finalized AST. The AST must have had
// Ast::finalize() called since its last mutation (ids, parents and reach
// bits assigned). A non-null `budget` is polled for the wall-clock
// deadline while edges are emitted; a passed deadline throws
// BudgetExceeded. `scratch`, when non-null, is the
// reusable workspace above; nullptr allocates per call.
ControlFlow build_control_flow(const Ast& ast, Budget* budget = nullptr,
                               CfgScratch* scratch = nullptr);

}  // namespace jst
