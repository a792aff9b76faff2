// Data-flow augmentation of the AST.
//
// Per the paper (§III-A): "we only consider data flows on Identifier
// nodes, i.e., there is a data flow between two Identifier nodes if and
// only if a variable is defined at the source node and used at the
// destination node. We also improve the way to handle objects and
// scoping."
//
// We build a lexical scope tree (function scopes with var hoisting, block
// scopes for let/const, catch-parameter scopes), resolve every identifier
// reference to its binding, and count def -> use edges. Assignments count
// as additional definition sites. The paper's 2-minute wall-clock timeout
// is modeled as a node budget: oversized inputs yield `completed = false`
// and no data-flow edges (the AST stays control-flow-only).
//
// The builder is flat (DESIGN.md §17): scopes are records in a scratch
// array (no per-scope heap node), resolution is a per-atom binding stack
// indexed by the parse-time atom id (no string hashing), and use/
// assignment sites are chained through a pooled link array and packed
// into contiguous spans when the traversal finishes. The walk enters only
// subtrees whose reach bits (Node::reach) hold a node it acts on, so
// operator soup between identifiers costs nothing. Edges are counted,
// never listed: a binding contributes (declaration + assignment sites) x
// uses, less the pairs where a def is the use itself. The edge-list
// builder survives in the tests as the oracle the counts are checked
// against (tests/support/graph_oracles.h). Steady-state (with a
// DataFlowScratch) the pass allocates only the returned bindings.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ast/ast.h"
#include "support/budget.h"

namespace jst {

// One variable binding and everything resolved to it. `name` views the
// AST arena; `assignments`/`uses` view the site pool (owned by the
// DataFlow when built without a scratch, aliased from the scratch
// otherwise) — both share the owning analysis' lifetime, see DataFlow.
struct Binding {
  const Node* declaration = nullptr;  // the defining Identifier node
  std::string_view name;
  // The initializing expression node (if any): lets features ask "was
  // this variable initialized from an array/object literal?".
  const Node* init = nullptr;
  std::span<const Node* const> assignments;  // write sites (Identifier nodes)
  std::span<const Node* const> uses;         // read sites (Identifier nodes)
  bool is_parameter = false;
  bool is_function_name = false;
};

struct DataFlow {
  DataFlow() = default;
  // Move-only: `bindings` spans alias `site_pool` (or a scratch), so an
  // implicit copy would silently share (or dangle) site storage.
  DataFlow(DataFlow&&) noexcept = default;
  DataFlow& operator=(DataFlow&&) noexcept = default;
  DataFlow(const DataFlow&) = delete;
  DataFlow& operator=(const DataFlow&) = delete;

  // Number of def -> use edges between Identifier nodes; truncated at the
  // trip point when `tripped` is set.
  std::size_t def_use_edges = 0;
  std::vector<Binding> bindings;
  // Backing storage for the bindings' site spans when the pass ran
  // without a scratch. With a scratch the spans alias its pool instead
  // and stay valid until the scratch's next build (the per-script pooling
  // contract, same as the pooled front-end arena).
  std::vector<const Node*> site_pool;
  // Identifier reads that resolved to no binding (globals/undeclared).
  std::size_t unresolved_uses = 0;
  std::size_t scope_count = 0;
  // False when the node budget was exceeded and edges were not generated,
  // or when a resource budget stopped edge generation early (see `tripped`).
  bool completed = true;
  // Populated when the attached Budget's data-flow edge ceiling or
  // deadline stopped the pass; the edge count stops at the trip point. The
  // data-flow stage is soft: the pass records the trip and returns instead
  // of throwing, so the pipeline can degrade around it (DESIGN.md §10).
  std::optional<BudgetTrip> tripped;

  std::size_t edge_count() const { return def_use_edges; }
};

// Reusable builder workspace: every flat table the pass traverses with —
// scope records, the per-atom binding stacks and their unwind log, the
// chained site links and the packed span storage, and the iterative
// walker stacks. Capacity survives across scripts (features/scratch.h),
// making steady-state builds allocation-free up to the returned DataFlow.
struct DataFlowScratch {
  // One lexical scope: parent index and the unwind mark into `bind_log`
  // (bindings pushed since the scope opened; popped on close).
  struct ScopeRec {
    std::uint32_t parent = 0;
    std::uint32_t log_mark = 0;
  };
  // Builder-side per-binding record, index-parallel with the public
  // bindings vector: the owning scope, the shadowed stack entry, and the
  // chained use/assignment site lists.
  struct BindingAux {
    std::uint32_t scope = 0;
    std::uint32_t prev_top = 0;
    std::uint32_t use_head = 0, use_tail = 0;
    std::uint32_t asg_head = 0, asg_tail = 0;
    std::uint32_t use_count = 0, asg_count = 0;
  };
  // One recorded site in a binding's chained list.
  struct SiteLink {
    const Node* site = nullptr;
    std::uint32_t next = 0;
  };

  std::vector<ScopeRec> scopes;
  std::vector<BindingAux> aux;
  // atom id -> innermost live binding index (the symbol table).
  std::vector<std::uint32_t> atom_tops;
  // Atoms bound since the run started; ScopeRec::log_mark segments it.
  std::vector<std::uint32_t> bind_log;
  std::vector<SiteLink> site_links;
  // Packed span storage the returned bindings point into (scratch runs).
  std::vector<const Node*> sites;
  // Iterative walker stacks (same-scope spine, hoisting DFS).
  std::vector<const Node*> spine;
  std::vector<const Node*> hoist_stack;

  std::size_t capacity_bytes() const {
    return scopes.capacity() * sizeof(ScopeRec) +
           aux.capacity() * sizeof(BindingAux) +
           atom_tops.capacity() * sizeof(std::uint32_t) +
           bind_log.capacity() * sizeof(std::uint32_t) +
           site_links.capacity() * sizeof(SiteLink) +
           sites.capacity() * sizeof(const Node*) +
           spine.capacity() * sizeof(const Node*) +
           hoist_stack.capacity() * sizeof(const Node*);
  }
};

struct DataFlowOptions {
  // Analysis is skipped (completed=false) above this many AST nodes.
  // Stands in for the paper's two-minute timeout.
  std::size_t node_budget = 2'000'000;
  // Non-owning per-script budget: charged one unit per def->use edge (in
  // bulk per def, tripping at the same edge as one-by-one charges would)
  // and polled for the deadline during reference resolution. nullptr
  // governs nothing.
  Budget* budget = nullptr;
  // Non-owning reusable workspace; nullptr allocates per call (and the
  // returned DataFlow owns its site storage).
  DataFlowScratch* scratch = nullptr;
};

// Requires an AST finalized since its last mutation (ids and reach bits).
DataFlow build_data_flow(const Ast& ast, const DataFlowOptions& options = {});

}  // namespace jst
