// Reference graph builders (see graph_oracles.h): the full-walk,
// edge-list control-flow and data-flow passes exactly as production ran
// them before it became count-only and reach-pruned. Kept verbatim so the
// pinned digests of test_dataflow_diff still describe them, and so every
// production count can be checked against a full enumeration.
#include "support/graph_oracles.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "cfg/cfg.h"

namespace jst::oracle {

// Grants build_control_flow access to the cached adjacency counts.
struct CfgBuildAccess {
  static void set_counts(ControlFlow& flow, std::size_t branches,
                         std::size_t backs) {
    flow.branch_node_count_ = branches;
    flow.back_edge_count_ = backs;
  }
};

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// Builder with break/continue context stacks. Exits of a statement are
// the CFG nodes from which control falls through to the lexically
// following statement; they live as segments on a shared stack in the
// scratch (DESIGN.md §17) — a caller marks the stack top, lets
// visit_statement push the statement's exits above the mark, consumes
// them, and truncates back. Break sites chain through a pooled link
// array per breakable target, so a labeled break deep in a nested
// statement lands in its own target's sink without touching the segments
// in between. Every edge is appended raw; build() finalizes through a
// CSR adjacency into the sorted, deduplicated public list.
class CfgBuilder {
 public:
  CfgBuilder(Budget* budget, CfgScratch& ws) : budget_(budget), ws_(ws) {}

  void build(const Node* root, std::size_t node_count, ControlFlow& out) {
    ws_.edges.clear();
    ws_.exits.clear();
    ws_.cond_stack.clear();
    ws_.breakables.clear();
    ws_.break_links.clear();
    ws_.func_stack.clear();
    if (root != nullptr) {
      visit_body(root->kids, *root);
      ws_.exits.clear();
      // Nested functions get their own sub-graphs: one explicit pre-order
      // sweep finds every function node (the statement walk above never
      // descends into them), and each block body is visited with the
      // breakable stack floored so enclosing loop/switch targets are
      // invisible inside the function.
      std::vector<const Node*>& stack = ws_.func_stack;
      stack.push_back(root);
      while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        if (node->is_function()) {
          const Node* body = function_body(*node);
          if (body != nullptr && body->kind == NodeKind::kBlockStatement) {
            const std::size_t saved_floor = breakable_floor_;
            breakable_floor_ = ws_.breakables.size();
            visit_body(body->kids, *body);
            ws_.exits.clear();
            breakable_floor_ = saved_floor;
          }
          // Expression-bodied arrows have conditional-expression nodes
          // only.
        }
        for (std::size_t i = node->kids.size(); i > 0; --i) {
          if (node->kids[i - 1] != nullptr) stack.push_back(node->kids[i - 1]);
        }
      }
    }
    finalize(node_count, out);
  }

 private:
  static const Node* function_body(const Node& function) {
    // Layout: FunctionDeclaration/Expression: [id, body, params...];
    // ArrowFunctionExpression: [body, params...].
    if (function.kind == NodeKind::kArrowFunctionExpression) {
      return function.kid(0);
    }
    return function.kid(1);
  }

  void edge(const Node* from, const Node* to) {
    if (budget_ != nullptr) budget_->poll_deadline();
    if (from == nullptr || to == nullptr) return;
    ws_.edges.emplace_back(from->id, to->id);
  }

  // Edges from every exit in the segment [mark, top) to `to`.
  void edges_from(std::size_t mark, const Node* to) {
    for (std::size_t i = mark; i < ws_.exits.size(); ++i) {
      edge(ws_.exits[i], to);
    }
  }

  // Adds statement -> ConditionalExpression edges for every conditional
  // expression syntactically inside `statement` (not crossing function
  // boundaries), plus nesting edges between conditionals.
  void link_conditional_expressions(const Node& statement) {
    // Manual stack walk that stops at nested functions and nested
    // statements (those are visited on their own).
    std::vector<std::pair<const Node*, const Node*>>& stack = ws_.cond_stack;
    const std::size_t base = stack.size();
    for (const Node* kid : statement.kids) {
      if (kid != nullptr && !kid->is_statement() &&
          kid->kind != NodeKind::kSwitchCase &&
          kid->kind != NodeKind::kCatchClause) {
        stack.emplace_back(kid, &statement);
      }
    }
    while (stack.size() > base) {
      const auto [node, cfg_parent] = stack.back();
      stack.pop_back();
      const Node* next_parent = cfg_parent;
      if (node->kind == NodeKind::kConditionalExpression) {
        edge(cfg_parent, node);
        next_parent = node;
      }
      if (node->is_function()) continue;  // separate sub-graph
      for (const Node* kid : node->kids) {
        if (kid != nullptr && !kid->is_statement()) {
          stack.emplace_back(kid, next_parent);
        }
      }
    }
  }

  // --- breakable stack ---------------------------------------------------

  void push_breakable(std::string_view label, const Node* continue_target) {
    ws_.breakables.push_back({label, continue_target, kNone, kNone});
  }

  void record_break(CfgScratch::Breakable& target, const Node* site) {
    const std::uint32_t link =
        static_cast<std::uint32_t>(ws_.break_links.size());
    ws_.break_links.push_back({site, kNone});
    if (target.sink_tail == kNone) {
      target.sink_head = link;
    } else {
      ws_.break_links[target.sink_tail].next = link;
    }
    target.sink_tail = link;
  }

  // Pops the innermost breakable, appending its recorded break sites to
  // the exits segment on top of the stack.
  void pop_breakable_into_exits() {
    const CfgScratch::Breakable target = ws_.breakables.back();
    ws_.breakables.pop_back();
    for (std::uint32_t link = target.sink_head; link != kNone;
         link = ws_.break_links[link].next) {
      ws_.exits.push_back(ws_.break_links[link].site);
    }
  }

  // --- statement walk ----------------------------------------------------

  // Visits a statement list: `previous` exits flow into each following
  // statement. On return, the final statement's exits sit on top of the
  // stack (the body's own exits).
  void visit_body(const NodeList& statements, const Node& owner) {
    const std::size_t mark = ws_.exits.size();
    ws_.exits.push_back(&owner);
    bool first = true;
    for (const Node* statement : statements) {
      if (statement == nullptr) continue;
      if (first) {
        // The container (block/program) flows into its first statement
        // only for blocks nested as CFG nodes; for Program we treat the
        // first statement as the entry, so skip the self edge there.
        first = false;
        if (owner.kind != NodeKind::kProgram) {
          edges_from(mark, statement);
        }
      } else {
        edges_from(mark, statement);
      }
      ws_.exits.resize(mark);
      visit_statement(*statement);
    }
  }

  // Pushes the exits of `node` onto the shared stack.
  void visit_statement(const Node& node) {
    link_conditional_expressions(node);
    switch (node.kind) {
      case NodeKind::kBlockStatement:
        visit_body(node.kids, node);
        return;

      case NodeKind::kIfStatement: {
        const Node* consequent = node.kid(1);
        edge(&node, consequent);
        visit_statement(*consequent);
        if (node.kid(2) != nullptr) {
          edge(&node, node.kids[2]);
          visit_statement(*node.kids[2]);  // appended: union of branches
        } else {
          ws_.exits.push_back(&node);  // false branch falls through
        }
        return;
      }

      case NodeKind::kWhileStatement:
      case NodeKind::kDoWhileStatement:
      case NodeKind::kForStatement:
      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement: {
        push_breakable(pending_label_, &node);
        pending_label_ = {};
        const Node* body = loop_body(node);
        edge(&node, body);
        const std::size_t mark = ws_.exits.size();
        visit_statement(*body);
        edges_from(mark, &node);  // back edge
        ws_.exits.resize(mark);
        ws_.exits.push_back(&node);
        pop_breakable_into_exits();
        return;
      }

      case NodeKind::kSwitchStatement: {
        push_breakable(pending_label_, nullptr);
        pending_label_ = {};
        // The previous case's exits (fallthrough sources) live as the
        // segment above `mark` across case visits.
        const std::size_t mark = ws_.exits.size();
        bool has_default = false;
        for (std::size_t i = 1; i < node.kids.size(); ++i) {
          const Node& switch_case = *node.kids[i];
          if (switch_case.kid(0) == nullptr) has_default = true;
          bool first_statement = true;
          for (std::size_t j = 1; j < switch_case.kids.size(); ++j) {
            const Node* statement = switch_case.kids[j];
            if (first_statement) {
              first_statement = false;
              // Dispatch edge from the switch to the case's first
              // statement, plus fallthrough from the previous case.
              edge(&node, statement);
              edges_from(mark, statement);
            } else {
              edges_from(mark, statement);
            }
            ws_.exits.resize(mark);
            visit_statement(*statement);
          }
          // A case with no statements leaves the previous exits in place
          // (fallthrough continues through the empty case).
        }
        pop_breakable_into_exits();
        if (!has_default) ws_.exits.push_back(&node);
        return;
      }

      case NodeKind::kTryStatement: {
        const Node* block = node.kid(0);
        const Node* handler = node.kid(1);
        const Node* finalizer = node.kid(2);
        edge(&node, block);
        const std::size_t mark = ws_.exits.size();
        visit_statement(*block);
        if (handler != nullptr) {
          edge(&node, handler);  // exception path
          const Node* handler_body = handler->kid(1);
          edge(handler, handler_body);
          visit_statement(*handler_body);  // appended: union
        }
        if (finalizer != nullptr) {
          edges_from(mark, finalizer);
          ws_.exits.resize(mark);
          visit_statement(*finalizer);
        }
        return;
      }

      case NodeKind::kLabeledStatement: {
        pending_label_ = node.kids[0]->str_value;
        const Node* body = node.kid(1);
        edge(&node, body);
        if (body->is_loop() || body->kind == NodeKind::kSwitchStatement) {
          visit_statement(*body);  // the loop/switch consumes the label
          return;
        }
        // Labeled block: breaks to this label exit the block.
        push_breakable(pending_label_, nullptr);
        pending_label_ = {};
        visit_statement(*body);
        pop_breakable_into_exits();
        return;
      }

      case NodeKind::kBreakStatement: {
        const std::string_view label =
            node.kid(0) != nullptr ? node.kids[0]->str_value
                                   : std::string_view();
        for (std::size_t i = ws_.breakables.size(); i > breakable_floor_;
             --i) {
          CfgScratch::Breakable& target = ws_.breakables[i - 1];
          if (label.empty() || target.label == label) {
            record_break(target, &node);
            break;
          }
        }
        return;  // no fall-through exits
      }

      case NodeKind::kContinueStatement: {
        const std::string_view label =
            node.kid(0) != nullptr ? node.kids[0]->str_value
                                   : std::string_view();
        for (std::size_t i = ws_.breakables.size(); i > breakable_floor_;
             --i) {
          const CfgScratch::Breakable& target = ws_.breakables[i - 1];
          if (target.continue_target != nullptr &&
              (label.empty() || target.label == label)) {
            edge(&node, target.continue_target);
            break;
          }
        }
        return;  // no fall-through exits
      }

      case NodeKind::kReturnStatement:
      case NodeKind::kThrowStatement:
        return;  // leaves the function / propagates

      case NodeKind::kWithStatement: {
        const Node* body = node.kid(1);
        edge(&node, body);
        visit_statement(*body);
        return;
      }

      default:
        // Straight-line statements: the node itself is the single exit.
        ws_.exits.push_back(&node);
        return;
    }
  }

  static const Node* loop_body(const Node& loop) {
    switch (loop.kind) {
      case NodeKind::kWhileStatement: return loop.kid(1);
      case NodeKind::kDoWhileStatement: return loop.kid(0);
      case NodeKind::kForStatement: return loop.kid(3);
      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement:
        return loop.kid(2);
      default:
        return nullptr;
    }
  }

  // --- CSR finalization --------------------------------------------------

  // Counting-sorts the raw edges by source row, sorts each row's targets,
  // and writes the deduplicated (from, to)-sorted list — the same list
  // std::sort + std::unique produced — while reading the branch and
  // back-edge counts off the adjacency in the same pass.
  void finalize(std::size_t node_count, ControlFlow& out) {
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw =
        ws_.edges;
    std::vector<std::uint32_t>& offsets = ws_.row_offsets;
    offsets.assign(node_count + 1, 0);
    for (const auto& [from, to] : raw) {
      (void)to;
      ++offsets[from + 1];
    }
    for (std::size_t row = 0; row < node_count; ++row) {
      offsets[row + 1] += offsets[row];
    }
    ws_.col.resize(raw.size());
    {
      // `offsets[row]` doubles as the write cursor; after placement each
      // entry has advanced to the next row's start, restored below.
      for (const auto& [from, to] : raw) {
        ws_.col[offsets[from]++] = to;
      }
      for (std::size_t row = node_count; row > 0; --row) {
        offsets[row] = offsets[row - 1];
      }
      offsets[0] = 0;
    }
    out.edges.clear();
    out.edges.reserve(raw.size());
    std::size_t branches = 0;
    std::size_t backs = 0;
    for (std::size_t row = 0; row < node_count; ++row) {
      const std::size_t begin = offsets[row];
      const std::size_t end = offsets[row + 1];
      if (begin == end) continue;
      std::sort(ws_.col.begin() + static_cast<std::ptrdiff_t>(begin),
                ws_.col.begin() + static_cast<std::ptrdiff_t>(end));
      const std::uint32_t from = static_cast<std::uint32_t>(row);
      std::size_t degree = 0;
      std::uint32_t previous = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t to = ws_.col[i];
        if (degree > 0 && to == previous) continue;  // duplicate edge
        out.edges.emplace_back(from, to);
        if (to <= from) ++backs;
        previous = to;
        ++degree;
      }
      if (degree >= 2) ++branches;
    }
    CfgBuildAccess::set_counts(out, branches, backs);
  }

  Budget* budget_ = nullptr;
  CfgScratch& ws_;
  // Breakables below the floor belong to an enclosing function and are
  // invisible to break/continue inside the current one.
  std::size_t breakable_floor_ = 0;
  std::string_view pending_label_;
};

}  // namespace

ControlFlow build_control_flow(const Ast& ast, Budget* budget,
                               CfgScratch* scratch) {
  ControlFlow flow;
  CfgScratch local_scratch;
  CfgScratch& workspace = scratch != nullptr ? *scratch : local_scratch;
  CfgBuilder builder(budget, workspace);
  builder.build(ast.root(), ast.node_count(), flow);
  return flow;
}

namespace {

// Flat scope/data-flow builder (DESIGN.md §17).
//
// The previous implementation kept one heap-allocated Scope per lexical
// scope, each holding an unordered_map<std::string, index>, and resolved
// every reference by materializing a std::string key and walking the
// parent chain of maps. This builder exploits two structural facts the
// traversal already guarantees:
//
//  1. Scopes open and close in strict LIFO order (every scope-opening
//     helper drains its subtree before returning), so the set of live
//     scopes is a stack and "innermost" is a single index.
//  2. Every bind targets the scope being opened (hoisting, lexical
//     collection, parameters, catch params and for-heads all run at
//     scope-open time), so a per-atom stack of live bindings — indexed
//     by the parse-time atom id — resolves any reference in O(1): the
//     top of the atom's stack IS the innermost binding.
//
// Bindings therefore carry `prev_top` (the shadowed stack entry) and the
// bind log records which atoms a scope pushed, so closing a scope pops
// its bindings in O(bindings). No hashing, no string compares, no
// per-scope allocation; every table lives in the DataFlowScratch.
class DataFlowBuilder {
 public:
  DataFlowBuilder(const Ast& ast, DataFlow& out, Budget* budget,
                  DataFlowScratch& ws)
      : ast_(ast), out_(out), budget_(budget), ws_(ws) {}

  void run(const Node* root) {
    if (root == nullptr) return;
    ws_.scopes.clear();
    ws_.aux.clear();
    ws_.bind_log.clear();
    ws_.site_links.clear();
    ws_.spine.clear();
    ws_.hoist_stack.clear();
    ws_.atom_tops.assign(ast_.atoms().size(), kNone);

    open_scope();  // global
    hoist_into_function_scope(root);
    collect_lexical(root->kids);
    for (const Node* statement : root->kids) {
      visit(statement);
      if (aborted_) break;  // deadline noticed mid-resolution
    }
    // Pack the chained sites into contiguous spans before (possibly
    // budget-truncated) edge emission, so the bindings are fully formed
    // even when a ceiling stops the pass mid-product.
    pack_sites();
    if (aborted_) return;
    emit_edges();
  }

 private:
  // --- scope stack -------------------------------------------------------

  void open_scope() {
    DataFlowScratch::ScopeRec scope;
    scope.parent = current_;
    scope.log_mark = static_cast<std::uint32_t>(ws_.bind_log.size());
    current_ = static_cast<std::uint32_t>(ws_.scopes.size());
    ws_.scopes.push_back(scope);
    ++out_.scope_count;
  }

  void close_scope() {
    const DataFlowScratch::ScopeRec& scope = ws_.scopes[current_];
    while (ws_.bind_log.size() > scope.log_mark) {
      const std::uint32_t atom = ws_.bind_log.back();
      ws_.bind_log.pop_back();
      ws_.atom_tops[atom] = ws_.aux[ws_.atom_tops[atom]].prev_top;
    }
    current_ = scope.parent;
  }

  // --- atoms -------------------------------------------------------------

  // Every parser-made identifier carries its atom; transformer-created
  // stragglers (atom-less nodes analyzed before the next re-parse) are
  // interned on first sight so they join the same id space.
  std::uint32_t atom_of(const Node* identifier) {
    const std::uint32_t atom = identifier->atom;
    if (atom != support::AtomTable::kNoAtom) return atom;
    const std::uint32_t interned =
        ast_.atoms().intern(identifier->str_value);
    if (interned >= ws_.atom_tops.size()) {
      ws_.atom_tops.resize(interned + 1, kNone);
    }
    return interned;
  }

  // --- binding table -----------------------------------------------------

  std::size_t bind(const Node* declaration) {
    const std::uint32_t atom = atom_of(declaration);
    const std::uint32_t top = ws_.atom_tops[atom];
    if (top != kNone && ws_.aux[top].scope == current_) {
      // Redeclaration (var x twice, or function overriding var): keep the
      // first binding, update the declaration node if missing.
      Binding& binding = out_.bindings[top];
      if (binding.declaration == nullptr) binding.declaration = declaration;
      return top;
    }
    Binding binding;
    binding.name = declaration->str_value;
    binding.declaration = declaration;
    out_.bindings.push_back(binding);
    DataFlowScratch::BindingAux aux;
    aux.scope = current_;
    aux.prev_top = top;
    aux.use_head = aux.use_tail = aux.asg_head = aux.asg_tail = kNone;
    ws_.aux.push_back(aux);
    const std::uint32_t index =
        static_cast<std::uint32_t>(out_.bindings.size() - 1);
    ws_.atom_tops[atom] = index;
    ws_.bind_log.push_back(atom);
    return index;
  }

  // Innermost live binding for the identifier, or kNone (unresolved).
  std::uint32_t resolve(const Node* identifier) {
    return ws_.atom_tops[atom_of(identifier)];
  }

  void append_site(std::uint32_t& head, std::uint32_t& tail,
                   std::uint32_t& count, const Node* site) {
    const std::uint32_t link =
        static_cast<std::uint32_t>(ws_.site_links.size());
    ws_.site_links.push_back({site, kNone});
    if (tail == kNone) {
      head = link;
    } else {
      ws_.site_links[tail].next = link;
    }
    tail = link;
    ++count;
  }

  // --- declaration collection ---

  // Binds all identifiers in a binding pattern into the current scope.
  void bind_pattern(const Node* pattern, bool is_parameter) {
    if (pattern == nullptr) return;
    switch (pattern->kind) {
      case NodeKind::kIdentifier: {
        const std::size_t index = bind(pattern);
        out_.bindings[index].is_parameter = is_parameter;
        break;
      }
      case NodeKind::kArrayPattern:
        for (const Node* element : pattern->kids) {
          bind_pattern(element, is_parameter);
        }
        break;
      case NodeKind::kObjectPattern:
        for (const Node* property : pattern->kids) {
          if (property == nullptr) continue;
          if (property->kind == NodeKind::kRestElement) {
            bind_pattern(property->kid(0), is_parameter);
          } else {
            bind_pattern(property->kid(1), is_parameter);
          }
        }
        break;
      case NodeKind::kAssignmentPattern:
        bind_pattern(pattern->kid(0), is_parameter);
        // The default value is an expression, resolved during visit().
        break;
      case NodeKind::kRestElement:
        bind_pattern(pattern->kid(0), is_parameter);
        break;
      default:
        break;  // member-expression targets bind nothing
    }
  }

  // Hoists `var` declarators and function declarations from the subtree
  // into the (currently innermost) function scope, without descending
  // into nested functions. Iterative pre-order with pruning: deep
  // expression chains make the subtree arbitrarily deep (the parser's
  // recursion guard only bounds nested statements), so per-node recursion
  // would overflow the native stack on hostile inputs. The explicit stack
  // visits every descendant in exactly the order the recursive version
  // did, so bindings are created in the same order and get the same
  // indices.
  void hoist_into_function_scope(const Node* node) {
    if (node == nullptr) return;
    std::vector<const Node*>& stack = ws_.hoist_stack;
    const std::size_t base = stack.size();  // re-entered via visit_function
    for (std::size_t i = node->kids.size(); i > 0; --i) {
      if (node->kids[i - 1] != nullptr) stack.push_back(node->kids[i - 1]);
    }
    while (stack.size() > base) {
      const Node* kid = stack.back();
      stack.pop_back();
      if (kid->kind == NodeKind::kFunctionDeclaration) {
        if (kid->kid(0) != nullptr) {
          const std::size_t index = bind(kid->kids[0]);
          out_.bindings[index].is_function_name = true;
          out_.bindings[index].init = kid;
        }
        continue;  // do not hoist through the nested function
      }
      if (kid->is_function()) continue;
      if (kid->kind == NodeKind::kVariableDeclaration &&
          kid->str_value == "var") {
        for (const Node* declarator : kid->kids) {
          bind_pattern(declarator->kid(0), false);
        }
        // Initializers may contain more nested statements (rare); fall
        // through to descend into the declarators.
      }
      for (std::size_t i = kid->kids.size(); i > 0; --i) {
        if (kid->kids[i - 1] != nullptr) stack.push_back(kid->kids[i - 1]);
      }
    }
  }

  // Binds let/const/class declared directly in this statement list into
  // the current scope. Templated over the list type: callers pass the
  // arena-backed NodeList or (for switch cases) a span over a kid-list
  // tail.
  template <typename StatementList>
  void collect_lexical(const StatementList& statements) {
    for (const Node* statement : statements) {
      if (statement == nullptr) continue;
      if (statement->kind == NodeKind::kVariableDeclaration &&
          statement->str_value != "var") {
        for (const Node* declarator : statement->kids) {
          bind_pattern(declarator->kid(0), false);
        }
      } else if (statement->kind == NodeKind::kClassDeclaration &&
                 statement->kid(0) != nullptr) {
        bind(statement->kids[0]);
      }
    }
  }

  // --- reference resolution ---

  void record_use(const Node* identifier) {
    const std::uint32_t index = resolve(identifier);
    if (index == kNone) {
      ++out_.unresolved_uses;
      return;
    }
    DataFlowScratch::BindingAux& aux = ws_.aux[index];
    append_site(aux.use_head, aux.use_tail, aux.use_count, identifier);
  }

  void record_write(const Node* identifier) {
    const std::uint32_t index = resolve(identifier);
    if (index == kNone) {
      ++out_.unresolved_uses;
      return;
    }
    DataFlowScratch::BindingAux& aux = ws_.aux[index];
    append_site(aux.asg_head, aux.asg_tail, aux.asg_count, identifier);
  }

  // Visits write targets (assignment LHS / for-in heads): identifiers are
  // writes; member expressions read their object; patterns recurse.
  void visit_target(const Node* target) {
    if (target == nullptr) return;
    switch (target->kind) {
      case NodeKind::kIdentifier:
        record_write(target);
        break;
      case NodeKind::kMemberExpression:
        visit(target->kid(0));
        if (target->flag_a) visit(target->kid(1));
        break;
      case NodeKind::kArrayPattern:
        for (const Node* element : target->kids) visit_target(element);
        break;
      case NodeKind::kObjectPattern:
        for (const Node* property : target->kids) {
          if (property == nullptr) continue;
          if (property->kind == NodeKind::kRestElement) {
            visit_target(property->kid(0));
          } else {
            if (property->flag_a) visit(property->kid(0));
            visit_target(property->kid(1));
          }
        }
        break;
      case NodeKind::kAssignmentPattern:
        visit_target(target->kid(0));
        visit(target->kid(1));
        break;
      case NodeKind::kRestElement:
        visit_target(target->kid(0));
        break;
      default:
        visit(target);
    }
  }

  void visit_function(const Node* function) {
    open_scope();
    const bool is_arrow = function->kind == NodeKind::kArrowFunctionExpression;
    const std::size_t first_param = is_arrow ? 1 : 2;
    const Node* body = is_arrow ? function->kid(0) : function->kid(1);
    // Function-expression names are visible inside the function.
    if (!is_arrow && function->kind == NodeKind::kFunctionExpression &&
        function->kid(0) != nullptr) {
      const std::size_t index = bind(function->kids[0]);
      out_.bindings[index].is_function_name = true;
      out_.bindings[index].init = function;
    }
    for (std::size_t i = first_param; i < function->kids.size(); ++i) {
      bind_pattern(function->kids[i], /*is_parameter=*/true);
    }
    if (body != nullptr && body->kind == NodeKind::kBlockStatement) {
      hoist_into_function_scope(body);
      collect_lexical(body->kids);
      // Parameter defaults are expressions in the function scope.
      for (std::size_t i = first_param; i < function->kids.size(); ++i) {
        visit_pattern_defaults(function->kids[i]);
      }
      for (const Node* statement : body->kids) visit(statement);
    } else if (body != nullptr) {
      for (std::size_t i = first_param; i < function->kids.size(); ++i) {
        visit_pattern_defaults(function->kids[i]);
      }
      visit(body);  // expression-bodied arrow
    }
    close_scope();
  }

  void visit_pattern_defaults(const Node* pattern) {
    if (pattern == nullptr) return;
    if (pattern->kind == NodeKind::kAssignmentPattern) {
      visit(pattern->kid(1));
      visit_pattern_defaults(pattern->kid(0));
      return;
    }
    for (const Node* kid : pattern->kids) visit_pattern_defaults(kid);
  }

  void visit_block_like(const Node* node) {
    open_scope();
    collect_lexical(node->kids);
    for (const Node* statement : node->kids) visit(statement);
    close_scope();
  }

  void push_kid(const Node* node) {
    if (node != nullptr) ws_.spine.push_back(node);
  }

  // Pushes `node`'s kids so they pop in source order.
  void push_kids_of(const Node* node) {
    for (std::size_t i = node->kids.size(); i > 0; --i) {
      push_kid(node->kids[i - 1]);
    }
  }

  // Iterative driver: expression chains (binary, call/member, sequence)
  // are parsed iteratively, so their AST depth is NOT bounded by the
  // parser's nesting recursion guard — a hostile 10k-term `[]+[]+...`
  // blob must not overflow the native stack here. Same-scope descent
  // therefore goes through an explicit spine stack; only scope-opening
  // and binding constructs (functions, blocks, loops, catch, switch —
  // forms the parser can only nest through its depth-guarded recursion)
  // re-enter visit() and consume native frames. A re-entrant call drains
  // its own segment of the shared stack (everything above `base`), which
  // preserves the exact pre-order visitation — and budget-poll order —
  // of the recursive implementation it replaced. Spine entries need no
  // scope tag: a deferred node is popped only after every scope opened
  // since it was pushed has closed again, so the current scope at pop
  // time is exactly the scope it was pushed under.
  void visit(const Node* node) {
    const std::size_t base = ws_.spine.size();
    push_kid(node);
    while (ws_.spine.size() > base) {
      if (aborted_) {
        ws_.spine.resize(base);
        return;
      }
      const Node* next = ws_.spine.back();
      ws_.spine.pop_back();
      step(next);
    }
  }

  // Handles one node; same-scope subtrees are pushed, not recursed.
  void step(const Node* node) {
    if (budget_ != nullptr &&
        ++visits_ % Budget::kDeadlinePollStride == 0 &&
        budget_->deadline_expired()) {
      abort_with(ResourceKind::kDeadline);
      return;
    }
    switch (node->kind) {
      case NodeKind::kIdentifier:
        record_use(node);
        break;

      case NodeKind::kBlockStatement:
        visit_block_like(node);
        break;

      case NodeKind::kVariableDeclaration:
        for (const Node* declarator : node->kids) {
          // Binding was established during hoisting/lexical collection;
          // here we attach the initializer and resolve it.
          const Node* id = declarator->kid(0);
          const Node* init = declarator->kid(1);
          if (id != nullptr && id->kind == NodeKind::kIdentifier) {
            const std::uint32_t index = resolve(id);
            if (index != kNone) {
              Binding& binding = out_.bindings[index];
              if (binding.init == nullptr) binding.init = init;
              // Redeclarations (`var x` appearing twice) share one binding;
              // record the extra declarator identifiers as write sites so
              // renaming and def-use edges cover them.
              if (binding.declaration != id) {
                DataFlowScratch::BindingAux& aux = ws_.aux[index];
                append_site(aux.asg_head, aux.asg_tail, aux.asg_count, id);
              }
            }
          } else {
            visit_pattern_defaults(id);
          }
          visit(init);
        }
        break;

      case NodeKind::kFunctionDeclaration:
      case NodeKind::kFunctionExpression:
      case NodeKind::kArrowFunctionExpression:
        visit_function(node);
        break;

      case NodeKind::kClassDeclaration:
      case NodeKind::kClassExpression: {
        visit(node->kid(1));  // superclass expression
        const Node* body = node->kid(2);
        if (body != nullptr) {
          for (const Node* method : body->kids) {
            if (method->flag_a) visit(method->kid(0));  // computed key
            visit_function(method->kid(1));
          }
        }
        break;
      }

      case NodeKind::kCatchClause: {
        open_scope();  // catch-parameter scope
        if (node->kid(0) != nullptr) {
          bind_pattern(node->kids[0], false);
        }
        // The catch body is a block; give it its own lexical scope under
        // the catch scope.
        visit_block_like(node->kid(1));
        close_scope();
        break;
      }

      case NodeKind::kTryStatement:
        push_kid(node->kid(2));
        push_kid(node->kid(1));  // CatchClause handled above
        push_kid(node->kid(0));
        break;

      case NodeKind::kForStatement: {
        open_scope();
        const Node* init = node->kid(0);
        if (init != nullptr &&
            init->kind == NodeKind::kVariableDeclaration &&
            init->str_value != "var") {
          for (const Node* declarator : init->kids) {
            bind_pattern(declarator->kid(0), false);
          }
        }
        visit(init);
        visit(node->kid(1));
        visit(node->kid(2));
        visit(node->kid(3));
        close_scope();
        break;
      }

      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement: {
        open_scope();
        const Node* left = node->kid(0);
        if (left != nullptr && left->kind == NodeKind::kVariableDeclaration) {
          if (left->str_value != "var") {
            for (const Node* declarator : left->kids) {
              bind_pattern(declarator->kid(0), false);
            }
          }
          // Loop variable is written each iteration.
          const Node* id = left->kid(0) != nullptr ? left->kids[0]->kid(0)
                                                   : nullptr;
          if (id != nullptr && id->kind == NodeKind::kIdentifier) {
            record_write(id);
          }
        } else {
          visit_target(left);
        }
        visit(node->kid(1));
        visit(node->kid(2));
        close_scope();
        break;
      }

      case NodeKind::kAssignmentExpression: {
        const Node* target = node->kid(0);
        visit_target(target);
        if (node->str_value != "=" && target != nullptr &&
            target->kind == NodeKind::kIdentifier) {
          record_use(target);  // compound assignment also reads
        }
        push_kid(node->kid(1));
        break;
      }

      case NodeKind::kUpdateExpression: {
        const Node* argument = node->kid(0);
        if (argument != nullptr && argument->kind == NodeKind::kIdentifier) {
          record_use(argument);
          record_write(argument);
        } else {
          push_kid(argument);
        }
        break;
      }

      case NodeKind::kMemberExpression:
        if (node->flag_a) push_kid(node->kid(1));  // computed only
        push_kid(node->kid(0));
        break;

      case NodeKind::kProperty:
        push_kid(node->kid(1));
        if (node->flag_a) push_kid(node->kid(0));  // computed key
        break;

      case NodeKind::kMethodDefinition:
        if (node->flag_a) visit(node->kid(0));
        visit_function(node->kid(1));
        break;

      case NodeKind::kLabeledStatement:
        push_kid(node->kid(1));  // label identifier is not a reference
        break;

      case NodeKind::kBreakStatement:
      case NodeKind::kContinueStatement:
        break;  // label identifier is not a reference

      case NodeKind::kSwitchStatement: {
        visit(node->kid(0));
        open_scope();  // one lexical scope for the whole case list
        for (std::size_t i = 1; i < node->kids.size(); ++i) {
          const Node* switch_case = node->kids[i];
          collect_lexical(std::span<Node* const>(
              switch_case->kids.begin() + 1, switch_case->kids.end()));
        }
        for (std::size_t i = 1; i < node->kids.size(); ++i) {
          const Node* switch_case = node->kids[i];
          visit(switch_case->kid(0));
          for (std::size_t j = 1; j < switch_case->kids.size(); ++j) {
            visit(switch_case->kids[j]);
          }
        }
        close_scope();
        break;
      }

      default:
        push_kids_of(node);
    }
  }

  // --- results -----------------------------------------------------------

  // Copies each binding's chained sites into one contiguous pool —
  // [assignments][uses] per binding — and points the public spans at it.
  // The pool is reserved to exact size first so data() is stable while
  // the spans are formed.
  void pack_sites() {
    std::vector<const Node*>& pool = site_pool();
    pool.clear();
    std::size_t total = 0;
    for (const DataFlowScratch::BindingAux& aux : ws_.aux) {
      total += aux.asg_count + aux.use_count;
    }
    pool.reserve(total);
    for (std::size_t i = 0; i < out_.bindings.size(); ++i) {
      const DataFlowScratch::BindingAux& aux = ws_.aux[i];
      Binding& binding = out_.bindings[i];
      const std::size_t asg_offset = pool.size();
      for (std::uint32_t link = aux.asg_head; link != kNone;
           link = ws_.site_links[link].next) {
        pool.push_back(ws_.site_links[link].site);
      }
      const std::size_t use_offset = pool.size();
      for (std::uint32_t link = aux.use_head; link != kNone;
           link = ws_.site_links[link].next) {
        pool.push_back(ws_.site_links[link].site);
      }
      binding.assignments = std::span<const Node* const>(
          pool.data() + asg_offset, aux.asg_count);
      binding.uses = std::span<const Node* const>(pool.data() + use_offset,
                                                  aux.use_count);
    }
  }

  // Emits def -> use edges: the declaration and every assignment site are
  // definition sources; every read is a destination. This product is the
  // quadratic blow-up on adversarial inputs (one binding, thousands of
  // writes × thousands of reads), so the edge ceiling and deadline are
  // checked per edge; a trip truncates the edge list and records itself
  // instead of throwing — the pipeline degrades around it.
  void emit_edges() {
    for (const Binding& binding : out_.bindings) {
      if (binding.declaration != nullptr) {
        if (!emit_edges_from(binding.declaration, binding.uses)) return;
      }
      for (const Node* def : binding.assignments) {
        if (!emit_edges_from(def, binding.uses)) return;
      }
    }
  }

  bool emit_edges_from(const Node* def, std::span<const Node* const> uses) {
    for (const Node* use : uses) {
      if (def == use) continue;
      if (budget_ != nullptr) {
        if (!budget_->try_charge_dataflow_edges()) {
          abort_with(ResourceKind::kDataflowEdges);
          return false;
        }
        if (budget_->dataflow_edges_charged() % Budget::kDeadlinePollStride ==
                0 &&
            budget_->deadline_expired()) {
          abort_with(ResourceKind::kDeadline);
          return false;
        }
      }
      out_.edges.emplace_back(def->id, use->id);
    }
    return true;
  }

  // Owned pool for scratchless calls; the caller's scratch otherwise.
  std::vector<const Node*>& site_pool() {
    return owns_sites_ ? out_.site_pool : ws_.sites;
  }

  void abort_with(ResourceKind kind) {
    out_.tripped = budget_->make_trip(kind);
    out_.completed = false;
    aborted_ = true;
  }

 public:
  void set_owns_sites(bool owns) { owns_sites_ = owns; }

 private:
  const Ast& ast_;
  DataFlow& out_;
  Budget* budget_ = nullptr;
  DataFlowScratch& ws_;
  std::size_t visits_ = 0;
  std::uint32_t current_ = kNone;  // innermost open scope
  bool aborted_ = false;
  bool owns_sites_ = false;
};

}  // namespace

DataFlow build_data_flow(const Ast& ast, const DataFlowOptions& options) {
  DataFlow flow;
  if (ast.node_count() > options.node_budget) {
    flow.completed = false;
    return flow;
  }
  DataFlowScratch local_scratch;
  DataFlowScratch& workspace =
      options.scratch != nullptr ? *options.scratch : local_scratch;
  DataFlowBuilder builder(ast, flow, options.budget, workspace);
  builder.set_owns_sites(options.scratch == nullptr);
  builder.run(ast.root());
  return flow;
}

namespace {

std::string describe(std::string_view what, std::size_t production,
                     std::size_t reference) {
  return std::string(what) + ": production " + std::to_string(production) +
         ", oracle " + std::to_string(reference);
}

std::string trip_text(const std::optional<BudgetTrip>& trip) {
  if (!trip.has_value()) return "none";
  return trip->stage + " " + trip->to_string();
}

std::string binding_mismatch(const Binding& production,
                             const Binding& reference, std::size_t index) {
  const std::string at = "binding " + std::to_string(index) + " ";
  if (production.declaration != reference.declaration) {
    return at + "declaration";
  }
  if (production.name != reference.name) return at + "name";
  if (production.init != reference.init) return at + "init";
  if (production.is_parameter != reference.is_parameter) {
    return at + "is_parameter";
  }
  if (production.is_function_name != reference.is_function_name) {
    return at + "is_function_name";
  }
  if (!std::equal(production.assignments.begin(),
                  production.assignments.end(),
                  reference.assignments.begin(),
                  reference.assignments.end())) {
    return at + "assignments";
  }
  if (!std::equal(production.uses.begin(), production.uses.end(),
                  reference.uses.begin(), reference.uses.end())) {
    return at + "uses";
  }
  return {};
}

}  // namespace

std::string graph_mismatch(const Ast& ast, const ResourceLimits& limits,
                           DataFlowOptions options) {
  const bool governed = limits.any_enabled();
  Budget production_budget(limits);
  Budget reference_budget(limits);
  Budget* production_attached = governed ? &production_budget : nullptr;
  Budget* reference_attached = governed ? &reference_budget : nullptr;

  if (governed) {
    production_budget.set_stage("cfg");
    reference_budget.set_stage("cfg");
  }
  const jst::ControlFlow cfg =
      jst::build_control_flow(ast, production_attached);
  const ControlFlow reference_cfg =
      oracle::build_control_flow(ast, reference_attached);
  if (cfg.edge_count() != reference_cfg.edge_count()) {
    return describe("cfg edges", cfg.edge_count(),
                    reference_cfg.edge_count());
  }
  if (cfg.branch_node_count() != reference_cfg.branch_node_count()) {
    return describe("cfg branch nodes", cfg.branch_node_count(),
                    reference_cfg.branch_node_count());
  }
  if (cfg.back_edge_count() != reference_cfg.back_edge_count()) {
    return describe("cfg back edges", cfg.back_edge_count(),
                    reference_cfg.back_edge_count());
  }

  if (governed) {
    production_budget.set_stage("dataflow");
    reference_budget.set_stage("dataflow");
  }
  // The production result's spans may alias options.scratch, so the
  // reference pass runs without it.
  DataFlowOptions reference_options = options;
  reference_options.budget = reference_attached;
  reference_options.scratch = nullptr;
  options.budget = production_attached;
  const jst::DataFlow flow = jst::build_data_flow(ast, options);
  const DataFlow reference = oracle::build_data_flow(ast, reference_options);
  if (flow.edge_count() != reference.edge_count()) {
    return describe("dataflow edges", flow.edge_count(),
                    reference.edge_count());
  }
  if (trip_text(flow.tripped) != trip_text(reference.tripped)) {
    return "trip: production " + trip_text(flow.tripped) + ", oracle " +
           trip_text(reference.tripped);
  }
  if (governed && production_budget.dataflow_edges_charged() !=
                      reference_budget.dataflow_edges_charged()) {
    return describe("charged edges",
                    production_budget.dataflow_edges_charged(),
                    reference_budget.dataflow_edges_charged());
  }
  if (flow.completed != reference.completed) {
    return describe("completed", flow.completed, reference.completed);
  }
  if (flow.scope_count != reference.scope_count) {
    return describe("scopes", flow.scope_count, reference.scope_count);
  }
  if (flow.unresolved_uses != reference.unresolved_uses) {
    return describe("unresolved uses", flow.unresolved_uses,
                    reference.unresolved_uses);
  }
  if (flow.bindings.size() != reference.bindings.size()) {
    return describe("bindings", flow.bindings.size(),
                    reference.bindings.size());
  }
  for (std::size_t i = 0; i < flow.bindings.size(); ++i) {
    std::string mismatch =
        binding_mismatch(flow.bindings[i], reference.bindings[i], i);
    if (!mismatch.empty()) return mismatch;
  }
  return {};
}

std::string reach_mismatch(const Ast& ast) {
  const Node* root = ast.root();
  if (root == nullptr) return {};
  // Pre-order list, then children-before-parents in reverse: each node's
  // expected bits are its own plus its kids' (already final).
  std::vector<const Node*> order;
  std::vector<const Node*> stack = {root};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    order.push_back(node);
    for (const Node* kid : node->kids) {
      if (kid != nullptr) stack.push_back(kid);
    }
  }
  // Keyed by node, not id: the tree may not have been finalized since it
  // was last mutated.
  std::unordered_map<const Node*, std::uint8_t> expected;
  for (std::size_t i = order.size(); i > 0; --i) {
    const Node* node = order[i - 1];
    std::uint8_t bits = kind_reach(node->kind);
    for (const Node* kid : node->kids) {
      if (kid != nullptr) bits |= expected[kid];
    }
    expected[node] = bits;
    if (node->reach != bits) {
      char text[128];
      std::snprintf(text, sizeof(text),
                    "node %u (%.*s): stored reach %u, subtree has %u",
                    node->id,
                    static_cast<int>(node_kind_name(node->kind).size()),
                    node_kind_name(node->kind).data(), node->reach, bits);
      return text;
    }
  }
  return {};
}

}  // namespace jst::oracle
