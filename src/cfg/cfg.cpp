#include "cfg/cfg.h"

#include <algorithm>
#include <array>
#include <string_view>

namespace jst {

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
// in between. Every edge is appended raw; build() sorts and deduplicates
// them in place and counts. Walks that look for functions or conditional
// expressions enter only subtrees whose reach bits say they hold one.
class CfgBuilder {
 public:
  CfgBuilder(Budget* budget, CfgScratch& ws) : budget_(budget), ws_(ws) {}

  // Walks the tree; returns the counts (edges, branch nodes, back edges).
  std::array<std::size_t, 3> build(const Node* root) {
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
          const Node* kid = node->kids[i - 1];
          if (kid != nullptr && (kid->reach & kReachFunction) != 0) {
            stack.push_back(kid);
          }
        }
      }
    }
    return count();
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
    // statements (those are visited on their own), and enters only
    // subtrees holding a conditional.
    if ((statement.reach & kReachConditional) == 0) return;
    std::vector<std::pair<const Node*, const Node*>>& stack = ws_.cond_stack;
    const std::size_t base = stack.size();
    for (const Node* kid : statement.kids) {
      if (holds_conditional(kid) && !kid->is_statement() &&
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
        if (holds_conditional(kid) && !kid->is_statement()) {
          stack.emplace_back(kid, next_parent);
        }
      }
    }
  }

  static bool holds_conditional(const Node* node) {
    return node != nullptr && (node->reach & kReachConditional) != 0;
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

  // --- counting ------------------------------------------------------------

  // Sorts and deduplicates the raw edges in place, then reads the edge,
  // branch-node and back-edge counts off the sorted runs.
  std::array<std::size_t, 3> count() {
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges = ws_.edges;
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::size_t branches = 0;
    std::size_t backs = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [from, to] = edges[i];
      if (to <= from) ++backs;
      // A row's second edge makes its source a branch point.
      if (i > 0 && edges[i - 1].first == from &&
          (i < 2 || edges[i - 2].first != from)) {
        ++branches;
      }
    }
    return {edges.size(), branches, backs};
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
  const auto [edges, branches, backs] = builder.build(ast.root());
  flow.edge_count_ = edges;
  flow.branch_node_count_ = branches;
  flow.back_edge_count_ = backs;
  return flow;
}

}  // namespace jst
