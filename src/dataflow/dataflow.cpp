#include "dataflow/dataflow.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <utility>

namespace jst {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

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
    // budget-truncated) edge counting, so the bindings are fully formed
    // even when a ceiling stops the pass mid-product.
    pack_sites();
    if (aborted_) return;
    count_edges();
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
  // meets the declarations in exactly the order the recursive version
  // did, so bindings are created in the same order and get the same
  // indices; subtrees without a statement (reach bits) hold none.
  void hoist_into_function_scope(const Node* node) {
    if (node == nullptr) return;
    std::vector<const Node*>& stack = ws_.hoist_stack;
    const std::size_t base = stack.size();  // re-entered via visit_function
    push_reaching_kids(stack, node);
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
      push_reaching_kids(stack, kid);
    }
  }

  // Pushes the kids of `node` that hold a data-flow node, last kid first.
  static void push_reaching_kids(std::vector<const Node*>& stack,
                                 const Node* node) {
    for (std::size_t i = node->kids.size(); i > 0; --i) {
      const Node* kid = node->kids[i - 1];
      if (kid != nullptr && (kid->reach & kReachDataFlow) != 0) {
        stack.push_back(kid);
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

  // Defers `node` for step() when its subtree holds a node step() acts on
  // (reach bits); a visit to any other subtree would only push kids.
  void push_kid(const Node* node) {
    if (node != nullptr && (node->reach & kReachDataFlow) != 0) {
      ws_.spine.push_back(node);
    }
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

  // Counts def -> use edges: the declaration and every assignment site are
  // definition sources; every read but the def itself is a destination.
  // This product is the quadratic blow-up on adversarial inputs (one
  // binding, thousands of writes × thousands of reads), so each def's
  // edges are charged against the edge ceiling and deadline; a trip
  // truncates the count and records itself instead of throwing — the
  // pipeline degrades around it.
  void count_edges() {
    for (const Binding& binding : out_.bindings) {
      if (binding.uses.empty()) continue;
      if (binding.declaration != nullptr) {
        if (!count_edges_from(binding.declaration, binding.uses)) return;
      }
      for (const Node* def : binding.assignments) {
        if (!count_edges_from(def, binding.uses)) return;
      }
    }
  }

  bool count_edges_from(const Node* def, std::span<const Node* const> uses) {
    std::size_t edges = uses.size();
    for (const Node* use : uses) edges -= use == def ? 1 : 0;
    if (budget_ == nullptr) {
      out_.def_use_edges += edges;
      return true;
    }
    return charge_edges(edges);
  }

  // Charges `edges` edges with the trip points of one-at-a-time charging:
  // each step ends at the next multiple of kDeadlinePollStride, where the
  // deadline is polled, or at the first edge past the ceiling, which
  // trips it. An edge that trips either is not counted.
  bool charge_edges(std::size_t edges) {
    constexpr std::size_t kStride = Budget::kDeadlinePollStride;
    const std::size_t ceiling = budget_->limits().max_dataflow_edges;
    while (edges > 0) {
      const std::size_t charged = budget_->dataflow_edges_charged();
      std::size_t step = std::min(edges, kStride - charged % kStride);
      if (ceiling > 0) step = std::min(step, ceiling + 1 - charged);
      edges -= step;
      const bool within = budget_->try_charge_dataflow_edges(step);
      if (!within || (budget_->dataflow_edges_charged() % kStride == 0 &&
                      budget_->deadline_expired())) {
        out_.def_use_edges += step - 1;
        abort_with(within ? ResourceKind::kDeadline
                          : ResourceKind::kDataflowEdges);
        return false;
      }
      out_.def_use_edges += step;
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

}  // namespace jst
