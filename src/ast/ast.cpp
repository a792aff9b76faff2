#include "ast/ast.h"

#include <algorithm>
#include <array>
#include <new>
#include <type_traits>

namespace jst {

std::string_view node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kProgram: return "Program";
    case NodeKind::kExpressionStatement: return "ExpressionStatement";
    case NodeKind::kBlockStatement: return "BlockStatement";
    case NodeKind::kVariableDeclaration: return "VariableDeclaration";
    case NodeKind::kVariableDeclarator: return "VariableDeclarator";
    case NodeKind::kFunctionDeclaration: return "FunctionDeclaration";
    case NodeKind::kClassDeclaration: return "ClassDeclaration";
    case NodeKind::kReturnStatement: return "ReturnStatement";
    case NodeKind::kIfStatement: return "IfStatement";
    case NodeKind::kForStatement: return "ForStatement";
    case NodeKind::kForInStatement: return "ForInStatement";
    case NodeKind::kForOfStatement: return "ForOfStatement";
    case NodeKind::kWhileStatement: return "WhileStatement";
    case NodeKind::kDoWhileStatement: return "DoWhileStatement";
    case NodeKind::kSwitchStatement: return "SwitchStatement";
    case NodeKind::kSwitchCase: return "SwitchCase";
    case NodeKind::kBreakStatement: return "BreakStatement";
    case NodeKind::kContinueStatement: return "ContinueStatement";
    case NodeKind::kThrowStatement: return "ThrowStatement";
    case NodeKind::kTryStatement: return "TryStatement";
    case NodeKind::kCatchClause: return "CatchClause";
    case NodeKind::kLabeledStatement: return "LabeledStatement";
    case NodeKind::kEmptyStatement: return "EmptyStatement";
    case NodeKind::kDebuggerStatement: return "DebuggerStatement";
    case NodeKind::kWithStatement: return "WithStatement";
    case NodeKind::kIdentifier: return "Identifier";
    case NodeKind::kLiteral: return "Literal";
    case NodeKind::kTemplateLiteral: return "TemplateLiteral";
    case NodeKind::kTemplateElement: return "TemplateElement";
    case NodeKind::kTaggedTemplateExpression: return "TaggedTemplateExpression";
    case NodeKind::kThisExpression: return "ThisExpression";
    case NodeKind::kSuper: return "Super";
    case NodeKind::kArrayExpression: return "ArrayExpression";
    case NodeKind::kObjectExpression: return "ObjectExpression";
    case NodeKind::kProperty: return "Property";
    case NodeKind::kFunctionExpression: return "FunctionExpression";
    case NodeKind::kArrowFunctionExpression: return "ArrowFunctionExpression";
    case NodeKind::kClassExpression: return "ClassExpression";
    case NodeKind::kClassBody: return "ClassBody";
    case NodeKind::kMethodDefinition: return "MethodDefinition";
    case NodeKind::kSequenceExpression: return "SequenceExpression";
    case NodeKind::kUnaryExpression: return "UnaryExpression";
    case NodeKind::kBinaryExpression: return "BinaryExpression";
    case NodeKind::kLogicalExpression: return "LogicalExpression";
    case NodeKind::kAssignmentExpression: return "AssignmentExpression";
    case NodeKind::kUpdateExpression: return "UpdateExpression";
    case NodeKind::kConditionalExpression: return "ConditionalExpression";
    case NodeKind::kCallExpression: return "CallExpression";
    case NodeKind::kNewExpression: return "NewExpression";
    case NodeKind::kMemberExpression: return "MemberExpression";
    case NodeKind::kSpreadElement: return "SpreadElement";
    case NodeKind::kRestElement: return "RestElement";
    case NodeKind::kYieldExpression: return "YieldExpression";
    case NodeKind::kAwaitExpression: return "AwaitExpression";
    case NodeKind::kAssignmentPattern: return "AssignmentPattern";
    case NodeKind::kArrayPattern: return "ArrayPattern";
    case NodeKind::kObjectPattern: return "ObjectPattern";
  }
  return "Unknown";
}

namespace {

constexpr bool statement_kind(NodeKind kind) {
  switch (kind) {
    case NodeKind::kExpressionStatement:
    case NodeKind::kBlockStatement:
    case NodeKind::kVariableDeclaration:
    case NodeKind::kFunctionDeclaration:
    case NodeKind::kClassDeclaration:
    case NodeKind::kReturnStatement:
    case NodeKind::kIfStatement:
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kForOfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
    case NodeKind::kSwitchStatement:
    case NodeKind::kBreakStatement:
    case NodeKind::kContinueStatement:
    case NodeKind::kThrowStatement:
    case NodeKind::kTryStatement:
    case NodeKind::kLabeledStatement:
    case NodeKind::kEmptyStatement:
    case NodeKind::kDebuggerStatement:
    case NodeKind::kWithStatement:
      return true;
    default:
      return false;
  }
}

// The kReach* bits each node kind contributes by itself.
constexpr std::array<std::uint8_t, kNodeKindCount> kKindReach = [] {
  std::array<std::uint8_t, kNodeKindCount> table{};
  const auto set = [&table](std::initializer_list<NodeKind> kinds,
                            std::uint8_t bits) {
    for (NodeKind kind : kinds) table[static_cast<std::size_t>(kind)] |= bits;
  };
  for (std::size_t i = 0; i < kNodeKindCount; ++i) {
    if (statement_kind(static_cast<NodeKind>(i))) table[i] = kReachDataFlow;
  }
  set({NodeKind::kFunctionDeclaration, NodeKind::kFunctionExpression,
       NodeKind::kArrowFunctionExpression},
      kReachFunction | kReachDataFlow);
  set({NodeKind::kSwitchCase, NodeKind::kCatchClause, NodeKind::kIdentifier,
       NodeKind::kClassExpression, NodeKind::kClassBody,
       NodeKind::kMethodDefinition},
      kReachDataFlow);
  set({NodeKind::kConditionalExpression}, kReachConditional);
  set({NodeKind::kSwitchStatement}, kReachSwitch);
  return table;
}();

}  // namespace

std::uint8_t kind_reach(NodeKind kind) {
  return kKindReach[static_cast<std::size_t>(kind)];
}

bool Node::is_statement() const { return statement_kind(kind); }

bool Node::is_function() const {
  return kind == NodeKind::kFunctionDeclaration ||
         kind == NodeKind::kFunctionExpression ||
         kind == NodeKind::kArrowFunctionExpression;
}

bool Node::is_loop() const {
  switch (kind) {
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kForOfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
      return true;
    default:
      return false;
  }
}

// reset() reclaims node storage without running destructors, so the
// whole Node (including its NodeList and payload views) must be trivial
// to destroy.
static_assert(std::is_trivially_destructible_v<Node>);

void NodeList::grow(support::Arena& arena, std::size_t at_least) {
  std::size_t next = static_cast<std::size_t>(capacity_) * 2;
  if (next < at_least) next = at_least;
  Node** grown = arena.alloc_array<Node*>(next);
  for (std::size_t i = 0; i < size_; ++i) grown[i] = data_[i];
  data_ = grown;
  capacity_ = static_cast<std::uint32_t>(next);
}

Node* Ast::make(NodeKind kind) {
  if (budget_ != nullptr) budget_->charge_ast_nodes();
  Node* node = new (arena_->allocate(sizeof(Node), alignof(Node))) Node();
  node->kind = kind;
  ++allocated_;
  return node;
}

Node* Ast::make_identifier(std::string_view name) {
  Node* node = make(NodeKind::kIdentifier);
  node->str_value = intern(name);
  node->atom = atoms_->intern(node->str_value);
  return node;
}

Node* Ast::make_string(std::string_view value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kString;
  node->str_value = intern(value);
  return node;
}

Node* Ast::make_number(double value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kNumber;
  node->num_value = value;
  return node;
}

Node* Ast::make_bool(bool value) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kBoolean;
  node->num_value = value ? 1.0 : 0.0;
  return node;
}

Node* Ast::make_null() {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kNull;
  return node;
}

Node* Ast::make_regex(std::string_view pattern, std::string_view flags) {
  Node* node = make(NodeKind::kLiteral);
  node->lit_kind = LiteralKind::kRegExp;
  const std::size_t size = pattern.size() + 1 + flags.size();
  char* text = arena_->alloc_chars(size);
  char* flags_at = std::copy(pattern.begin(), pattern.end(), text);
  *flags_at++ = '/';
  std::copy(flags.begin(), flags.end(), flags_at);
  node->str_value = std::string_view(text, size);
  return node;
}

Node* Ast::clone(const Node* node) {
  if (node == nullptr) return nullptr;
  Node* copy = make(node->kind);
  // Payload text is re-interned so a clone into a fresh Ast (different
  // arena) owns its bytes and survives the source tree's arena reset.
  // Identifier atoms likewise: the source node's atom indexes the source
  // tree's table, so the spelling is re-interned into this tree's.
  copy->str_value = intern(node->str_value);
  if (node->kind == NodeKind::kIdentifier) {
    copy->atom = atoms_->intern(copy->str_value);
  }
  copy->num_value = node->num_value;
  copy->lit_kind = node->lit_kind;
  copy->flag_a = node->flag_a;
  copy->flag_b = node->flag_b;
  copy->flag_c = node->flag_c;
  copy->line = node->line;
  copy->kids.reserve(*arena_, node->kids.size());
  for (const Node* kid : node->kids) push_kid(copy, clone(kid));
  return copy;
}

std::size_t Ast::finalize() {
  node_count_ = 0;
  if (root_ == nullptr) return 0;
  // Iterative pre-order traversal assigning ids and parents. The stack is
  // arena-allocated (each node is pushed at most once, so allocated_
  // bounds its growth); the transient block is reclaimed at the next
  // arena reset, keeping finalize() heap-allocation-free.
  //
  // Reach bits ride the same pass. A node's ancestors are all visited
  // before it, so it ORs its own bits upward and stops at the first
  // ancestor that already carries them (then so do all of that one's
  // ancestors). A bit is set at most once per node, which keeps the climb
  // amortized O(1) per node.
  Node** stack = arena_->alloc_array<Node*>(allocated_ + 1);
  std::size_t depth = 0;
  stack[depth++] = root_;
  root_->parent = nullptr;
  while (depth > 0) {
    Node* node = stack[--depth];
    node->id = static_cast<std::uint32_t>(node_count_++);
    node->reach = 0;
    const std::uint8_t bits = kKindReach[static_cast<std::size_t>(node->kind)];
    for (Node* up = node; up != nullptr && (up->reach & bits) != bits;
         up = up->parent) {
      up->reach |= bits;
    }
    for (auto it = node->kids.rbegin(); it != node->kids.rend(); ++it) {
      if (*it != nullptr) {
        (*it)->parent = node;
        stack[depth++] = *it;
      }
    }
  }
  return node_count_;
}

}  // namespace jst
