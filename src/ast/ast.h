// Abstract Syntax Tree for JavaScript, following Esprima's (ESTree's) node
// taxonomy so the paper's feature definitions (§III-A/B) map one-to-one.
//
// Nodes are "fat": a single struct with a kind tag, positional children,
// and a small payload. Child layout per kind is documented below; optional
// slots hold nullptr. Variadic kinds place fixed slots first and the
// variable tail afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/arena.h"
#include "support/atom.h"
#include "support/budget.h"
#include "support/error.h"

namespace jst {

enum class NodeKind : std::uint8_t {
  kProgram,  // children: body...

  // --- Statements ---
  kExpressionStatement,  // [expression]
  kBlockStatement,       // body...
  kVariableDeclaration,  // declarators... ; str_value = "var"|"let"|"const"
  kVariableDeclarator,   // [id, init?]
  kFunctionDeclaration,  // [id, body, params...]; flags: generator/async
  kClassDeclaration,     // [id, superClass?, classBody]
  kReturnStatement,      // [argument?]
  kIfStatement,          // [test, consequent, alternate?]
  kForStatement,         // [init?, test?, update?, body]
  kForInStatement,       // [left, right, body]
  kForOfStatement,       // [left, right, body]
  kWhileStatement,       // [test, body]
  kDoWhileStatement,     // [body, test]
  kSwitchStatement,      // [discriminant, cases...]
  kSwitchCase,           // [test?, consequent...]
  kBreakStatement,       // [label?]
  kContinueStatement,    // [label?]
  kThrowStatement,       // [argument]
  kTryStatement,         // [block, handler?, finalizer?]
  kCatchClause,          // [param?, body]
  kLabeledStatement,     // [label, body]
  kEmptyStatement,       // no children
  kDebuggerStatement,    // no children
  kWithStatement,        // [object, body]

  // --- Expressions ---
  kIdentifier,            // str_value = name
  kLiteral,               // payload via lit_kind/str_value/num_value
  kTemplateLiteral,       // [quasis..., expressions...] interleaved:
                          //   quasi0, expr0, quasi1, expr1, ..., quasiN
  kTemplateElement,       // str_value = cooked text
  kTaggedTemplateExpression,  // [tag, quasi]
  kThisExpression,        // no children
  kSuper,                 // no children
  kArrayExpression,       // elements... (nullptr = hole)
  kObjectExpression,      // properties...
  kProperty,              // [key, value]; flags: computed/shorthand;
                          //   str_value = "init"|"get"|"set"
  kFunctionExpression,    // [id?, body, params...]
  kArrowFunctionExpression,  // [body, params...]; flag_a: expression body
  kClassExpression,       // [id?, superClass?, classBody]
  kClassBody,             // methods...
  kMethodDefinition,      // [key, value(FunctionExpression)];
                          //   str_value = "method"|"constructor"|"get"|"set"
  kSequenceExpression,    // expressions...
  kUnaryExpression,       // [argument]; str_value = operator
  kBinaryExpression,      // [left, right]; str_value = operator
  kLogicalExpression,     // [left, right]; str_value = "&&"|"||"|"??"
  kAssignmentExpression,  // [left, right]; str_value = operator
  kUpdateExpression,      // [argument]; str_value = "++"|"--"; flag_a: prefix
  kConditionalExpression, // [test, consequent, alternate]
  kCallExpression,        // [callee, arguments...]
  kNewExpression,         // [callee, arguments...]
  kMemberExpression,      // [object, property]; flag_a: computed
  kSpreadElement,         // [argument]
  kRestElement,           // [argument]
  kYieldExpression,       // [argument?]; flag_a: delegate
  kAwaitExpression,       // [argument]

  // --- Patterns ---
  kAssignmentPattern,     // [left, right]
  kArrayPattern,          // elements... (nullptr = hole)
  kObjectPattern,         // properties...
};

constexpr std::size_t kNodeKindCount =
    static_cast<std::size_t>(NodeKind::kObjectPattern) + 1;

enum class LiteralKind : std::uint8_t {
  kString,
  kNumber,
  kBoolean,
  kNull,
  kRegExp,
};

std::string_view node_kind_name(NodeKind kind);

// Subtree-reach bits (Node::reach): which kinds of node a subtree holds.
// Function: any function node. Conditional: a ConditionalExpression.
// DataFlow: a node the data-flow pass acts on — a statement, SwitchCase,
// CatchClause, Identifier, function, class, ClassBody or
// MethodDefinition. Switch: a SwitchStatement.
constexpr std::uint8_t kReachFunction = 1u << 0;
constexpr std::uint8_t kReachConditional = 1u << 1;
constexpr std::uint8_t kReachDataFlow = 1u << 2;
constexpr std::uint8_t kReachSwitch = 1u << 3;

// The reach bits a node of `kind` contributes by itself.
std::uint8_t kind_reach(NodeKind kind);

struct Node;

// Child list living entirely in the owning Ast's arena: a vector-shaped
// span of Node* (16 bytes: no arena pointer of its own). Reads go through
// the list; growth goes through the Ast's kid mutators (set_kids,
// push_kid, insert_kids, assign_kids), which pass the arena in. A list
// first allocates exactly the slots it is asked for and then doubles;
// the abandoned block is reclaimed at the arena's next reset. Trivially
// destructible and trivially copyable (a copy shares the kid array), so
// Node storage can be dropped wholesale without running destructors.
class NodeList {
 public:
  using value_type = Node*;
  using iterator = Node**;
  using const_iterator = Node* const*;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  NodeList() = default;

  Node** begin() { return data_; }
  Node** end() { return data_ + size_; }
  Node* const* begin() const { return data_; }
  Node* const* end() const { return data_ + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Node*& operator[](std::size_t i) { return data_[i]; }
  Node* operator[](std::size_t i) const { return data_[i]; }

  void clear() { size_ = 0; }

 private:
  friend class Ast;

  void reserve(support::Arena& arena, std::size_t wanted) {
    if (wanted > capacity_) grow(arena, wanted);
  }

  void push_back(support::Arena& arena, Node* node) {
    if (size_ == capacity_) grow(arena, size_ + 1);
    data_[size_++] = node;
  }

  // Inserts [first, last) before index `at`.
  template <typename It>
  void insert(support::Arena& arena, std::size_t at, It first, It last) {
    const std::size_t count =
        static_cast<std::size_t>(std::distance(first, last));
    if (count == 0) return;
    if (size_ + count > capacity_) grow(arena, size_ + count);
    for (std::size_t i = size_; i > at; --i) {
      data_[i + count - 1] = data_[i - 1];
    }
    std::size_t i = at;
    for (It it = first; it != last; ++it) data_[i++] = *it;
    size_ += static_cast<std::uint32_t>(count);
  }

  void grow(support::Arena& arena, std::size_t at_least);

  Node** data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

// 64 bytes (DESIGN.md §12): JSFuck-style input builds about one node per
// two source bytes, so the node's size sets the front end's footprint.
struct Node {
  NodeList kids;

  // Payload (meaning depends on kind; see enum comments). Views into the
  // owning Ast's arena (or static/token storage); use Ast::intern() when
  // assigning text that does not already have arena lifetime.
  //
  // Literals keep their source text here too, so no node carries a
  // second view:
  //   kString  — the cooked value.
  //   kNumber  — the source spelling ("0x2A"); empty for a number made by
  //              make_number(), which codegen prints from num_value.
  //   kRegExp  — "pattern/flags", the source slice after the opening
  //              slash (flags never contain '/').
  std::string_view str_value;
  double num_value = 0.0;  // kNumber value; 1.0/0.0 for kBoolean
  Node* parent = nullptr;

  // Source line (propagated from the first token of the production).
  std::uint32_t line = 0;
  // Stable id within the owning Ast; assigned by Ast::finalize().
  std::uint32_t id = 0;
  // Dense interned-identifier id (support::AtomTable::kNoAtom for
  // non-identifier nodes). Assigned by Ast::make_identifier / clone() so
  // the data-flow pass resolves scopes by integer, never re-hashing the
  // spelling. Code that mutates an identifier's str_value in place must
  // re-intern (see transform/rename.cpp).
  std::uint32_t atom = 0xffffffffu;

  NodeKind kind = NodeKind::kProgram;
  LiteralKind lit_kind = LiteralKind::kNull;
  bool flag_a : 1 = false;  // computed / prefix / delegate / expression-body
  bool flag_b : 1 = false;  // shorthand / generator / static
  bool flag_c : 1 = false;  // async
  // kReach* bits of every node in this subtree, the node itself included;
  // assigned by Ast::finalize(). Lets the graph passes skip subtrees that
  // hold nothing they act on.
  std::uint8_t reach = 0;

  bool is_statement() const;
  bool is_function() const;   // declaration, expression, or arrow
  bool is_loop() const;

  // Convenience accessors (bounds-checked; nullptr for missing optionals).
  Node* kid(std::size_t i) const { return i < kids.size() ? kids[i] : nullptr; }
};

static_assert(sizeof(Node) <= 64, "one node per two source bytes on JSFuck "
                                  "input; keep nodes compact");

// Arena-backed AST. Nodes are placement-constructed in the arena, so
// addresses are stable for the arena's epoch (chunks never move) and the
// whole tree is reclaimed by a single arena reset — no destructors run.
// Typical lifecycle: parser builds nodes via make(), sets the root, and
// calls finalize() to assign ids/parents; transformers may mutate the
// tree and re-finalize.
//
// An Ast either owns a private arena (default constructor) or borrows a
// pooled one (analysis::ScriptScratch hands the same arena to every
// script its worker analyzes; parse_program resets it per script). The
// identifier atom table follows the same ownership split: private by
// default, or borrowed from the pool alongside the arena.
class Ast {
 public:
  Ast() : owned_arena_(std::make_unique<support::Arena>()),
          arena_(owned_arena_.get()),
          owned_atoms_(std::make_unique<support::AtomTable>()),
          atoms_(owned_atoms_.get()) {}
  explicit Ast(support::Arena* arena, support::AtomTable* atoms = nullptr)
      : arena_(arena) {
    if (atoms != nullptr) {
      atoms_ = atoms;
    } else {
      owned_atoms_ = std::make_unique<support::AtomTable>();
      atoms_ = owned_atoms_.get();
    }
  }
  Ast(Ast&&) noexcept = default;
  Ast& operator=(Ast&&) noexcept = default;
  Ast(const Ast&) = delete;
  Ast& operator=(const Ast&) = delete;

  Node* make(NodeKind kind);
  Node* make_identifier(std::string_view name);
  Node* make_string(std::string_view value);
  Node* make_number(double value);
  Node* make_bool(bool value);
  Node* make_null();
  Node* make_regex(std::string_view pattern, std::string_view flags);

  // Kid-list growth, in this Ast's arena. A list is first allocated at
  // exactly the size it needs, then grows by doubling.
  // Replaces the kids with a copied range (transformers rebuilding a
  // statement list in a transient std::vector).
  template <typename It>
  void assign_kids(Node* node, It first, It last) {
    node->kids.clear();
    node->kids.insert(*arena_, 0, first, last);
  }
  void set_kids(Node* node, std::initializer_list<Node*> kids) {
    assign_kids(node, kids.begin(), kids.end());
  }
  void push_kid(Node* node, Node* kid) { node->kids.push_back(*arena_, kid); }
  // Inserts [first, last) before kid index `at`.
  template <typename It>
  void insert_kids(Node* node, std::size_t at, It first, It last) {
    node->kids.insert(*arena_, at, first, last);
  }

  // Copies `text` into the arena and returns the stable view. Required
  // whenever a Node payload is assigned text whose storage does not
  // already outlive the tree (local std::strings in transformers, etc.).
  std::string_view intern(std::string_view text) {
    return arena_->alloc_string(text);
  }

  // The arena nodes, payloads, and kid arrays live in.
  support::Arena& arena() { return *arena_; }
  const support::Arena& arena() const { return *arena_; }

  // The identifier atom table the tree's Node::atom ids index into.
  // Deliberately non-const from a const Ast: interning a straggler
  // identifier (a transformer-created node analyzed before the next
  // re-parse) mutates only the table, never the tree.
  support::AtomTable& atoms() const { return *atoms_; }

  // Deep copy of `node` (and its subtree) into this arena.
  Node* clone(const Node* node);

  Node* root() const { return root_; }
  void set_root(Node* root) { root_ = root; }

  // Attaches a resource budget charged one AST node per make() (and polled
  // for the deadline); a tripped ceiling throws BudgetExceeded out of
  // make(). The pointer is non-owning and must be cleared (or outlive the
  // Ast) before the Ast escapes the budget's scope — parse_program()
  // detaches it before returning.
  void set_budget(Budget* budget) { budget_ = budget; }

  // Assigns pre-order ids, parent pointers and subtree-reach bits from
  // the root; returns the number of reachable nodes. A tree mutated after
  // this must be finalized again before the graph passes run on it.
  std::size_t finalize();

  // Number of nodes allocated in the arena (including detached ones).
  std::size_t allocated() const { return allocated_; }
  // Number of nodes reachable from the root after the last finalize().
  std::size_t node_count() const { return node_count_; }

 private:
  std::unique_ptr<support::Arena> owned_arena_;  // null when pooled
  support::Arena* arena_ = nullptr;
  std::unique_ptr<support::AtomTable> owned_atoms_;  // null when pooled
  support::AtomTable* atoms_ = nullptr;
  Node* root_ = nullptr;
  std::size_t allocated_ = 0;
  std::size_t node_count_ = 0;
  Budget* budget_ = nullptr;
};

}  // namespace jst
