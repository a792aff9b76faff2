#include <gtest/gtest.h>

#include "ast/ast.h"
#include "ast/walk.h"
#include "parser/parser.h"

namespace jst {
namespace {

TEST(Ast, NodeKindNamesAreEsprimaCompatible) {
  EXPECT_EQ(node_kind_name(NodeKind::kProgram), "Program");
  EXPECT_EQ(node_kind_name(NodeKind::kVariableDeclaration),
            "VariableDeclaration");
  EXPECT_EQ(node_kind_name(NodeKind::kArrowFunctionExpression),
            "ArrowFunctionExpression");
  EXPECT_EQ(node_kind_name(NodeKind::kConditionalExpression),
            "ConditionalExpression");
  EXPECT_EQ(node_kind_name(NodeKind::kTaggedTemplateExpression),
            "TaggedTemplateExpression");
}

TEST(Ast, FactoryHelpers) {
  Ast ast;
  Node* id = ast.make_identifier("x");
  EXPECT_EQ(id->kind, NodeKind::kIdentifier);
  EXPECT_EQ(id->str_value, "x");

  Node* str = ast.make_string("hi");
  EXPECT_EQ(str->lit_kind, LiteralKind::kString);

  Node* num = ast.make_number(3.5);
  EXPECT_DOUBLE_EQ(num->num_value, 3.5);

  Node* truthy = ast.make_bool(true);
  EXPECT_EQ(truthy->lit_kind, LiteralKind::kBoolean);
  EXPECT_DOUBLE_EQ(truthy->num_value, 1.0);

  Node* null_node = ast.make_null();
  EXPECT_EQ(null_node->lit_kind, LiteralKind::kNull);

  Node* regex = ast.make_regex("a+", "gi");
  EXPECT_EQ(regex->lit_kind, LiteralKind::kRegExp);
  EXPECT_EQ(regex->str_value, "a+/gi");

  EXPECT_EQ(ast.allocated(), 6u);
}

TEST(Ast, ClassifierPredicates) {
  const ParseResult result = parse_program(
      "if (a) {} for (;;) {} var f = () => 1; function g() {}");
  std::size_t statements = 0;
  std::size_t functions = 0;
  std::size_t loops = 0;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node& node) {
                  if (node.is_statement()) ++statements;
                  if (node.is_function()) ++functions;
                  if (node.is_loop()) ++loops;
                });
  EXPECT_GE(statements, 4u);
  EXPECT_EQ(functions, 2u);
  EXPECT_EQ(loops, 1u);
}

TEST(Ast, FinalizeAssignsPreorderIds) {
  const ParseResult result = parse_program("var a = f(1) + 2;");
  std::uint32_t previous = 0;
  bool first = true;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node& node) {
                  if (!first) {
                    EXPECT_GT(node.id, previous);
                  }
                  previous = node.id;
                  first = false;
                });
  EXPECT_EQ(result.ast.root()->id, 0u);
}

TEST(Ast, FinalizeCountsReachableOnly) {
  Ast ast;
  Node* root = ast.make(NodeKind::kProgram);
  Node* statement = ast.make(NodeKind::kEmptyStatement);
  ast.push_kid(root, statement);
  ast.make(NodeKind::kEmptyStatement);  // detached
  ast.set_root(root);
  EXPECT_EQ(ast.finalize(), 2u);
  EXPECT_EQ(ast.node_count(), 2u);
  EXPECT_EQ(ast.allocated(), 3u);
}

TEST(Ast, CloneIsDeepAndDetached) {
  ParseResult result = parse_program("var a = [1, 'two', f(3)];");
  Ast& ast = result.ast;
  Node* original = ast.root()->kids[0];
  Node* copy = ast.clone(original);
  ASSERT_NE(copy, original);
  EXPECT_EQ(copy->kind, original->kind);
  EXPECT_EQ(copy->kids.size(), original->kids.size());
  // Mutating the copy leaves the original untouched.
  copy->kids[0]->kids[0]->str_value = "renamed";
  EXPECT_EQ(original->kids[0]->kids[0]->str_value, "a");
}

TEST(Ast, CloneHandlesNullSlots) {
  ParseResult result = parse_program("if (a) b();");
  Node* if_statement = result.ast.root()->kids[0];
  ASSERT_EQ(if_statement->kids.size(), 3u);
  ASSERT_EQ(if_statement->kids[2], nullptr);
  Node* copy = result.ast.clone(if_statement);
  EXPECT_EQ(copy->kids[2], nullptr);
}

TEST(Walk, PreorderVisitsAllNodes) {
  const ParseResult result = parse_program("f(a, b + c);");
  std::size_t visited = 0;
  walk_preorder(static_cast<const Node*>(result.ast.root()),
                [&](const Node&) { ++visited; });
  EXPECT_EQ(visited, result.ast.node_count());
}

TEST(Walk, PostorderChildrenBeforeParents) {
  ParseResult result = parse_program("x = a + b;");
  std::vector<NodeKind> order;
  walk_postorder(result.ast.root(),
                 [&](Node& node) { order.push_back(node.kind); });
  // BinaryExpression must come after its identifier children and before
  // the assignment / statement / program wrappers.
  const auto position = [&](NodeKind kind) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == kind) return i;
    }
    return order.size();
  };
  EXPECT_LT(position(NodeKind::kBinaryExpression),
            position(NodeKind::kAssignmentExpression));
  EXPECT_EQ(order.back(), NodeKind::kProgram);
}

TEST(Walk, PreorderKindsMatchesNodeCount) {
  const ParseResult result = parse_program("function f() { return 1; }");
  EXPECT_EQ(preorder_kinds(result.ast.root()).size(), result.ast.node_count());
}

TEST(Walk, DepthAndBreadth) {
  const ParseResult narrow = parse_program("x = y;");
  const ParseResult wide = parse_program("f(1, 2, 3, 4, 5, 6, 7, 8);");
  EXPECT_GT(tree_breadth(wide.ast.root()), tree_breadth(narrow.ast.root()));
}

TEST(Walk, DepthOfNestedBlocks) {
  const ParseResult flat = parse_program("a();");
  const ParseResult nested = parse_program("{ { { a(); } } }");
  EXPECT_GT(tree_depth(nested.ast.root()), tree_depth(flat.ast.root()));
}

TEST(Walk, CountNodesOnNull) {
  EXPECT_EQ(count_nodes(nullptr), 0u);
  EXPECT_EQ(tree_depth(nullptr), 0u);
  EXPECT_EQ(tree_breadth(nullptr), 0u);
  EXPECT_TRUE(preorder_kinds(nullptr).empty());
}

TEST(Walk, CollectKindFindsEveryInstance) {
  ParseResult result = parse_program("a.b; c.d; e['f'];");
  EXPECT_EQ(collect_kind(result.ast.root(), NodeKind::kMemberExpression).size(),
            3u);
  EXPECT_TRUE(
      collect_kind(result.ast.root(), NodeKind::kClassDeclaration).empty());
}

TEST(Ast, MoveSemantics) {
  ParseResult result = parse_program("var q = 1;");
  const std::size_t count = result.ast.node_count();
  Ast moved = std::move(result.ast);
  EXPECT_EQ(moved.node_count(), count);
  ASSERT_NE(moved.root(), nullptr);
  EXPECT_EQ(moved.root()->kind, NodeKind::kProgram);
}

}  // namespace
}  // namespace jst
