// Control-flow edges are asserted on the reference builder's full edge
// list (support/graph_oracles.h); every fixture also checks that the
// reach-pruned, count-only production passes agree with it. The second
// half pins the pruning itself: functions, conditionals, declarations and
// labeled loops hidden inside operator soup, trees mutated and
// re-finalized the way the transformers do, and the hostile generators.
#include <gtest/gtest.h>

#include <set>

#include "ast/walk.h"
#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "hostile_inputs.h"
#include "parser/parser.h"
#include "support/graph_oracles.h"
#include "transform/rename.h"

namespace jst {
namespace {

struct Built {
  ParseResult parse;
  oracle::ControlFlow flow;
};

Built build(std::string_view source) {
  Built out;
  out.parse = parse_program(source);
  out.flow = oracle::build_control_flow(out.parse.ast);
  EXPECT_EQ(oracle::graph_mismatch(out.parse.ast), "") << source;
  return out;
}

// Finds the id of the i-th node of `kind` in pre-order.
std::uint32_t id_of(const Built& built, NodeKind kind, std::size_t index = 0) {
  const auto nodes = collect_kind(
      static_cast<const Node*>(built.parse.ast.root()), kind);
  EXPECT_LT(index, nodes.size());
  return nodes[index]->id;
}

bool has_edge(const Built& built, std::uint32_t from, std::uint32_t to) {
  for (const auto& [a, b] : built.flow.edges) {
    if (a == from && b == to) return true;
  }
  return false;
}

TEST(Cfg, SequenceEdges) {
  const Built built = build("a(); b(); c();");
  // stmt1 -> stmt2 -> stmt3.
  const std::uint32_t s1 = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t s2 = id_of(built, NodeKind::kExpressionStatement, 1);
  const std::uint32_t s3 = id_of(built, NodeKind::kExpressionStatement, 2);
  EXPECT_TRUE(has_edge(built, s1, s2));
  EXPECT_TRUE(has_edge(built, s2, s3));
  EXPECT_FALSE(has_edge(built, s1, s3));
}

TEST(Cfg, IfBranches) {
  const Built built = build("if (c) { a(); } else { b(); } d();");
  const std::uint32_t if_id = id_of(built, NodeKind::kIfStatement);
  const std::uint32_t then_block = id_of(built, NodeKind::kBlockStatement, 0);
  const std::uint32_t else_block = id_of(built, NodeKind::kBlockStatement, 1);
  EXPECT_TRUE(has_edge(built, if_id, then_block));
  EXPECT_TRUE(has_edge(built, if_id, else_block));
  // Both branch exits reach the following statement.
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 2);
  const std::uint32_t a_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t b_stmt = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, a_stmt, after));
  EXPECT_TRUE(has_edge(built, b_stmt, after));
}

TEST(Cfg, IfWithoutElseFallsThrough) {
  const Built built = build("if (c) a(); b();");
  const std::uint32_t if_id = id_of(built, NodeKind::kIfStatement);
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, if_id, after));
}

TEST(Cfg, LoopBackEdge) {
  const Built built = build("while (c) { a(); } b();");
  const std::uint32_t loop = id_of(built, NodeKind::kWhileStatement);
  const std::uint32_t body_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  EXPECT_TRUE(has_edge(built, body_stmt, loop));  // back edge
  EXPECT_GE(built.flow.back_edge_count(), 1u);
}

TEST(Cfg, BreakExitsLoop) {
  const Built built = build("while (c) { if (x) break; a(); } b();");
  const std::uint32_t break_id = id_of(built, NodeKind::kBreakStatement);
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, break_id, after));
}

TEST(Cfg, ContinueTargetsLoop) {
  const Built built = build("for (;;) { if (x) continue; a(); }");
  const std::uint32_t continue_id = id_of(built, NodeKind::kContinueStatement);
  const std::uint32_t loop = id_of(built, NodeKind::kForStatement);
  EXPECT_TRUE(has_edge(built, continue_id, loop));
}

TEST(Cfg, ReturnHasNoFallthrough) {
  const Built built = build("function f() { return 1; unreachable(); }");
  const std::uint32_t return_id = id_of(built, NodeKind::kReturnStatement);
  for (const auto& [from, to] : built.flow.edges) {
    (void)to;
    EXPECT_NE(from, return_id);
  }
}

TEST(Cfg, SwitchDispatchesToCases) {
  const Built built =
      build("switch (x) { case 1: a(); break; case 2: b(); } c();");
  const std::uint32_t switch_id = id_of(built, NodeKind::kSwitchStatement);
  const std::uint32_t a_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t b_stmt = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, switch_id, a_stmt));
  EXPECT_TRUE(has_edge(built, switch_id, b_stmt));
  // No default: switch itself can fall through to c().
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 2);
  EXPECT_TRUE(has_edge(built, switch_id, after));
}

TEST(Cfg, SwitchFallthroughBetweenCases) {
  const Built built = build("switch (x) { case 1: a(); case 2: b(); }");
  const std::uint32_t a_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t b_stmt = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, a_stmt, b_stmt));
}

TEST(Cfg, TryCatchExceptionEdge) {
  const Built built = build("try { a(); } catch (e) { b(); } c();");
  const std::uint32_t try_id = id_of(built, NodeKind::kTryStatement);
  const std::uint32_t handler = id_of(built, NodeKind::kCatchClause);
  EXPECT_TRUE(has_edge(built, try_id, handler));
  // Handler body exit reaches c().
  const std::uint32_t b_stmt = id_of(built, NodeKind::kExpressionStatement, 1);
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 2);
  EXPECT_TRUE(has_edge(built, b_stmt, after));
}

TEST(Cfg, FinallyChains) {
  const Built built = build("try { a(); } finally { f(); } c();");
  const std::uint32_t a_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t finally_block = id_of(built, NodeKind::kBlockStatement, 1);
  EXPECT_TRUE(has_edge(built, a_stmt, finally_block));
}

TEST(Cfg, ConditionalExpressionIsFlowNode) {
  const Built built = build("var v = c ? a : b;");
  const std::uint32_t declaration =
      id_of(built, NodeKind::kVariableDeclaration);
  const std::uint32_t conditional =
      id_of(built, NodeKind::kConditionalExpression);
  EXPECT_TRUE(has_edge(built, declaration, conditional));
}

TEST(Cfg, NestedConditionalExpressions) {
  const Built built = build("var v = c ? (d ? a : b) : e;");
  const std::uint32_t outer = id_of(built, NodeKind::kConditionalExpression, 0);
  const std::uint32_t inner = id_of(built, NodeKind::kConditionalExpression, 1);
  EXPECT_TRUE(has_edge(built, outer, inner));
}

TEST(Cfg, FunctionBodiesAreSeparateSubgraphs) {
  const Built built = build("function f() { a(); b(); } f(); g();");
  const std::uint32_t a_stmt = id_of(built, NodeKind::kExpressionStatement, 0);
  const std::uint32_t b_stmt = id_of(built, NodeKind::kExpressionStatement, 1);
  EXPECT_TRUE(has_edge(built, a_stmt, b_stmt));  // inside f
  // The function declaration participates in the top-level sequence.
  const std::uint32_t fn = id_of(built, NodeKind::kFunctionDeclaration);
  const std::uint32_t call_f = id_of(built, NodeKind::kExpressionStatement, 2);
  EXPECT_TRUE(has_edge(built, fn, call_f));
}

TEST(Cfg, LabeledBreakTargets) {
  const Built built = build(
      "outer: while (a) { while (b) { break outer; } } done();");
  const std::uint32_t break_id = id_of(built, NodeKind::kBreakStatement);
  const std::uint32_t after = id_of(built, NodeKind::kExpressionStatement, 0);
  EXPECT_TRUE(has_edge(built, break_id, after));
}

TEST(Cfg, EdgesAreDeduplicated) {
  const Built built = build("a(); a(); if (x) { y(); }");
  std::set<std::pair<std::uint32_t, std::uint32_t>> unique(
      built.flow.edges.begin(), built.flow.edges.end());
  EXPECT_EQ(unique.size(), built.flow.edges.size());
}

TEST(Cfg, EmptyProgramHasNoEdges) {
  const Built built = build("");
  EXPECT_EQ(built.flow.edge_count(), 0u);
  EXPECT_EQ(build_control_flow(built.parse.ast).edge_count(), 0u);
}

TEST(Cfg, ProductionCountsEqualTheEdgeList) {
  const Built built = build(
      "function f(a) { if (a) { return a ? 1 : 2; } while (a--) { g(); } }"
      "switch (x) { case 1: y(); case 2: z(); break; default: w(); }");
  const ControlFlow flow = build_control_flow(built.parse.ast);
  EXPECT_EQ(flow.edge_count(), built.flow.edges.size());
  EXPECT_EQ(flow.branch_node_count(), built.flow.branch_node_count());
  EXPECT_EQ(flow.back_edge_count(), built.flow.back_edge_count());
  EXPECT_GE(flow.branch_node_count(), 2u);
  EXPECT_GE(flow.back_edge_count(), 1u);
}

TEST(Cfg, BranchNodeCount) {
  const Built built = build("if (a) { x(); } else { y(); }");
  EXPECT_GE(built.flow.branch_node_count(), 1u);
}

TEST(Cfg, DoWhileBackEdge) {
  const Built built = build("do { a(); } while (c);");
  EXPECT_GE(built.flow.back_edge_count(), 1u);
}

// --- reach pruning against the reference builders ----------------------

// Reach bits and both graph layers of a finalized tree agree with a full
// recomputation; empty when they do.
std::string mismatch(const Ast& ast,
                     const ResourceLimits& limits = ResourceLimits{}) {
  const std::string reach = oracle::reach_mismatch(ast);
  if (!reach.empty()) return reach;
  return oracle::graph_mismatch(ast, limits);
}

// `payload` as one term in the middle of a 10 000-term JSFuck `+` chain.
std::string in_plus_chain(std::string_view payload) {
  constexpr std::size_t kTerms = 10'000;
  std::string source = "x = []";
  for (std::size_t i = 1; i < kTerms; ++i) {
    if (i == kTerms / 2) {
      source += "+(";
      source += payload;
      source += ")";
    } else {
      source += "+[]";
    }
  }
  return source + ";";
}

// `payload` as one element in the middle of an array literal of empties.
std::string in_array_literal(std::string_view payload) {
  std::string source = "x = [";
  for (std::size_t i = 0; i < 2'000; ++i) {
    source += i == 1'000 ? std::string(payload) : std::string("[]");
    source += ",";
  }
  return source + "[]];";
}

// One payload per node kind the pruned walks look for, each wrapped so
// it sits in an expression position.
const char* const kHiddenPayloads[] = {
    "function (a) { return a + 1; }",
    "c ? d : e",
    "(function () { var v = 1; return v + v; })()",
    "(function () { outer: for (;;) { for (;;) { break outer; } } })()",
};

TEST(ReachPruning, PayloadInsideJsFuckChainIsCounted) {
  for (const char* payload : kHiddenPayloads) {
    const ParseResult parsed = parse_program(in_plus_chain(payload));
    EXPECT_EQ(mismatch(parsed.ast), "") << payload;
  }
}

TEST(ReachPruning, PayloadInsideArrayLiteralIsCounted) {
  for (const char* payload : kHiddenPayloads) {
    const ParseResult parsed = parse_program(in_array_literal(payload));
    EXPECT_EQ(mismatch(parsed.ast), "") << payload;
  }
}

TEST(ReachPruning, HiddenNodesContributeEdges) {
  // The soup alone: one statement, no edges of either kind.
  const ParseResult soup = parse_program(in_plus_chain("[]"));
  EXPECT_EQ(build_control_flow(soup.ast).edge_count(), 0u);
  EXPECT_EQ(build_data_flow(soup.ast).edge_count(), 0u);
  // Each payload is found: the conditional links to its statement, the
  // function body and the labeled loop add CFG edges, the var its uses.
  const ParseResult conditional = parse_program(in_plus_chain("c ? d : e"));
  EXPECT_EQ(build_control_flow(conditional.ast).edge_count(), 1u);
  const ParseResult declared =
      parse_program(in_plus_chain(kHiddenPayloads[2]));
  EXPECT_EQ(build_data_flow(declared.ast).edge_count(), 2u);
  const ParseResult labeled =
      parse_program(in_array_literal(kHiddenPayloads[3]));
  const ControlFlow loops = build_control_flow(labeled.ast);
  EXPECT_GE(loops.back_edge_count(), 1u);
}

// Parses `snippet` into its own tree and clones its first statement into
// `ast`'s arena (ids and reach bits are not set until `ast` is
// re-finalized).
Node* clone_statement(Ast& ast, std::string_view snippet) {
  const ParseResult parsed = parse_program(snippet);
  return ast.clone(parsed.ast.root()->kids[0]);
}

// The `[]` term `depth` steps down the left spine of a `+` chain.
Node* chain_term(Node* statement, std::size_t depth) {
  Node* node = statement->kids[0]->kids[1];  // the assignment's right side
  for (std::size_t i = 0; i < depth; ++i) node = node->kids[0];
  return node;
}

TEST(ReachPruning, StaleBitsAreCaughtAndRefinalizeClearsThem) {
  ParseResult parsed = parse_program(in_plus_chain("[]"));
  Ast& ast = parsed.ast;
  // Hide a function with a conditional and a declaration deep in the
  // soup, the way a transformer splices cloned code into a tree.
  Node* host = chain_term(ast.root()->kids[0], 4'000);
  Node* function = clone_statement(
      ast, "(function (p) { var q = p ? p : 1; return q + q; });")->kids[0];
  host->kids[1] = function;
  EXPECT_NE(oracle::reach_mismatch(ast), "");  // stale until re-finalized
  ast.finalize();
  EXPECT_EQ(mismatch(ast), "");
  EXPECT_GT(build_data_flow(ast).edge_count(), 0u);
  EXPECT_GT(build_control_flow(ast).edge_count(), 0u);
  // Removing it again must clear the bits on the spine above it.
  host->kids[1] = ast.make(NodeKind::kArrayExpression);
  ast.finalize();
  EXPECT_EQ(mismatch(ast), "");
  EXPECT_EQ(build_data_flow(ast).edge_count(), 0u);
  EXPECT_EQ(ast.root()->reach, kReachDataFlow);
}

const char* kTransformFixture = R"js(
var total = 0, items = [1, 2, 3];
function step(n) { return n > 1 ? n * 2 : n; }
for (var i = 0; i < items.length; i++) { total += step(items[i]); }
x = [] + [] + (+!![]) + (function () { let hidden = total; return hidden; })();
if (total) { sink(total); } else { sink(-total); }
)js";

// Dead-code injection: `if (false) { ... }` arms cloned in before each
// statement of every block, then re-finalized.
TEST(ReachPruning, DeadCodeInjectionThenRefinalize) {
  ParseResult parsed = parse_program(kTransformFixture);
  Ast& ast = parsed.ast;
  std::vector<Node*> containers;
  walk_preorder(ast.root(), [&containers](Node& node) {
    if (node.kind == NodeKind::kProgram ||
        node.kind == NodeKind::kBlockStatement) {
      containers.push_back(&node);
    }
  });
  for (Node* container : containers) {
    std::vector<Node*> rebuilt;
    for (Node* statement : container->kids) {
      rebuilt.push_back(clone_statement(
          ast, "if (false) { var dead = total ? step(1) : [] + []; }"));
      rebuilt.push_back(statement);
    }
    ast.assign_kids(container, rebuilt.begin(), rebuilt.end());
  }
  ast.finalize();
  EXPECT_EQ(mismatch(ast), "");
}

// Control-flow flattening: the program's statements moved into the cases
// of a `while (true) switch` dispatcher, then re-finalized.
TEST(ReachPruning, FlatteningThenRefinalize) {
  ParseResult parsed = parse_program(kTransformFixture);
  Ast& ast = parsed.ast;
  const std::vector<Node*> statements(ast.root()->kids.begin(),
                                      ast.root()->kids.end());
  std::string dispatcher = "while (true) { switch (order[k++]) {";
  for (std::size_t i = 0; i < statements.size(); ++i) {
    dispatcher += " case " + std::to_string(i) + ": 0; continue;";
  }
  dispatcher += " } break; }";
  Node* loop = clone_statement(ast, dispatcher);
  Node* switch_statement = loop->kids[1]->kids[0];
  for (std::size_t i = 0; i < statements.size(); ++i) {
    switch_statement->kids[i + 1]->kids[1] = statements[i];
  }
  ast.set_kids(ast.root(),
               {clone_statement(ast, "var order = [0, 1, 2, 3, 4], k = 0;"),
                loop});
  ast.finalize();
  EXPECT_EQ(mismatch(ast), "");
}

// Renaming rewrites identifiers in place and re-finalizes the tree.
TEST(ReachPruning, RenameThenRefinalize) {
  ParseResult parsed = parse_program(kTransformFixture);
  EXPECT_GT(transform::rename_bindings(
                parsed.ast,
                [](std::size_t ordinal, const std::string&) {
                  return transform::short_name(ordinal);
                }),
            0u);
  EXPECT_EQ(mismatch(parsed.ast), "");
}

TEST(ReachPruning, HostileGeneratorsMatchTheReference) {
  for (const std::size_t length : {64u, 4096u, 65536u}) {
    const ParseResult parsed =
        parse_program(hostile::jsfuck_flood(length, 0xf00d + length));
    EXPECT_EQ(mismatch(parsed.ast), "") << "flood " << length;
  }
  const ParseResult literal =
      parse_program(hostile::huge_string_literal(1 << 16, 3, '\''));
  EXPECT_EQ(mismatch(literal.ast), "");
  for (const std::size_t depth : {1u, 7u, 63u, 255u}) {
    const ParseResult parsed = parse_program(hostile::deep_template(depth));
    EXPECT_EQ(mismatch(parsed.ast), "") << "template depth " << depth;
  }
}

// One definition, many uses, under a 100-edge ceiling: the bulk charge
// trips at the same edge, with the same BudgetTrip, as per-edge charging.
TEST(ReachPruning, EdgeCeilingTripsAtTheSameEdge) {
  std::string source = "var v = 1, w; v = v + 1;";
  for (int i = 0; i < 200; ++i) source += "w = v + [] + v;";
  const ParseResult parsed = parse_program(source);
  for (const std::size_t ceiling : {1u, 100u, 256u, 399u, 400u, 401u}) {
    ResourceLimits limits;
    limits.max_dataflow_edges = ceiling;
    EXPECT_EQ(mismatch(parsed.ast, limits), "") << "ceiling " << ceiling;
    Budget budget(limits);
    DataFlowOptions options;
    options.budget = &budget;
    const DataFlow flow = build_data_flow(parsed.ast, options);
    ASSERT_TRUE(flow.tripped.has_value()) << "ceiling " << ceiling;
    EXPECT_EQ(flow.edge_count(), ceiling);
    EXPECT_EQ(flow.tripped->observed, static_cast<double>(ceiling + 1));
  }
}

// An already-passed deadline is noticed at the 4096th charged edge (the
// poll stride), before the walk itself reaches a poll: both builders stop
// with one edge fewer counted and the same trip kind and limit.
TEST(ReachPruning, DeadlineTripsAtTheSameEdge) {
  std::string source = "var v = 0;";
  for (int i = 0; i < 9; ++i) source += "v = 1;";
  for (int i = 0; i < 500; ++i) source += "sink(v);";
  const ParseResult parsed = parse_program(source);
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;
  Budget budget(limits);
  DataFlowOptions options;
  options.budget = &budget;
  const DataFlow flow = build_data_flow(parsed.ast, options);
  Budget reference_budget(limits);
  options.budget = &reference_budget;
  const oracle::DataFlow reference =
      oracle::build_data_flow(parsed.ast, options);
  ASSERT_TRUE(flow.tripped.has_value());
  ASSERT_TRUE(reference.tripped.has_value());
  EXPECT_EQ(flow.tripped->kind, ResourceKind::kDeadline);
  EXPECT_EQ(reference.tripped->kind, ResourceKind::kDeadline);
  EXPECT_EQ(flow.tripped->limit, reference.tripped->limit);
  EXPECT_EQ(flow.edge_count(), Budget::kDeadlinePollStride - 1);
  EXPECT_EQ(flow.edge_count(), reference.edge_count());
}

}  // namespace
}  // namespace jst
