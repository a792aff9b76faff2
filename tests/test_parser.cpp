#include <gtest/gtest.h>

#include "ast/walk.h"
#include "parser/parser.h"

namespace jst {
namespace {

// Parses and returns the program root.
ParseResult parse(std::string_view source) { return parse_program(source); }

std::size_t count_kind(const ParseResult& result, NodeKind kind) {
  return collect_kind(static_cast<const Node*>(result.ast.root()), kind).size();
}

TEST(Parser, EmptyProgram) {
  const ParseResult result = parse("");
  ASSERT_NE(result.ast.root(), nullptr);
  EXPECT_EQ(result.ast.root()->kind, NodeKind::kProgram);
  EXPECT_TRUE(result.ast.root()->kids.empty());
}

TEST(Parser, VariableDeclarations) {
  const ParseResult result = parse("var a = 1, b; let c = 'x'; const d = [];");
  EXPECT_EQ(count_kind(result, NodeKind::kVariableDeclaration), 3u);
  EXPECT_EQ(count_kind(result, NodeKind::kVariableDeclarator), 4u);
}

TEST(Parser, FunctionDeclaration) {
  const ParseResult result = parse("function add(a, b) { return a + b; }");
  EXPECT_EQ(count_kind(result, NodeKind::kFunctionDeclaration), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kReturnStatement), 1u);
  const Node* function =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kFunctionDeclaration)[0];
  EXPECT_EQ(function->kids.size(), 4u);  // id, body, 2 params
}

TEST(Parser, IfElseChain) {
  const ParseResult result =
      parse("if (a) { f(); } else if (b) g(); else { h(); }");
  EXPECT_EQ(count_kind(result, NodeKind::kIfStatement), 2u);
}

TEST(Parser, ForVariants) {
  const ParseResult result = parse(
      "for (var i = 0; i < 10; i++) {}"
      "for (var k in obj) {}"
      "for (const v of list) {}"
      "for (;;) { break; }");
  EXPECT_EQ(count_kind(result, NodeKind::kForStatement), 2u);
  EXPECT_EQ(count_kind(result, NodeKind::kForInStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kForOfStatement), 1u);
}

TEST(Parser, ForInWithExpressionHead) {
  const ParseResult result = parse("for (key in map) { use(key); }");
  EXPECT_EQ(count_kind(result, NodeKind::kForInStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kBinaryExpression), 0u);
}

TEST(Parser, WhileAndDoWhile) {
  const ParseResult result = parse("while (a) b(); do { c(); } while (d);");
  EXPECT_EQ(count_kind(result, NodeKind::kWhileStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kDoWhileStatement), 1u);
}

TEST(Parser, SwitchWithDefault) {
  const ParseResult result = parse(
      "switch (x) { case 1: a(); break; case 2: case 3: b(); break; "
      "default: c(); }");
  EXPECT_EQ(count_kind(result, NodeKind::kSwitchStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kSwitchCase), 4u);
}

TEST(Parser, TryCatchFinally) {
  const ParseResult result =
      parse("try { a(); } catch (e) { b(e); } finally { c(); }");
  EXPECT_EQ(count_kind(result, NodeKind::kTryStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kCatchClause), 1u);
}

TEST(Parser, CatchWithoutParameter) {
  const ParseResult result = parse("try { a(); } catch { b(); }");
  const Node* handler =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kCatchClause)[0];
  EXPECT_EQ(handler->kid(0), nullptr);
}

TEST(Parser, TryWithoutHandlerFails) {
  EXPECT_THROW(parse("try { a(); }"), ParseError);
}

TEST(Parser, OperatorPrecedence) {
  const ParseResult result = parse("x = 1 + 2 * 3;");
  const Node* assignment =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kAssignmentExpression)[0];
  const Node* plus = assignment->kids[1];
  ASSERT_EQ(plus->kind, NodeKind::kBinaryExpression);
  EXPECT_EQ(plus->str_value, "+");
  EXPECT_EQ(plus->kids[1]->str_value, "*");
}

TEST(Parser, ExponentRightAssociative) {
  const ParseResult result = parse("y = 2 ** 3 ** 2;");
  const Node* assignment =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kAssignmentExpression)[0];
  const Node* outer = assignment->kids[1];
  EXPECT_EQ(outer->str_value, "**");
  EXPECT_EQ(outer->kids[1]->str_value, "**");  // right side nests
}

TEST(Parser, LogicalVsBinary) {
  const ParseResult result = parse("r = a && b || c & d;");
  EXPECT_EQ(count_kind(result, NodeKind::kLogicalExpression), 2u);
  EXPECT_EQ(count_kind(result, NodeKind::kBinaryExpression), 1u);
}

TEST(Parser, ConditionalExpression) {
  const ParseResult result = parse("v = a ? b : c ? d : e;");
  EXPECT_EQ(count_kind(result, NodeKind::kConditionalExpression), 2u);
}

TEST(Parser, MemberExpressionFlags) {
  const ParseResult result = parse("a.b.c; a['x']; a[0][i];");
  const auto members = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kMemberExpression);
  std::size_t dot = 0;
  std::size_t bracket = 0;
  for (const Node* member : members) {
    if (member->flag_a) {
      ++bracket;
    } else {
      ++dot;
    }
  }
  EXPECT_EQ(dot, 2u);
  EXPECT_EQ(bracket, 3u);
}

TEST(Parser, CallAndNew) {
  const ParseResult result = parse("f(1, 2); new Date(); new Foo.Bar(x);");
  EXPECT_EQ(count_kind(result, NodeKind::kCallExpression), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kNewExpression), 2u);
}

TEST(Parser, ArrowFunctions) {
  const ParseResult result = parse(
      "var f = x => x + 1;"
      "var g = (a, b) => { return a * b; };"
      "var h = () => 0;"
      "var i = async (q) => q;");
  EXPECT_EQ(count_kind(result, NodeKind::kArrowFunctionExpression), 4u);
}

TEST(Parser, ArrowVsParenthesizedExpression) {
  const ParseResult result = parse("var y = (a + b) * 2;");
  EXPECT_EQ(count_kind(result, NodeKind::kArrowFunctionExpression), 0u);
}

TEST(Parser, ObjectLiteralForms) {
  const ParseResult result = parse(
      "var o = { a: 1, 'b': 2, 3: 'c', [k]: v, short, method() {}, "
      "get prop() { return 1; }, set prop(x) {}, ...rest };");
  EXPECT_EQ(count_kind(result, NodeKind::kObjectExpression), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kSpreadElement), 1u);
  const auto properties = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kProperty);
  EXPECT_EQ(properties.size(), 8u);
}

TEST(Parser, ArrayWithHoles) {
  const ParseResult result = parse("var a = [1, , 3, ...xs];");
  const Node* array =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kArrayExpression)[0];
  EXPECT_EQ(array->kids.size(), 4u);
  EXPECT_EQ(array->kids[1], nullptr);
}

TEST(Parser, ClassDeclaration) {
  const ParseResult result = parse(
      "class Point extends Base {"
      "  constructor(x) { this.x = x; }"
      "  static of(x) { return new Point(x); }"
      "  get norm() { return this.x; }"
      "  move(dx) { this.x += dx; }"
      "}");
  EXPECT_EQ(count_kind(result, NodeKind::kClassDeclaration), 1u);
  const auto methods = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kMethodDefinition);
  ASSERT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods[0]->str_value, "constructor");
  EXPECT_TRUE(methods[1]->flag_b);  // static
  EXPECT_EQ(methods[2]->str_value, "get");
}

TEST(Parser, TemplateLiteralAst) {
  const ParseResult result = parse("var s = `a ${x + 1} b`;");
  EXPECT_EQ(count_kind(result, NodeKind::kTemplateLiteral), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kTemplateElement), 2u);
  EXPECT_EQ(count_kind(result, NodeKind::kBinaryExpression), 1u);
}

TEST(Parser, TaggedTemplate) {
  const ParseResult result = parse("tag`x ${y} z`;");
  EXPECT_EQ(count_kind(result, NodeKind::kTaggedTemplateExpression), 1u);
}

TEST(Parser, DestructuringDeclarations) {
  const ParseResult result = parse(
      "var {a, b: c, d = 1} = obj; let [x, , y, ...rest] = arr;");
  EXPECT_EQ(count_kind(result, NodeKind::kObjectPattern), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kArrayPattern), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kRestElement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kAssignmentPattern), 1u);
}

TEST(Parser, AutomaticSemicolonInsertion) {
  const ParseResult result = parse("var a = 1\nvar b = 2\nreturn_like()");
  EXPECT_EQ(count_kind(result, NodeKind::kVariableDeclaration), 2u);
}

TEST(Parser, MissingSemicolonSameLineFails) {
  EXPECT_THROW(parse("var a = 1 var b = 2"), ParseError);
}

TEST(Parser, RestrictedReturn) {
  const ParseResult result = parse("function f() { return\n42; }");
  const Node* return_statement =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kReturnStatement)[0];
  EXPECT_EQ(return_statement->kid(0), nullptr);  // ASI after return
}

TEST(Parser, LabeledStatementAndJumps) {
  const ParseResult result = parse(
      "outer: for (var i = 0; i < 3; i++) {"
      "  for (var j = 0; j < 3; j++) { if (j) continue outer; break; }"
      "}");
  EXPECT_EQ(count_kind(result, NodeKind::kLabeledStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kContinueStatement), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kBreakStatement), 1u);
}

TEST(Parser, SequenceExpression) {
  const ParseResult result = parse("x = (a, b, c);");
  const auto sequences = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kSequenceExpression);
  ASSERT_EQ(sequences.size(), 1u);
  EXPECT_EQ(sequences[0]->kids.size(), 3u);
}

TEST(Parser, UnaryAndUpdate) {
  const ParseResult result = parse("!a; typeof b; void 0; delete c.d; ++e; f--;");
  EXPECT_EQ(count_kind(result, NodeKind::kUnaryExpression), 4u);
  const auto updates = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kUpdateExpression);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_TRUE(updates[0]->flag_a);   // prefix
  EXPECT_FALSE(updates[1]->flag_a);  // postfix
}

TEST(Parser, IifePattern) {
  const ParseResult result = parse("(function () { var x = 1; })();");
  EXPECT_EQ(count_kind(result, NodeKind::kFunctionExpression), 1u);
  EXPECT_EQ(count_kind(result, NodeKind::kCallExpression), 1u);
}

TEST(Parser, AsyncAwait) {
  const ParseResult result = parse(
      "async function f() { const r = await fetch(url); return r; }");
  EXPECT_EQ(count_kind(result, NodeKind::kAwaitExpression), 1u);
  const Node* function =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kFunctionDeclaration)[0];
  EXPECT_TRUE(function->flag_c);  // async
}

TEST(Parser, GeneratorsAndYield) {
  const ParseResult result =
      parse("function* gen() { yield 1; yield* other(); }");
  const Node* function =
      collect_kind(static_cast<const Node*>(result.ast.root()),
                   NodeKind::kFunctionDeclaration)[0];
  EXPECT_TRUE(function->flag_b);  // generator
  const auto yields = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kYieldExpression);
  ASSERT_EQ(yields.size(), 2u);
  EXPECT_FALSE(yields[0]->flag_a);
  EXPECT_TRUE(yields[1]->flag_a);  // delegate
}

TEST(Parser, WithStatement) {
  const ParseResult result = parse("with (obj) { use(x); }");
  EXPECT_EQ(count_kind(result, NodeKind::kWithStatement), 1u);
}

TEST(Parser, DebuggerStatement) {
  const ParseResult result = parse("debugger;");
  EXPECT_EQ(count_kind(result, NodeKind::kDebuggerStatement), 1u);
}

TEST(Parser, RegexLiteral) {
  const ParseResult result = parse("var re = /a[b/]c/g;");
  const auto literals = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kLiteral);
  bool found_regex = false;
  for (const Node* literal : literals) {
    if (literal->lit_kind == LiteralKind::kRegExp) {
      found_regex = true;
      EXPECT_EQ(literal->str_value, "a[b/]c/g");
    }
  }
  EXPECT_TRUE(found_regex);
}

TEST(Parser, OptionalChainingDesugared) {
  const ParseResult result = parse("a?.b; c?.[0]; d?.(1);");
  EXPECT_EQ(count_kind(result, NodeKind::kMemberExpression), 2u);
  EXPECT_EQ(count_kind(result, NodeKind::kCallExpression), 1u);
}

TEST(Parser, FinalizeAssignsIdsAndParents) {
  const ParseResult result = parse("var a = f(1) + 2;");
  const Node* root = result.ast.root();
  EXPECT_EQ(root->id, 0u);
  EXPECT_GT(result.ast.node_count(), 5u);
  walk_preorder(root, [root](const Node& node) {
    if (&node != root) {
      ASSERT_NE(node.parent, nullptr);
    }
  });
}

TEST(Parser, ParseErrorsCarryLocation) {
  try {
    parse("var a = ;");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 1u);
    EXPECT_GT(error.column(), 0u);
  }
}

TEST(Parser, UnbalancedBraceFails) {
  EXPECT_THROW(parse("function f() { if (a) {"), ParseError);
}

TEST(Parser, ErrorsAtEndOfInputPointThere) {
  // The lexer's end-of-input token carries the position after the last
  // byte (trailing trivia included), and messages name it.
  const auto error_of = [](std::string_view source) {
    try {
      parse(source);
    } catch (const ParseError& error) {
      return std::string(error.what()) + " @" + std::to_string(error.line()) +
             ":" + std::to_string(error.column());
    }
    return std::string("parsed");
  };
  EXPECT_EQ(error_of("f(a, b"),
            "parse error: expected ')' but found end of input "
            "(line 1, column 6) @1:6");
  EXPECT_EQ(error_of("x = 1 +"),
            "parse error: unexpected end of input (line 1, column 7) @1:7");
  EXPECT_EQ(error_of("if (a) {\n  b;\n  "),
            "parse error: unterminated block (line 3, column 2) @3:2");

  // A Parser over a token span has no lexer: the input ends where its
  // last token does, here a template spanning two lines.
  support::Arena arena;
  const std::string source = "f(`a\nbc`, d";
  const std::vector<Token> tokens = Lexer::tokenize(source, arena);
  Ast ast;
  Parser parser(tokens, ast);
  try {
    parser.parse_program_body();
    ADD_FAILURE() << "parsed";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_EQ(error.column(), 6u);
  }
}

TEST(Parser, ParsesHelper) {
  EXPECT_TRUE(parses("var x = 1;"));
  EXPECT_FALSE(parses("var = ;"));
}

TEST(Parser, TokensExposedInResult) {
  const ParseResult result = parse("var a = 1; // note\n");
  EXPECT_EQ(result.token_stats.count, 5u);
  EXPECT_EQ(result.comment_count, 1u);
  EXPECT_EQ(result.source_lines, 2u);
}

TEST(Parser, DeepNestingSurvives) {
  std::string source = "var x = ";
  for (int i = 0; i < 200; ++i) source += "(";
  source += "1";
  for (int i = 0; i < 200; ++i) source += ")";
  source += ";";
  EXPECT_TRUE(parses(source));
}

TEST(Parser, KeywordPropertyNames) {
  EXPECT_TRUE(parses("var o = { if: 1, for: 2, class: 3 }; o.if; o.class;"));
}

TEST(Parser, GetSetAsPlainNames) {
  EXPECT_TRUE(parses("var o = { get: 1, set: 2 }; o.get;"));
}

}  // namespace
}  // namespace jst
