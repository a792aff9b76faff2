#include <gtest/gtest.h>

#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"

namespace jst {
namespace {

std::string pretty(std::string_view source) {
  const ParseResult result = parse_program(source);
  return to_source(result.ast.root());
}

std::string minified(std::string_view source) {
  const ParseResult result = parse_program(source);
  return to_minified_source(result.ast.root());
}

// Pre-order kind sequence — the semantic fingerprint we require codegen to
// preserve.
std::vector<NodeKind> kinds_of(std::string_view source) {
  const ParseResult result = parse_program(source);
  return preorder_kinds(result.ast.root());
}

// Codegen must be a fixed point under reparsing: parse(print(ast)) == ast
// structurally.
void expect_roundtrip(std::string_view source) {
  const std::string printed = pretty(source);
  EXPECT_EQ(kinds_of(source), kinds_of(printed)) << "pretty of: " << source
                                                 << "\n got: " << printed;
  const std::string compact = minified(source);
  EXPECT_EQ(kinds_of(source), kinds_of(compact)) << "minified of: " << source
                                                 << "\n got: " << compact;
  // Printing the printed output again must be stable.
  EXPECT_EQ(pretty(printed), printed);
}

TEST(Codegen, SimpleStatements) {
  expect_roundtrip("var a = 1;");
  expect_roundtrip("let b = 'x';");
  expect_roundtrip("const c = [1, 2, 3];");
  expect_roundtrip("a.b.c = d[e];");
  expect_roundtrip("f(1, 'two', g(3));");
}

TEST(Codegen, ControlFlow) {
  expect_roundtrip("if (a) b(); else c();");
  expect_roundtrip("if (a) { b(); } else if (c) { d(); }");
  expect_roundtrip("for (var i = 0; i < 3; i++) use(i);");
  expect_roundtrip("for (var k in o) log(k);");
  expect_roundtrip("for (const x of xs) log(x);");
  expect_roundtrip("while (a) { b(); }");
  expect_roundtrip("do { a(); } while (b);");
  expect_roundtrip("switch (x) { case 1: a(); break; default: b(); }");
  expect_roundtrip("try { a(); } catch (e) { b(); } finally { c(); }");
  expect_roundtrip("outer: for (;;) { break outer; }");
  expect_roundtrip("with (o) { f(); }");
}

TEST(Codegen, Functions) {
  expect_roundtrip("function f(a, b) { return a + b; }");
  expect_roundtrip("var f = function named() { return 1; };");
  expect_roundtrip("var g = (a, b) => a * b;");
  expect_roundtrip("var h = x => ({ value: x });");
  expect_roundtrip("async function r() { await q(); }");
  expect_roundtrip("function* gen() { yield 1; yield* rest(); }");
  expect_roundtrip("(function () { init(); })();");
}

TEST(Codegen, Classes) {
  expect_roundtrip(
      "class A extends B { constructor(x) { this.x = x; } "
      "static make() { return new A(0); } get v() { return this.x; } "
      "set v(n) { this.x = n; } *iter() { yield this.x; } }");
}

TEST(Codegen, Expressions) {
  expect_roundtrip("x = a ? b : c;");
  expect_roundtrip("x = (a, b, c);");
  expect_roundtrip("x = -(-y);");
  expect_roundtrip("x = !!b;");
  expect_roundtrip("x = typeof a === 'string';");
  expect_roundtrip("x = a ** b ** c;");
  expect_roundtrip("x = (a + b) * c;");
  expect_roundtrip("x = a + b * c;");
  expect_roundtrip("delete o.p;");
  expect_roundtrip("x = new Foo(a).bar(b);");
  expect_roundtrip("x = { a: 1, 'b c': 2, [k]: 3, m() {} };");
  expect_roundtrip("x = [1, , 3];");
  expect_roundtrip("x = `a ${b + 1} c`;");
  expect_roundtrip("x = tag`t ${v}`;");
  expect_roundtrip("x = /ab+/gi.test(s);");
  expect_roundtrip("x = a in b;");
  expect_roundtrip("x = a instanceof B;");
}

TEST(Codegen, PrecedenceParenthesization) {
  // (a + b) * c requires parens; a + b * c must not add them.
  EXPECT_EQ(minified("x = (a + b) * c;"), "x=(a+b)*c;");
  EXPECT_EQ(minified("x = a + b * c;"), "x=a+b*c;");
  // Sequence inside a call argument keeps its parens.
  EXPECT_EQ(minified("f((a, b));"), "f((a,b));");
  // Conditional in argument position has no parens.
  EXPECT_EQ(minified("f(a ? b : c);"), "f(a?b:c);");
}

TEST(Codegen, ObjectLiteralStatementParenthesized) {
  // An expression statement may not start with '{' or 'function'.
  expect_roundtrip("({ a: 1 });");
  expect_roundtrip("(function () {})();");
  const std::string out = minified("({ a: 1 });");
  EXPECT_EQ(out.front(), '(');
}

TEST(Codegen, MinifiedHasNoExtraWhitespace) {
  const std::string out =
      minified("function add(first, second) {\n  return first + second;\n}");
  EXPECT_EQ(out.find('\n'), std::string::npos);
  EXPECT_EQ(out, "function add(first,second){return first+second;}");
}

TEST(Codegen, MinifiedKeywordSpacing) {
  EXPECT_EQ(minified("var a = typeof b;"), "var a=typeof b;");
  EXPECT_EQ(minified("return;"), "return;");
  EXPECT_EQ(minified("x = a in b;"), "x=a in b;");
  EXPECT_EQ(minified("x = new F();"), "x=new F();");
}

TEST(Codegen, UnaryPlusMinusNotFused) {
  // -(-x) must not print as --x.
  const std::string out = minified("y = -(-x);");
  EXPECT_EQ(out.find("--"), std::string::npos);
  expect_roundtrip("y = +(+x);");
}

TEST(Codegen, StringQuotingAndEscapes) {
  EXPECT_EQ(minified("s = \"a\\\"b\";"), "s=\"a\\\"b\";");
  EXPECT_EQ(minified("s = 'a\\nb';"), "s=\"a\\nb\";");
  expect_roundtrip("s = '\\x01\\x02';");
}

TEST(Codegen, ForcedEscapeFlags) {
  ParseResult result = parse_program("var s = \"AB\";");
  Node* literal = collect_kind(result.ast.root(), NodeKind::kLiteral)[0];
  literal->flag_a = true;  // hex escape
  EXPECT_EQ(to_minified_source(result.ast.root()), "var s=\"\\x41\\x42\";");
  literal->flag_a = false;
  literal->flag_b = true;  // unicode escape
  EXPECT_EQ(to_minified_source(result.ast.root()), "var s=\"\\u0041\\u0042\";");
}

TEST(Codegen, NumberFormats) {
  expect_roundtrip("n = 0x2a;");
  expect_roundtrip("n = 1e3;");
  expect_roundtrip("n = 3.14;");
  EXPECT_EQ(minified("n = 0x2a;"), "n=0x2a;");  // raw preserved
}

TEST(Codegen, ShorthandExpansionAfterRename) {
  ParseResult result = parse_program("var o = { a };");
  // Rename the shorthand value; codegen must expand to a: newName.
  const auto identifiers =
      collect_kind(result.ast.root(), NodeKind::kIdentifier);
  for (Node* identifier : identifiers) {
    if (identifier->parent != nullptr &&
        identifier->parent->kind == NodeKind::kProperty &&
        identifier->parent->kids[1] == identifier) {
      identifier->str_value = "zz";
    }
  }
  result.ast.finalize();
  const std::string out = to_minified_source(result.ast.root());
  EXPECT_NE(out.find("a:zz"), std::string::npos) << out;
}

TEST(Codegen, MinifiedLineLimitWraps) {
  std::string source;
  for (int i = 0; i < 60; ++i) {
    source += "callSomething(" + std::to_string(i) + ");";
  }
  ParseResult result = parse_program(source);
  CodegenOptions options;
  options.minify = true;
  options.minified_line_limit = 120;
  const std::string out = generate(result.ast.root(), options);
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Codegen, DestructuringRoundtrip) {
  expect_roundtrip("var { a, b: c, d = 2 } = o;");
  expect_roundtrip("var [x, , z, ...rest] = arr;");
  expect_roundtrip("function f({ a, b }, [c], d = 1, ...e) { return a; }");
}

TEST(Codegen, EmptyConstructs) {
  expect_roundtrip("function f() {}");
  expect_roundtrip("if (a) {}");
  expect_roundtrip("var o = {};");
  expect_roundtrip("var a = [];");
  expect_roundtrip(";");
  expect_roundtrip("class C {}");
}

TEST(Codegen, GeneratedSubtreePrinting) {
  Ast ast;
  Node* call = ast.make(NodeKind::kCallExpression);
  Node* member = ast.make(NodeKind::kMemberExpression);
  ast.set_kids(member,
               {ast.make_identifier("console"), ast.make_identifier("log")});
  ast.set_kids(call, {member, ast.make_string("hi"), ast.make_number(3.0)});
  ast.set_root(call);
  ast.finalize();
  EXPECT_EQ(to_minified_source(call), "console.log(\"hi\",3)");
}

// Appending a program's statements one at a time into one ProgramPrinter
// must give what generate() prints for the program prefix so far: its
// size() after every statement, and take() after the last.
void expect_appends_equal_reprint(std::string_view source,
                                  const CodegenOptions& options) {
  ParseResult result = parse_program(source);
  const std::vector<Node*> statements(result.ast.root()->kids.begin(),
                                      result.ast.root()->kids.end());
  ASSERT_FALSE(statements.empty());
  ProgramPrinter printer(options);
  for (std::size_t k = 1; k <= statements.size(); ++k) {
    printer.append(*statements[k - 1]);
    Node* prefix = result.ast.make(NodeKind::kProgram);
    result.ast.assign_kids(prefix, statements.begin(),
                           statements.begin() + static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(printer.size(), generate(prefix, options).size())
        << "after statement " << k << " of: " << source;
  }
  EXPECT_EQ(printer.take(), generate(result.ast.root(), options))
      << "of: " << source;
}

TEST(ProgramPrinter, AppendedStatementsEqualWholeProgramPrint) {
  const std::string_view source =
      "var total = 0;\n"
      "(function () { total++; })();\n"
      "[1, 2, 3].forEach(function (n) { total += n; });\n"
      "`total ${total}`.trim();\n"
      "/ab+c/.test(label);\n"
      "total++;\n"
      "+total;\n"
      "total--;\n"
      "-total;\n"
      "x = a - -b + +c;\n"
      "(class Widget {});\n"
      "({ a: 1, b: [2] }).a;\n"
      "({ key: value });\n"
      "function wrap(v) { if (v) { return -v; } else { return +v; } }\n"
      "class Base { constructor() { this.x = 1; } }\n"
      "for (var i = 0; i < 3; i++) { total -= i; }\n";
  expect_appends_equal_reprint(source, {});
  CodegenOptions minify;
  minify.minify = true;
  expect_appends_equal_reprint(source, minify);
  CodegenOptions wrapped = minify;
  wrapped.minified_line_limit = 24;
  expect_appends_equal_reprint(source, wrapped);
}

TEST(ProgramPrinter, StartsEmptyAndTakeEmptiesIt) {
  ProgramPrinter printer;
  EXPECT_EQ(printer.size(), 0u);
  EXPECT_EQ(printer.take(), "");
  ParseResult result = parse_program("a();");
  printer.append(*result.ast.root()->kids[0]);
  EXPECT_EQ(printer.size(), 5u);
  EXPECT_EQ(printer.take(), "a();\n");
  EXPECT_EQ(printer.size(), 0u);
}

}  // namespace
}  // namespace jst
