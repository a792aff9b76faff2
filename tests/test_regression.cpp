// Regression suite: syntax hazards and tricky interactions between the
// parser, the printer, the minifier, and the interpreter. Each case either
// pins a behaviour that once broke or guards a known ASI/precedence trap.
#include <gtest/gtest.h>

#include "ast/ast_json.h"
#include "ast/walk.h"
#include "codegen/codegen.h"
#include "interp/interpreter.h"
#include "lexer/lexer.h"
#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "parser/parser.h"
#include "transform/transform.h"

namespace jst {
namespace {

std::vector<NodeKind> kinds(std::string_view source) {
  const ParseResult result = parse_program(source);
  return preorder_kinds(result.ast.root());
}

void expect_stable(std::string_view source) {
  const ParseResult first = parse_program(source);
  const std::string pretty = to_source(first.ast.root());
  const std::string compact = to_minified_source(first.ast.root());
  EXPECT_EQ(kinds(source), kinds(pretty)) << pretty;
  EXPECT_EQ(kinds(source), kinds(compact)) << compact;
}

// Quasis and substitution expressions of a TemplateLiteral node.
struct TemplateParts {
  std::vector<std::string> quasis;
  std::vector<const Node*> expressions;
};

TemplateParts template_parts(const Node* literal) {
  TemplateParts parts;
  EXPECT_EQ(literal->kind, NodeKind::kTemplateLiteral);
  for (const Node* kid : literal->kids) {
    if (kid->kind == NodeKind::kTemplateElement) {
      parts.quasis.emplace_back(kid->str_value);
    } else {
      parts.expressions.push_back(kid);
    }
  }
  return parts;
}

std::string interp_one(std::string_view source) {
  const auto result = interp::run_program_source(source);
  EXPECT_TRUE(result.ok) << result.error;
  return result.log.empty() ? std::string() : result.log.back();
}

// --- ASI hazards ----------------------------------------------------------

TEST(Regression, AsiDoesNotSplitCallAcrossLines) {
  // `a\n(b)` is one call expression, not two statements.
  const auto sequence = kinds("use\n(42);");
  std::size_t calls = 0;
  for (NodeKind kind : sequence) {
    if (kind == NodeKind::kCallExpression) ++calls;
  }
  EXPECT_EQ(calls, 1u);
}

TEST(Regression, AsiAfterReturnOnNewline) {
  const ParseResult result =
      parse_program("function f() { return\n{ a: 1 }; }");
  const Node* ret = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kReturnStatement)[0];
  EXPECT_EQ(ret->kid(0), nullptr);
}

TEST(Regression, PostfixUpdateNotAppliedAcrossNewline) {
  // `a\n++b` is two statements per ASI (++ cannot attach to `a`).
  const ParseResult result = parse_program("a\n++b;");
  const auto updates = collect_kind(
      static_cast<const Node*>(result.ast.root()), NodeKind::kUpdateExpression);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0]->flag_a);  // prefix on b
}

// --- printer hazards --------------------------------------------------------

TEST(Regression, NegativeLiteralMemberAccess) {
  expect_stable("x = (1).toString();");
  expect_stable("x = (1.5).toFixed(1);");
}

TEST(Regression, NestedUnaryMinusNeverFuses) {
  const std::string out = to_minified_source(
      parse_program("x = -(-(-y));").ast.root());
  EXPECT_EQ(out.find("--"), std::string::npos) << out;
}

TEST(Regression, InAndInstanceofAreRelationalOperators) {
  // `in` and `instanceof` share the relational tier with < > <= >= (left-
  // associative among themselves, tighter than equality): each source
  // must parse to the same ESTree as its explicitly parenthesized form.
  const auto estree = [](std::string_view source) {
    return ast_to_json(parse_program(source).ast.root());
  };
  EXPECT_EQ(estree("a in b < c;"), estree("(a in b) < c;"));
  EXPECT_EQ(estree("a == b in c;"), estree("a == (b in c);"));
  EXPECT_EQ(estree("a < b instanceof C;"), estree("(a < b) instanceof C;"));
  EXPECT_EQ(estree("a instanceof B == c;"),
            estree("(a instanceof B) == c;"));
  EXPECT_NE(estree("a in b < c;"), estree("a in (b < c);"));
  EXPECT_NE(estree("a == b in c;"), estree("(a == b) in c;"));
}

TEST(Regression, InOperatorInsideForInit) {
  // `in` must not leak ASI-style into for-in detection when parenthesized.
  expect_stable("for (var found = ('k' in map); found; found = false) { f(); }");
}

TEST(Regression, ArrowReturningObjectLiteral) {
  expect_stable("var f = () => ({ a: 1 });");
  EXPECT_EQ(interp_one("var f = () => ({ a: 1 }); console.log(f().a);"), "1");
}

TEST(Regression, SequenceInsideConditional) {
  expect_stable("x = a ? (b, c) : d;");
}

TEST(Regression, NewPrecedence) {
  expect_stable("x = new Foo().bar;");
  expect_stable("x = new ns.Klass(1).method(2);");
}

TEST(Regression, KeywordsAsPropertyNames) {
  expect_stable("o.return = 1; o.typeof = 2; x = o.in;");
  expect_stable("var o = { new: 1, delete: 2, default: 3 };");
}

TEST(Regression, StringWithBothQuoteKinds) {
  expect_stable(R"(var s = "it's \"quoted\"";)");
  EXPECT_EQ(interp_one(R"(console.log("it's ok");)"), "it's ok");
}

TEST(Regression, TemplateWithBackslashes) {
  expect_stable(R"(var s = `a\n${x}\t`; )");
}

TEST(Regression, NestedTemplateWithArrowBody) {
  // The '{' of the arrow body must balance its '}' inside the innermost
  // substitution, not close it.
  const ParseResult result =
      parse_program("let t = `a${`b${`c${() => {}}`}`}`;");
  using Strings = std::vector<std::string>;
  const TemplateParts outer = template_parts(
      collect_kind(result.ast.root(), NodeKind::kTemplateLiteral)[0]);
  EXPECT_EQ(outer.quasis, (Strings{"a", ""}));
  ASSERT_EQ(outer.expressions.size(), 1u);
  const TemplateParts middle = template_parts(outer.expressions[0]);
  EXPECT_EQ(middle.quasis, (Strings{"b", ""}));
  ASSERT_EQ(middle.expressions.size(), 1u);
  const TemplateParts inner = template_parts(middle.expressions[0]);
  EXPECT_EQ(inner.quasis, (Strings{"c", ""}));
  ASSERT_EQ(inner.expressions.size(), 1u);
  EXPECT_EQ(inner.expressions[0]->kind, NodeKind::kArrowFunctionExpression);
}

TEST(Regression, NestedTemplateWithBraceInQuasi) {
  // A '}' in the text of a nested template closes nothing.
  const ParseResult result = parse_program("let t = `a${`b${`}`}`}`;");
  using Strings = std::vector<std::string>;
  const TemplateParts outer = template_parts(
      collect_kind(result.ast.root(), NodeKind::kTemplateLiteral)[0]);
  EXPECT_EQ(outer.quasis, (Strings{"a", ""}));
  ASSERT_EQ(outer.expressions.size(), 1u);
  const TemplateParts middle = template_parts(outer.expressions[0]);
  EXPECT_EQ(middle.quasis, (Strings{"b", ""}));
  ASSERT_EQ(middle.expressions.size(), 1u);
  const TemplateParts inner = template_parts(middle.expressions[0]);
  EXPECT_EQ(inner.quasis, (Strings{"}"}));
  EXPECT_TRUE(inner.expressions.empty());
}

TEST(Regression, TemplateSubstitutionNodesHaveSourceLines) {
  // A substitution is parsed in place, not as a sub-source starting at
  // line 1: `a` is on line 5.
  const ParseResult result = parse_program("x;\ny;\n`${\n\na}`;");
  const std::vector<Node*> names =
      collect_kind(result.ast.root(), NodeKind::kIdentifier);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[2]->str_value, "a");
  EXPECT_EQ(names[2]->line, 5u);
}

TEST(Regression, RegexLiteralsInTemplateSubstitutions) {
  // The lexer decides '/' in a substitution as it does anywhere else, so
  // a '}' or a quote inside a regex closes nothing.
  for (const char* source :
       {"var t = `${ /}/.test(s) }`;", "var t = `${ /'/.test(s) }`;"}) {
    std::size_t regexes = 0;
    const ParseResult result = parse_program(source);
    for_each_preorder(result.ast.root(), [&regexes](const Node& node) {
      if (node.kind == NodeKind::kLiteral &&
          node.lit_kind == LiteralKind::kRegExp) {
        ++regexes;
      }
    });
    EXPECT_EQ(regexes, 1u) << source;
  }
}

TEST(Regression, CommentsInTemplateSubstitutionsAreCounted) {
  // Comments in a substitution are lexed by the same scanner as any
  // other, so they count as Esprima counts them.
  EXPECT_EQ(parse_program("var t = `${ /* c */ 1 }`; // d").comment_count, 2u);
}

TEST(Regression, YieldAndAwaitEndingATemplateSubstitution) {
  // A middle or tail closes the substitution: `yield` takes no argument
  // there, and an `await` before it is a plain identifier.
  EXPECT_TRUE(parses("function* g() { return `${yield}-${yield}`; }"));
  EXPECT_TRUE(parses("var t = `${await}`;"));
}

TEST(Regression, RegexThenDivision) {
  expect_stable("var r = /ab/g; var q = a / b / c;");
}

TEST(Regression, ElseIfChainsStayFlat) {
  const std::string source =
      "if (a) f(); else if (b) g(); else if (c) h(); else k();";
  expect_stable(source);
  // Pretty printing must not deepen nesting into blocks each round.
  const std::string once = to_source(parse_program(source).ast.root());
  const std::string twice = to_source(parse_program(once).ast.root());
  EXPECT_EQ(once, twice);
}

// --- minifier semantics -------------------------------------------------------

TEST(Regression, MinifyPreservesIifeThis) {
  const char* source = R"JS(
    var counter = { n: 41, bump: function () { this.n += 1; return this.n; } };
    console.log(counter.bump());
  )JS";
  const std::string before = interp_one(source);
  transform::MinifyOptions options;
  options.advanced = true;
  EXPECT_EQ(before, interp_one(transform::minify(source, options)));
}

TEST(Regression, MinifyKeepsHoistedFunctionsReachable) {
  const char* source = R"JS(
    function f() { return g(); }
    console.log(f());
    function g() { return "late"; }
  )JS";
  const std::string compact = transform::minify(source);
  EXPECT_EQ(interp_one(source), interp_one(compact));
}

TEST(Regression, AdvancedMinifyDoesNotFoldDivisionByZero) {
  transform::MinifyOptions options;
  options.advanced = true;
  options.rename_locals = false;
  const std::string out = transform::minify("var x = 1 / 0;", options);
  EXPECT_NE(out.find("1/0"), std::string::npos) << out;
}

TEST(Regression, AdvancedMinifyBooleanInCondition) {
  transform::MinifyOptions options;
  options.advanced = true;
  options.rename_locals = false;
  const std::string out =
      transform::minify("while (x === true) { step(); }", options);
  EXPECT_TRUE(parses(out));
  EXPECT_NE(out.find("!0"), std::string::npos);
}

TEST(Regression, MinifyShorthandObjectAfterRename) {
  const char* source = R"JS(
    var port = 8080;
    var config = { port };
    console.log(config.port);
  )JS";
  EXPECT_EQ(interp_one(source), interp_one(transform::minify(source)));
}

TEST(Regression, FlattenWithTryCatchInside) {
  const char* source = R"JS(
    var out = [];
    out.push("a");
    try { out.push("b"); throw "x"; } catch (e) { out.push("c" + e); }
    out.push("d");
    console.log(out.join(""));
  )JS";
  Rng rng(9);
  const std::string flattened = transform::flatten_control_flow(source, rng);
  EXPECT_EQ(interp_one(source), interp_one(flattened)) << flattened;
}

TEST(Regression, GlobalArrayHandlesDuplicateStrings) {
  const char* source = R"JS(
    console.log(["x", "x", "y", "x"].join("-"));
  )JS";
  Rng rng(10);
  const std::string transformed =
      transform::global_array_transform(source, rng);
  EXPECT_EQ(interp_one(source), interp_one(transformed)) << transformed;
}

TEST(Regression, StringObfuscationEmptyAndUnicode) {
  Rng rng(11);
  const std::string source =
      R"JS(console.log("" + "é" + "end");)JS";
  const std::string out = transform::obfuscate_strings(source, rng);
  EXPECT_TRUE(parses(out));
}

TEST(Regression, RenameDoesNotCaptureAcrossScopes) {
  // Two separate `value` bindings renamed consistently but never merged
  // with the global `shared`.
  const char* source = R"JS(
    var shared = "S";
    function a() { var value = 1; return value + shared; }
    function b() { var value = 2; return value + shared; }
    console.log(a() + "|" + b());
  )JS";
  Rng rng(12);
  const std::string out = transform::obfuscate_identifiers(source, rng);
  EXPECT_EQ(interp_one(source), interp_one(out)) << out;
}

TEST(Regression, DeadCodeInsideSwitchBody) {
  const char* source = R"JS(
    var mode = "b";
    switch (mode) {
      case "a": console.log(1); break;
      case "b": console.log(2); break;
      default: console.log(3);
    }
  )JS";
  Rng rng(13);
  transform::DeadCodeOptions options;
  options.injection_rate = 0.9;
  const std::string out = transform::inject_dead_code(source, rng, options);
  EXPECT_EQ(interp_one(source), interp_one(out)) << out;
}

TEST(Regression, PackerOnSourceWithSingleQuotes) {
  Rng rng(14);
  const std::string out =
      transform::pack(R"(var s = 'single \' quoted'; use(s);)", rng);
  EXPECT_TRUE(parses(out)) << out;
}

TEST(Regression, JsFuckDigitsAndPunctuation) {
  const std::string out = transform::no_alnum_transform("f(0, 9, '.');");
  EXPECT_TRUE(parses(out));
  for (char c : out) {
    ASSERT_TRUE(c == '[' || c == ']' || c == '(' || c == ')' || c == '!' ||
                c == '+');
  }
}

TEST(Regression, CfgOnEmptyFunctionBodies) {
  ParseResult parsed = parse_program("function a() {} function b() {} a();");
  const ControlFlow flow = build_control_flow(parsed.ast);
  // Sequencing edges exist, nothing crashes on empty bodies.
  EXPECT_GE(flow.edge_count(), 2u);
}

TEST(Regression, DataflowCatchShadowing) {
  ParseResult parsed = parse_program(
      "var e = 'outer'; try { f(); } catch (e) { log(e); } use(e);");
  const DataFlow flow = build_data_flow(parsed.ast);
  std::size_t outer_uses = 0;
  std::size_t catch_uses = 0;
  for (const Binding& binding : flow.bindings) {
    if (binding.name != "e") continue;
    if (binding.is_parameter || binding.declaration->line == 1) {
      // distinguish by uses
    }
    if (binding.uses.size() == 1) ++catch_uses;
    if (binding.uses.size() == 1) ++outer_uses;
  }
  // Two distinct bindings named e, one use each.
  std::size_t bindings_named_e = 0;
  for (const Binding& binding : flow.bindings) {
    if (binding.name == "e") ++bindings_named_e;
  }
  EXPECT_EQ(bindings_named_e, 2u);
}

}  // namespace
}  // namespace jst
