// Dead-code injection: semantically irrelevant statements scattered into
// statement lists — unused variables with plausible expressions, never-
// taken branches wrapping cloned statements, and uncalled helper functions
// (obfuscator.io's `deadCodeInjection`).
#include <unordered_set>

#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "transform/rename.h"
#include "transform/transform.h"

namespace jst::transform {
namespace {

Node* make_bogus_expression(Ast& ast, Rng& rng) {
  switch (rng.index(4)) {
    case 0: {  // arithmetic on random numbers
      Node* op = ast.make(NodeKind::kBinaryExpression);
      op->str_value = rng.bernoulli(0.5) ? "*" : "+";
      ast.set_kids(
          op, {ast.make_number(static_cast<double>(rng.uniform_int(1, 9999))),
               ast.make_number(static_cast<double>(rng.uniform_int(1, 999)))});
      return op;
    }
    case 1: {  // string concat
      Node* op = ast.make(NodeKind::kBinaryExpression);
      op->str_value = "+";
      ast.set_kids(op, {ast.make_string(rng.hex_string(6)),
                        ast.make_string(rng.hex_string(4))});
      return op;
    }
    case 2: {  // comparison
      Node* op = ast.make(NodeKind::kBinaryExpression);
      op->str_value = rng.bernoulli(0.5) ? "<" : "===";
      ast.set_kids(
          op, {ast.make_number(static_cast<double>(rng.uniform_int(0, 100))),
               ast.make_number(static_cast<double>(rng.uniform_int(0, 100)))});
      return op;
    }
    default: {  // ternary over booleans
      Node* conditional = ast.make(NodeKind::kConditionalExpression);
      ast.set_kids(conditional, {ast.make_bool(rng.bernoulli(0.5)),
                                 ast.make_number(1.0), ast.make_number(0.0)});
      return conditional;
    }
  }
}

Node* make_dead_statement(Ast& ast, Rng& rng, const std::vector<Node*>& pool) {
  switch (rng.index(3)) {
    case 0: {  // var _0x = <expr>;
      Node* declarator = ast.make(NodeKind::kVariableDeclarator);
      ast.set_kids(declarator, {ast.make_identifier(hex_name(rng)),
                                make_bogus_expression(ast, rng)});
      Node* declaration = ast.make(NodeKind::kVariableDeclaration);
      declaration->str_value = "var";
      ast.set_kids(declaration, {declarator});
      return declaration;
    }
    case 1: {  // if (false) { <cloned or bogus statements> }
      Node* body = ast.make(NodeKind::kBlockStatement);
      if (!pool.empty() && rng.bernoulli(0.6)) {
        ast.push_kid(body, ast.clone(pool[rng.index(pool.size())]));
      } else {
        Node* statement = ast.make(NodeKind::kExpressionStatement);
        ast.set_kids(statement, {make_bogus_expression(ast, rng)});
        ast.push_kid(body, statement);
      }
      Node* branch = ast.make(NodeKind::kIfStatement);
      ast.set_kids(branch, {ast.make_bool(false), body, nullptr});
      return branch;
    }
    default: {  // function _0x() { return <expr>; }  (never called)
      Node* return_statement = ast.make(NodeKind::kReturnStatement);
      ast.set_kids(return_statement, {make_bogus_expression(ast, rng)});
      Node* body = ast.make(NodeKind::kBlockStatement);
      ast.set_kids(body, {return_statement});
      Node* function = ast.make(NodeKind::kFunctionDeclaration);
      ast.set_kids(function, {ast.make_identifier(hex_name(rng)), body});
      return function;
    }
  }
}

// Statements safe to clone into an if(false) arm: side-effect-free shapes.
bool safe_to_clone(const Node& statement) {
  return statement.kind == NodeKind::kExpressionStatement ||
         statement.kind == NodeKind::kVariableDeclaration;
}

}  // namespace

std::string inject_dead_code(std::string_view source, Rng& rng,
                             const DeadCodeOptions& options) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();

  // Clone pool from existing simple statements (mimics obfuscator.io's
  // dead-code blocks built from the input's own code).
  std::vector<Node*> pool;
  walk_preorder(ast.root(), [&pool](Node& node) {
    if (safe_to_clone(node)) pool.push_back(&node);
  });
  if (pool.size() > 64) pool.resize(64);

  // Collect insertion sites (blocks and the program).
  std::vector<Node*> containers;
  walk_preorder(ast.root(), [&containers](Node& node) {
    if (node.kind == NodeKind::kProgram ||
        node.kind == NodeKind::kBlockStatement) {
      containers.push_back(&node);
    }
  });

  std::size_t injected = 0;
  for (Node* container : containers) {
    std::vector<Node*> rebuilt;
    rebuilt.reserve(container->kids.size() + 4);
    for (Node* statement : container->kids) {
      if (injected < options.max_injections &&
          rng.bernoulli(options.injection_rate)) {
        rebuilt.push_back(make_dead_statement(ast, rng, pool));
        ++injected;
      }
      rebuilt.push_back(statement);
    }
    if (injected < options.max_injections &&
        rng.bernoulli(options.injection_rate)) {
      rebuilt.push_back(make_dead_statement(ast, rng, pool));
      ++injected;
    }
    ast.assign_kids(container, rebuilt.begin(), rebuilt.end());
  }
  ast.finalize();
  // Dead-code injectors (obfuscator.io) rename identifiers and compact
  // their output; the sample carries all three traces.
  std::unordered_set<std::string> used;
  rename_bindings(ast, [&rng, &used](std::size_t, const std::string&) {
    std::string name = hex_name(rng);
    while (!used.insert(name).second) name = hex_name(rng);
    return name;
  });
  CodegenOptions codegen_options;
  codegen_options.minify = true;
  codegen_options.minified_line_limit = 800;
  return generate(ast.root(), codegen_options);
}

}  // namespace jst::transform
