// Minification.
//
// Simple (javascript-minifier.com tier): whitespace/comment removal (the
// printer's minified mode), local-variable shortening, empty-statement and
// trivially-unreachable-code removal.
//
// Advanced (Google Closure tier): simple + constant folding, boolean
// literal shortening (!0/!1), void 0 for undefined, if-to-ternary and
// if-to-&& rewrites, constant-branch elimination, and consecutive var
// declaration merging.
#include <cmath>
#include <unordered_set>

#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "transform/rename.h"
#include "transform/transform.h"

namespace jst::transform {
namespace {

bool is_number_literal(const Node* node) {
  return node != nullptr && node->kind == NodeKind::kLiteral &&
         node->lit_kind == LiteralKind::kNumber;
}

bool is_string_literal(const Node* node) {
  return node != nullptr && node->kind == NodeKind::kLiteral &&
         node->lit_kind == LiteralKind::kString;
}

bool is_bool_literal(const Node* node) {
  return node != nullptr && node->kind == NodeKind::kLiteral &&
         node->lit_kind == LiteralKind::kBoolean;
}

// Replaces `node` in-place with the content of `replacement`.
void replace_node(Node& node, const Node& replacement) {
  node.kind = replacement.kind;
  node.kids = replacement.kids;
  node.str_value = replacement.str_value;
  node.atom = replacement.atom;
  node.num_value = replacement.num_value;
  node.lit_kind = replacement.lit_kind;
  node.flag_a = replacement.flag_a;
  node.flag_b = replacement.flag_b;
  node.flag_c = replacement.flag_c;
}

// Post-order constant folding; returns true if anything changed.
bool fold_constants(Ast& ast, Node* root) {
  bool changed = false;
  walk_postorder(root, [&ast, &changed](Node& node) {
    if (node.kind == NodeKind::kBinaryExpression) {
      Node* left = node.kid(0);
      Node* right = node.kid(1);
      if (is_number_literal(left) && is_number_literal(right)) {
        const double a = left->num_value;
        const double b = right->num_value;
        double result = 0.0;
        bool ok = true;
        const std::string_view op = node.str_value;
        if (op == "+") result = a + b;
        else if (op == "-") result = a - b;
        else if (op == "*") result = a * b;
        else if (op == "/" && b != 0.0) result = a / b;
        else if (op == "%" && b != 0.0) result = std::fmod(a, b);
        else ok = false;
        if (ok && std::isfinite(result)) {
          Node* literal = ast.make_number(result);
          replace_node(node, *literal);
          changed = true;
        }
      } else if (is_string_literal(left) && is_string_literal(right) &&
                 node.str_value == "+") {
        Node* literal = ast.make_string(std::string(left->str_value) +
                                        std::string(right->str_value));
        replace_node(node, *literal);
        changed = true;
      }
    } else if (node.kind == NodeKind::kUnaryExpression) {
      Node* argument = node.kid(0);
      if (node.str_value == "!" && is_bool_literal(argument)) {
        Node* literal = ast.make_bool(argument->num_value == 0.0);
        replace_node(node, *literal);
        changed = true;
      } else if (node.str_value == "-" && is_number_literal(argument) &&
                 argument->num_value == 0.0) {
        Node* literal = ast.make_number(0.0);
        replace_node(node, *literal);
        changed = true;
      }
    }
  });
  return changed;
}

// true -> !0, false -> !1 (expression positions only).
void shorten_booleans(Ast& ast, Node* root) {
  walk_preorder(root, [&ast](Node& node) {
    if (node.kind != NodeKind::kLiteral ||
        node.lit_kind != LiteralKind::kBoolean) {
      return;
    }
    const Node* parent = node.parent;
    if (parent != nullptr &&
        (parent->kind == NodeKind::kProperty ||
         parent->kind == NodeKind::kMethodDefinition) &&
        parent->kid(0) == &node && !parent->flag_a) {
      return;  // literal key position
    }
    Node* zero_or_one = ast.make_number(node.num_value != 0.0 ? 0.0 : 1.0);
    // Arena-allocated (not a stack Node): the kid list needs the arena.
    Node* bang = ast.make(NodeKind::kUnaryExpression);
    bang->str_value = "!";
    bang->flag_a = true;
    ast.set_kids(bang, {zero_or_one});
    replace_node(node, *bang);
  });
}

// Structural simplifications on statement lists.
void simplify_statements(Ast& ast, Node* root) {
  walk_preorder(root, [&ast](Node& node) {
    // if (a) x(); else y();  ->  a ? x() : y();
    // if (a) x();            ->  a && x();
    if (node.kind == NodeKind::kIfStatement) {
      Node* test = node.kid(0);
      Node* consequent = node.kid(1);
      Node* alternate = node.kid(2);
      const auto single_expression = [](Node* statement) -> Node* {
        if (statement == nullptr) return nullptr;
        if (statement->kind == NodeKind::kExpressionStatement) {
          return statement->kid(0);
        }
        if (statement->kind == NodeKind::kBlockStatement &&
            statement->kids.size() == 1 &&
            statement->kids[0]->kind == NodeKind::kExpressionStatement) {
          return statement->kids[0]->kid(0);
        }
        return nullptr;
      };
      Node* consequent_expression = single_expression(consequent);
      if (consequent_expression == nullptr) return;
      if (alternate != nullptr) {
        Node* alternate_expression = single_expression(alternate);
        if (alternate_expression == nullptr) return;
        Node* ternary = ast.make(NodeKind::kConditionalExpression);
        ast.set_kids(ternary,
                     {test, consequent_expression, alternate_expression});
        Node* statement = ast.make(NodeKind::kExpressionStatement);
        ast.set_kids(statement, {ternary});
        replace_node(node, *statement);
      } else {
        Node* logical = ast.make(NodeKind::kLogicalExpression);
        logical->str_value = "&&";
        ast.set_kids(logical, {test, consequent_expression});
        Node* statement = ast.make(NodeKind::kExpressionStatement);
        ast.set_kids(statement, {logical});
        replace_node(node, *statement);
      }
    }
  });
}

// Removes empty statements and code after return/throw/break/continue in
// every block; eliminates if(true)/if(false) constant branches; merges
// consecutive `var` declarations.
void clean_statement_lists(Ast& ast, Node* root, bool merge_vars) {
  walk_preorder(root, [&ast, merge_vars](Node& node) {
    if (node.kind != NodeKind::kProgram &&
        node.kind != NodeKind::kBlockStatement) {
      return;
    }
    std::vector<Node*> rebuilt;
    rebuilt.reserve(node.kids.size());
    bool dead = false;
    for (Node* statement : node.kids) {
      if (statement == nullptr) continue;
      if (dead && statement->kind != NodeKind::kFunctionDeclaration &&
          !(statement->kind == NodeKind::kVariableDeclaration &&
            statement->str_value == "var")) {
        continue;  // unreachable (keep hoisted declarations)
      }
      if (statement->kind == NodeKind::kEmptyStatement) continue;
      // if (false) {...} -> drop (keeping else); if (true) -> keep branch.
      if (statement->kind == NodeKind::kIfStatement &&
          is_bool_literal(statement->kid(0))) {
        Node* branch = statement->kids[0]->num_value != 0.0
                           ? statement->kid(1)
                           : statement->kid(2);
        if (branch == nullptr) continue;
        statement = branch;
      }
      if (merge_vars && !rebuilt.empty() &&
          statement->kind == NodeKind::kVariableDeclaration &&
          rebuilt.back()->kind == NodeKind::kVariableDeclaration &&
          rebuilt.back()->str_value == statement->str_value) {
        Node* merged = rebuilt.back();
        ast.insert_kids(merged, merged->kids.size(), statement->kids.begin(),
                        statement->kids.end());
        continue;
      }
      rebuilt.push_back(statement);
      switch (statement->kind) {
        case NodeKind::kReturnStatement:
        case NodeKind::kThrowStatement:
        case NodeKind::kBreakStatement:
        case NodeKind::kContinueStatement:
          dead = true;
          break;
        default:
          break;
      }
    }
    ast.assign_kids(&node, rebuilt.begin(), rebuilt.end());
  });
}

}  // namespace

std::string minify(std::string_view source, const MinifyOptions& options) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();

  if (options.advanced) {
    // Iterate folding to a fixed point (bounded).
    for (int i = 0; i < 4 && fold_constants(ast, ast.root()); ++i) {
    }
    // Eliminate constant branches before the if->ternary rewrite would
    // turn them into live expressions.
    clean_statement_lists(ast, ast.root(), /*merge_vars=*/false);
    simplify_statements(ast, ast.root());
    ast.finalize();
    clean_statement_lists(ast, ast.root(), /*merge_vars=*/true);
    shorten_booleans(ast, ast.root());
  } else {
    clean_statement_lists(ast, ast.root(), /*merge_vars=*/false);
  }
  ast.finalize();

  if (options.rename_locals) {
    rename_bindings(ast, [](std::size_t ordinal, const std::string&) {
      return short_name(ordinal);
    });
  }

  CodegenOptions codegen_options;
  codegen_options.minify = true;
  codegen_options.minified_line_limit = options.line_limit;
  return generate(ast.root(), codegen_options);
}

}  // namespace jst::transform
