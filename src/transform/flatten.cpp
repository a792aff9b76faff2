// Control-flow flattening (obfuscator.io / László & Kiss [23]): each
// eligible statement list is rewritten into a dispatcher —
//
//   var _0xorder = "3|0|2|1"["split"]("|"), _0xstep = 0;
//   while (true) {
//     switch (_0xorder[_0xstep++]) {
//       case "0": <stmt>; continue;
//       ...
//     }
//     break;
//   }
//
// The transformer also hex-renames its own state variables, matching the
// tools' combined behaviour (a flattened file also carries identifier-
// obfuscation and minification traces — up to three labels per §III-E1).
#include <algorithm>
#include <string>
#include <unordered_set>

#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "transform/rename.h"
#include "transform/transform.h"

namespace jst::transform {
namespace {

// Statements that must not be moved into switch cases.
bool safe_to_flatten(const Node& statement) {
  switch (statement.kind) {
    case NodeKind::kFunctionDeclaration:  // hoisting would break
    case NodeKind::kClassDeclaration:
    case NodeKind::kBreakStatement:       // would re-bind to our switch
    case NodeKind::kContinueStatement:    // would re-bind to our loop
      return false;
    case NodeKind::kVariableDeclaration:
      // let/const are block-scoped; moving them into cases breaks uses.
      return statement.str_value == "var";
    default:
      return true;
  }
}

// Direct break/continue in the statement subtree that would change target
// when wrapped in our while/switch (i.e., not already inside a nested
// loop/switch within the statement).
bool contains_rebinding_jump(const Node& node, bool inside_protector) {
  if (node.kind == NodeKind::kBreakStatement ||
      node.kind == NodeKind::kContinueStatement) {
    // Labeled jumps keep their target; unlabeled ones re-bind.
    return node.kid(0) == nullptr && !inside_protector;
  }
  const bool protects_break =
      node.is_loop() || node.kind == NodeKind::kSwitchStatement;
  for (const Node* kid : node.kids) {
    if (kid == nullptr || kid->is_function()) continue;
    if (contains_rebinding_jump(*kid, inside_protector || protects_break)) {
      return true;
    }
  }
  return false;
}

void flatten_list(Ast& ast, Node* container, Rng& rng,
                  const FlattenOptions& options) {
  const NodeList& statements = container->kids;
  // Partition: leading hoisted declarations stay, the longest safe run is
  // flattened.
  std::vector<Node*> head;
  std::vector<Node*> run;
  std::vector<Node*> tail;
  bool in_run = false;
  bool run_done = false;
  for (Node* statement : statements) {
    const bool safe = statement != nullptr && safe_to_flatten(*statement) &&
                      !contains_rebinding_jump(*statement, false);
    if (!run_done && safe) {
      in_run = true;
      run.push_back(statement);
    } else if (in_run) {
      run_done = true;
      tail.push_back(statement);
    } else {
      head.push_back(statement);
    }
  }
  if (run.size() < options.min_statements) return;

  // Shuffled dispatch: the order string lists case ids in execution order;
  // the cases themselves are emitted shuffled.
  std::vector<std::size_t> case_of_statement(run.size());
  std::vector<std::size_t> shuffled(run.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) shuffled[i] = i;
  rng.shuffle(shuffled);
  for (std::size_t i = 0; i < run.size(); ++i) {
    case_of_statement[shuffled[i]] = i;  // statement shuffled[i] gets case i
  }

  std::string order_string;
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (i > 0) order_string += "|";
    order_string += std::to_string(case_of_statement[i]);
  }

  const std::string order_name = hex_name(rng);
  const std::string step_name = hex_name(rng);

  // var _0xorder = "...".split("|"), _0xstep = 0;
  Node* split_member = ast.make(NodeKind::kMemberExpression);
  ast.set_kids(split_member, {ast.make_string(order_string),
                              ast.make_identifier("split")});
  Node* split_call = ast.make(NodeKind::kCallExpression);
  ast.set_kids(split_call, {split_member, ast.make_string("|")});
  Node* order_declarator = ast.make(NodeKind::kVariableDeclarator);
  ast.set_kids(order_declarator, {ast.make_identifier(order_name), split_call});
  Node* step_declarator = ast.make(NodeKind::kVariableDeclarator);
  ast.set_kids(step_declarator, {ast.make_identifier(step_name),
                                 ast.make_number(0.0)});
  Node* declaration = ast.make(NodeKind::kVariableDeclaration);
  declaration->str_value = "var";
  ast.set_kids(declaration, {order_declarator, step_declarator});

  // switch (_0xorder[_0xstep++]) { case "i": stmt; continue; }
  Node* step_update = ast.make(NodeKind::kUpdateExpression);
  step_update->str_value = "++";
  step_update->flag_a = false;  // postfix
  ast.set_kids(step_update, {ast.make_identifier(step_name)});
  Node* discriminant = ast.make(NodeKind::kMemberExpression);
  discriminant->flag_a = true;
  ast.set_kids(discriminant, {ast.make_identifier(order_name), step_update});
  Node* switch_statement = ast.make(NodeKind::kSwitchStatement);
  ast.set_kids(switch_statement, {discriminant});
  for (std::size_t case_id = 0; case_id < run.size(); ++case_id) {
    Node* switch_case = ast.make(NodeKind::kSwitchCase);
    Node* continue_statement = ast.make(NodeKind::kContinueStatement);
    ast.set_kids(continue_statement, {nullptr});
    ast.set_kids(switch_case, {ast.make_string(std::to_string(case_id)),
                               run[shuffled[case_id]], continue_statement});
    ast.push_kid(switch_statement, switch_case);
  }

  // while (true) { switch ...; break; }
  Node* break_statement = ast.make(NodeKind::kBreakStatement);
  ast.set_kids(break_statement, {nullptr});
  Node* loop_body = ast.make(NodeKind::kBlockStatement);
  ast.set_kids(loop_body, {switch_statement, break_statement});
  Node* loop = ast.make(NodeKind::kWhileStatement);
  ast.set_kids(loop, {ast.make_bool(true), loop_body});

  ast.assign_kids(container, head.begin(), head.end());
  ast.push_kid(container, declaration);
  ast.push_kid(container, loop);
  ast.insert_kids(container, container->kids.size(), tail.begin(), tail.end());
}

}  // namespace

std::string flatten_control_flow(std::string_view source, Rng& rng,
                                 const FlattenOptions& options) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();

  // Flatten the program body and every function body.
  flatten_list(ast, ast.root(), rng, options);
  walk_preorder(ast.root(), [&](Node& node) {
    if (!node.is_function()) return;
    Node* body = node.kind == NodeKind::kArrowFunctionExpression
                     ? node.kid(0)
                     : node.kid(1);
    if (body != nullptr && body->kind == NodeKind::kBlockStatement) {
      flatten_list(ast, body, rng, options);
    }
  });
  ast.finalize();

  // The tools that flatten also rename identifiers and compact their
  // output (three ground-truth labels per §III-E1).
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
