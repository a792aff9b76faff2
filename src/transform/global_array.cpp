// Global array transformation (obfuscator.io's "string array"): every
// string literal moves into one global array; uses become indexed fetches,
// optionally through an accessor function, with a rotation offset.
#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "support/strings.h"
#include "transform/rename.h"
#include "transform/transform.h"

namespace jst::transform {
namespace {

bool rewritable_position(const Node& literal) {
  const Node* parent = literal.parent;
  if (parent == nullptr) return false;
  switch (parent->kind) {
    case NodeKind::kProperty:
    case NodeKind::kMethodDefinition:
      return parent->kid(0) != &literal || parent->flag_a;
    default:
      return true;
  }
}

}  // namespace

std::string global_array_transform(std::string_view source, Rng& rng,
                                   const GlobalArrayOptions& options) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();

  std::vector<Node*> strings_found;
  walk_preorder(ast.root(), [&](Node& node) {
    if (node.kind == NodeKind::kLiteral &&
        node.lit_kind == LiteralKind::kString && rewritable_position(node)) {
      strings_found.push_back(&node);
    }
  });
  if (strings_found.size() < options.min_strings) {
    return to_source(ast.root());
  }

  // Deduplicate values into the table.
  std::vector<std::string> table;
  std::vector<std::size_t> literal_index(strings_found.size());
  for (std::size_t i = 0; i < strings_found.size(); ++i) {
    const std::string_view value = strings_found[i]->str_value;
    std::size_t index = table.size();
    for (std::size_t j = 0; j < table.size(); ++j) {
      if (table[j] == value) {
        index = j;
        break;
      }
    }
    if (index == table.size()) table.emplace_back(value);
    literal_index[i] = index;
  }
  rng.shuffle(table);
  // Recompute indices after the shuffle.
  for (std::size_t i = 0; i < strings_found.size(); ++i) {
    for (std::size_t j = 0; j < table.size(); ++j) {
      if (table[j] == strings_found[i]->str_value) {
        literal_index[i] = j;
        break;
      }
    }
  }

  const std::string array_name = hex_name(rng);
  const std::string accessor_name = hex_name(rng);
  const long long offset = static_cast<long long>(rng.uniform_int(0x40, 0x1ff));

  // Replace literals with accessor calls: _0xacc(index + offset) — the
  // decoder subtracts the offset (hex literal, obfuscator.io style).
  for (std::size_t i = 0; i < strings_found.size(); ++i) {
    Node* literal = strings_found[i];
    Node* call = ast.make(NodeKind::kCallExpression);
    Node* index_literal = ast.make_number(
        static_cast<double>(static_cast<long long>(literal_index[i]) + offset));
    index_literal->str_value = ast.intern(
        "0x" + strings::to_base_n(
                   static_cast<std::uint64_t>(
                       static_cast<long long>(literal_index[i]) + offset),
                   16));
    ast.set_kids(call, {ast.make_identifier(accessor_name), index_literal});
    Node* parent = literal->parent;
    for (Node*& kid : parent->kids) {
      if (kid == literal) kid = call;
    }
  }

  // Build the prologue:
  //   var _0xarr = ["...", ...];
  //   function _0xacc(i) { return _0xarr[i - OFFSET]; }
  Node* array = ast.make(NodeKind::kArrayExpression);
  for (const std::string& value : table) {
    Node* entry = ast.make_string(value);
    entry->flag_a = true;  // \xHH encoding
    ast.push_kid(array, entry);
  }
  Node* declarator = ast.make(NodeKind::kVariableDeclarator);
  ast.set_kids(declarator, {ast.make_identifier(array_name), array});
  Node* declaration = ast.make(NodeKind::kVariableDeclaration);
  declaration->str_value = "var";
  ast.set_kids(declaration, {declarator});

  Node* param = ast.make_identifier("i");
  Node* index_expr = ast.make(NodeKind::kBinaryExpression);
  index_expr->str_value = "-";
  Node* offset_literal = ast.make_number(static_cast<double>(offset));
  offset_literal->str_value = ast.intern(
      "0x" + strings::to_base_n(static_cast<std::uint64_t>(offset), 16));
  ast.set_kids(index_expr, {ast.make_identifier("i"), offset_literal});
  Node* member = ast.make(NodeKind::kMemberExpression);
  member->flag_a = true;
  ast.set_kids(member, {ast.make_identifier(array_name), index_expr});
  Node* return_statement = ast.make(NodeKind::kReturnStatement);
  ast.set_kids(return_statement, {member});
  Node* body = ast.make(NodeKind::kBlockStatement);
  ast.set_kids(body, {return_statement});
  Node* accessor = ast.make(NodeKind::kFunctionDeclaration);
  ast.set_kids(accessor, {ast.make_identifier(accessor_name), body, param});

  Node* root = ast.root();
  Node* const prologue[] = {declaration, accessor};
  ast.insert_kids(root, 0, std::begin(prologue), std::end(prologue));
  ast.finalize();
  // String-array tools (obfuscator.io) always emit compact output, so a
  // global-array sample also carries a minification trace.
  CodegenOptions codegen_options;
  codegen_options.minify = true;
  codegen_options.minified_line_limit = 800;
  return generate(root, codegen_options);
}

}  // namespace jst::transform
