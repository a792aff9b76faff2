// String obfuscation (gnirts / custom-encoding style): string literals are
// split into concatenation chains, rewritten with hex escape sequences, or
// rebuilt through String.fromCharCode.
#include <string_view>
#include "ast/walk.h"
#include "codegen/codegen.h"
#include "parser/parser.h"
#include "transform/transform.h"

namespace jst::transform {
namespace {

// A split string becomes a chain of 2 to this many chunks.
constexpr std::size_t kMaxSplitChunks = 4;

// True when the literal may be rewritten into an arbitrary expression.
// Property keys, object-pattern keys, and method keys must stay literals.
bool rewritable_position(const Node& literal) {
  const Node* parent = literal.parent;
  if (parent == nullptr) return false;
  switch (parent->kind) {
    case NodeKind::kProperty:
    case NodeKind::kMethodDefinition:
      // key position = kids[0]; value position is fine (unless computed).
      return parent->kid(0) != &literal || parent->flag_a;
    default:
      return true;
  }
}

Node* make_concat_chain(Ast& ast, std::string_view value,
                        std::size_t chunk_count, Rng& rng) {
  // Split into chunk_count pieces at random cut points.
  std::vector<std::string_view> chunks;
  std::size_t start = 0;
  for (std::size_t i = 1; i < chunk_count && start < value.size(); ++i) {
    const std::size_t remaining = value.size() - start;
    const std::size_t take =
        1 + rng.index(std::max<std::size_t>(remaining / (chunk_count - i + 1),
                                            1));
    chunks.push_back(value.substr(start, take));
    start += take;
  }
  chunks.push_back(value.substr(start));

  Node* left = ast.make_string(chunks[0]);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    Node* plus = ast.make(NodeKind::kBinaryExpression);
    plus->str_value = "+";
    ast.set_kids(plus, {left, ast.make_string(chunks[i])});
    left = plus;
  }
  return left;
}

Node* make_from_char_code(Ast& ast, std::string_view value) {
  // String.fromCharCode(c0, c1, ...)
  Node* string_id = ast.make_identifier("String");
  Node* member = ast.make(NodeKind::kMemberExpression);
  ast.set_kids(member, {string_id, ast.make_identifier("fromCharCode")});
  Node* call = ast.make(NodeKind::kCallExpression);
  ast.set_kids(call, {member});
  for (unsigned char c : value) {
    ast.push_kid(call, ast.make_number(static_cast<double>(c)));
  }
  return call;
}

}  // namespace

std::string obfuscate_strings(std::string_view source, Rng& rng,
                              const StringObfuscationOptions& options) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();  // parents needed for position checks

  std::vector<Node*> strings_found;
  walk_preorder(ast.root(), [&strings_found](Node& node) {
    if (node.kind == NodeKind::kLiteral &&
        node.lit_kind == LiteralKind::kString && !node.str_value.empty()) {
      strings_found.push_back(&node);
    }
  });

  for (Node* literal : strings_found) {
    // One action per literal, chosen by the roll; if the chosen action is
    // not applicable at this position, the literal stays untouched.
    const double roll = rng.uniform();
    if (roll < options.char_code_probability) {
      if (!rewritable_position(*literal) || literal->str_value.size() > 48) {
        continue;
      }
      // Replace in the parent's child slot.
      Node* replacement = make_from_char_code(ast, literal->str_value);
      Node* parent = literal->parent;
      for (Node*& kid : parent->kids) {
        if (kid == literal) kid = replacement;
      }
    } else if (roll < options.char_code_probability +
                          options.split_probability) {
      if (!rewritable_position(*literal) || literal->str_value.size() < 4) {
        continue;
      }
      const std::size_t chunk_count =
          2 + rng.index(kMaxSplitChunks - 1);
      Node* replacement =
          make_concat_chain(ast, literal->str_value, chunk_count, rng);
      // Randomly hex-escape some chunks of the chain too.
      walk_preorder(replacement, [&rng](Node& node) {
        if (node.kind == NodeKind::kLiteral &&
            node.lit_kind == LiteralKind::kString && rng.bernoulli(0.5)) {
          node.flag_a = true;
        }
      });
      Node* parent = literal->parent;
      for (Node*& kid : parent->kids) {
        if (kid == literal) kid = replacement;
      }
    } else if (roll < options.char_code_probability +
                          options.split_probability +
                          options.hex_escape_probability) {
      literal->flag_a = true;  // force \xHH escapes at codegen
    }
  }
  ast.finalize();
  return to_source(ast.root());
}

}  // namespace jst::transform
