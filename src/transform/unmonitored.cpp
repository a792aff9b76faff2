// Unmonitored transformation techniques (§II-A / §II-C).
//
// The paper's level-2 detector names only ten techniques, but §II-C claims
// the level-1 detector "can still recognize techniques, which we do not
// monitor, as transformed ... e.g., obfuscated field reference". These two
// transformers exist to test that claim end-to-end:
//
//  - obfuscated field reference: every dot access a.b becomes a["b"]
//    (bracket notation hides the property name from naive scanners and
//    enables computed construction);
//  - integer obfuscation: numeric literals are rewritten as arithmetic
//    (n -> (a + b), (a * b + c), or hex-split sums).
#include <cmath>

#include "ast/walk.h"
#include "codegen/codegen.h"
#include "support/strings.h"
#include "parser/parser.h"
#include "transform/transform.h"

namespace jst::transform {

std::string obfuscate_field_references(std::string_view source, Rng& rng,
                                       double rewrite_probability) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();
  walk_preorder(ast.root(), [&](Node& node) {
    if (node.kind != NodeKind::kMemberExpression || node.flag_a) return;
    if (!rng.bernoulli(rewrite_probability)) return;
    Node* property = node.kid(1);
    if (property == nullptr || property->kind != NodeKind::kIdentifier) return;
    // a.b -> a["b"]
    Node* key = ast.make_string(property->str_value);
    node.flag_a = true;
    node.kids[1] = key;
  });
  ast.finalize();
  return to_source(ast.root());
}

std::string obfuscate_integers(std::string_view source, Rng& rng,
                               double rewrite_probability) {
  ParseResult parsed = parse_program(source);
  Ast& ast = parsed.ast;
  ast.finalize();

  std::vector<Node*> numbers;
  walk_preorder(ast.root(), [&](Node& node) {
    if (node.kind != NodeKind::kLiteral ||
        node.lit_kind != LiteralKind::kNumber) {
      return;
    }
    // Only plain small integers in expression positions (never property
    // keys, which must stay literal).
    if (node.num_value != static_cast<double>(
                              static_cast<long long>(node.num_value)) ||
        std::abs(node.num_value) > 1e9) {
      return;
    }
    const Node* parent = node.parent;
    if (parent != nullptr &&
        (parent->kind == NodeKind::kProperty ||
         parent->kind == NodeKind::kMethodDefinition) &&
        parent->kid(0) == &node && !parent->flag_a) {
      return;
    }
    numbers.push_back(&node);
  });

  for (Node* literal : numbers) {
    if (!rng.bernoulli(rewrite_probability)) continue;
    const auto value = static_cast<long long>(literal->num_value);
    Node* replacement = nullptr;
    switch (rng.index(3)) {
      case 0: {  // (a + b)
        const long long a = rng.uniform_int(-999, 999);
        Node* sum = ast.make(NodeKind::kBinaryExpression);
        sum->str_value = "+";
        ast.set_kids(sum, {ast.make_number(static_cast<double>(a)),
                           ast.make_number(static_cast<double>(value - a))});
        replacement = sum;
        break;
      }
      case 1: {  // (a * b + c)
        const long long a = rng.uniform_int(2, 37);
        const long long b = value / a;
        const long long c = value - a * b;
        Node* product = ast.make(NodeKind::kBinaryExpression);
        product->str_value = "*";
        ast.set_kids(product, {ast.make_number(static_cast<double>(a)),
                               ast.make_number(static_cast<double>(b))});
        Node* sum = ast.make(NodeKind::kBinaryExpression);
        sum->str_value = "+";
        ast.set_kids(sum, {product, ast.make_number(static_cast<double>(c))});
        replacement = sum;
        break;
      }
      default: {  // hex XOR-split: (mask ^ (mask ^ n))
        const auto mask = static_cast<long long>(rng.uniform_int(0, 0xffff));
        Node* inner = ast.make(NodeKind::kBinaryExpression);
        inner->str_value = "^";
        Node* mask_literal = ast.make_number(static_cast<double>(mask));
        mask_literal->str_value = ast.intern(
            "0x" + strings::to_base_n(static_cast<std::uint64_t>(mask), 16));
        // Only non-negative 32-bit values survive ^ faithfully.
        if (value < 0 || value > 0x7fffffff) {
          Node* sum = ast.make(NodeKind::kBinaryExpression);
          sum->str_value = "+";
          ast.set_kids(sum, {ast.make_number(static_cast<double>(value - 1)),
                             ast.make_number(1.0)});
          replacement = sum;
          break;
        }
        // mask ^ (mask ^ n) == n.
        ast.set_kids(inner,
                     {mask_literal,
                      ast.make_number(static_cast<double>(mask ^ value))});
        replacement = inner;
        break;
      }
    }
    Node* parent = literal->parent;
    if (parent == nullptr || replacement == nullptr) continue;
    for (Node*& kid : parent->kids) {
      if (kid == literal) kid = replacement;
    }
  }
  ast.finalize();
  return to_source(ast.root());
}

}  // namespace jst::transform
