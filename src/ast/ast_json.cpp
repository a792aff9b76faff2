#include "ast/ast_json.h"

#include <vector>

#include "support/json_writer.h"

namespace jst {
namespace {

// ESTree child-slot names per node kind, matching the layouts documented
// in ast.h. Variadic tails are emitted under the conventional list name.
struct Layout {
  // Fixed slots in order; nullptr-terminated conceptually by size.
  std::vector<const char*> fixed;
  const char* tail = nullptr;  // name of the variadic list (or nullptr)
  std::size_t tail_start = 0;
};

Layout layout_for(NodeKind kind) {
  switch (kind) {
    case NodeKind::kProgram: return {{}, "body", 0};
    case NodeKind::kExpressionStatement: return {{"expression"}, nullptr, 0};
    case NodeKind::kBlockStatement: return {{}, "body", 0};
    case NodeKind::kVariableDeclaration: return {{}, "declarations", 0};
    case NodeKind::kVariableDeclarator: return {{"id", "init"}, nullptr, 0};
    case NodeKind::kFunctionDeclaration:
    case NodeKind::kFunctionExpression:
      return {{"id", "body"}, "params", 2};
    case NodeKind::kArrowFunctionExpression: return {{"body"}, "params", 1};
    case NodeKind::kClassDeclaration:
    case NodeKind::kClassExpression:
      return {{"id", "superClass", "body"}, nullptr, 0};
    case NodeKind::kClassBody: return {{}, "body", 0};
    case NodeKind::kMethodDefinition: return {{"key", "value"}, nullptr, 0};
    case NodeKind::kReturnStatement: return {{"argument"}, nullptr, 0};
    case NodeKind::kIfStatement:
      return {{"test", "consequent", "alternate"}, nullptr, 0};
    case NodeKind::kForStatement:
      return {{"init", "test", "update", "body"}, nullptr, 0};
    case NodeKind::kForInStatement:
    case NodeKind::kForOfStatement:
      return {{"left", "right", "body"}, nullptr, 0};
    case NodeKind::kWhileStatement: return {{"test", "body"}, nullptr, 0};
    case NodeKind::kDoWhileStatement: return {{"body", "test"}, nullptr, 0};
    case NodeKind::kSwitchStatement: return {{"discriminant"}, "cases", 1};
    case NodeKind::kSwitchCase: return {{"test"}, "consequent", 1};
    case NodeKind::kBreakStatement:
    case NodeKind::kContinueStatement:
      return {{"label"}, nullptr, 0};
    case NodeKind::kThrowStatement: return {{"argument"}, nullptr, 0};
    case NodeKind::kTryStatement:
      return {{"block", "handler", "finalizer"}, nullptr, 0};
    case NodeKind::kCatchClause: return {{"param", "body"}, nullptr, 0};
    case NodeKind::kLabeledStatement: return {{"label", "body"}, nullptr, 0};
    case NodeKind::kWithStatement: return {{"object", "body"}, nullptr, 0};
    case NodeKind::kTemplateLiteral: return {{}, "parts", 0};
    case NodeKind::kTaggedTemplateExpression:
      return {{"tag", "quasi"}, nullptr, 0};
    case NodeKind::kArrayExpression:
    case NodeKind::kArrayPattern:
      return {{}, "elements", 0};
    case NodeKind::kObjectExpression:
    case NodeKind::kObjectPattern:
      return {{}, "properties", 0};
    case NodeKind::kProperty: return {{"key", "value"}, nullptr, 0};
    case NodeKind::kSequenceExpression: return {{}, "expressions", 0};
    case NodeKind::kUnaryExpression:
    case NodeKind::kUpdateExpression:
    case NodeKind::kSpreadElement:
    case NodeKind::kRestElement:
    case NodeKind::kAwaitExpression:
    case NodeKind::kYieldExpression:
      return {{"argument"}, nullptr, 0};
    case NodeKind::kBinaryExpression:
    case NodeKind::kLogicalExpression:
    case NodeKind::kAssignmentExpression:
    case NodeKind::kAssignmentPattern:
      return {{"left", "right"}, nullptr, 0};
    case NodeKind::kConditionalExpression:
      return {{"test", "consequent", "alternate"}, nullptr, 0};
    case NodeKind::kCallExpression:
    case NodeKind::kNewExpression:
      return {{"callee"}, "arguments", 1};
    case NodeKind::kMemberExpression:
      return {{"object", "property"}, nullptr, 0};
    default:
      return {{}, nullptr, 0};  // leaves
  }
}

// Opens a node's object and writes its type and scalar fields.
void emit_fields(const Node* node, JsonWriter& json) {
  json.begin_object();
  json.key("type");
  json.value(node_kind_name(node->kind));

  switch (node->kind) {
    case NodeKind::kIdentifier:
      json.key("name");
      json.value(node->str_value);
      break;
    case NodeKind::kLiteral:
      json.key("value");
      switch (node->lit_kind) {
        case LiteralKind::kString: json.value(node->str_value); break;
        case LiteralKind::kNumber: json.value(node->num_value); break;
        case LiteralKind::kBoolean: json.value(node->num_value != 0.0); break;
        case LiteralKind::kNull: json.null(); break;
        case LiteralKind::kRegExp:
          json.value("/" + std::string(node->str_value));
          break;
      }
      if (!node->str_value.empty() && node->lit_kind == LiteralKind::kNumber) {
        json.key("raw");
        json.value(node->str_value);
      }
      break;
    case NodeKind::kTemplateElement:
      json.key("value");
      json.value(node->str_value);
      break;
    case NodeKind::kVariableDeclaration:
      json.key("kind");
      json.value(node->str_value);
      break;
    case NodeKind::kBinaryExpression:
    case NodeKind::kLogicalExpression:
    case NodeKind::kAssignmentExpression:
    case NodeKind::kUnaryExpression:
    case NodeKind::kUpdateExpression:
      json.key("operator");
      json.value(node->str_value);
      break;
    case NodeKind::kProperty:
    case NodeKind::kMethodDefinition:
      json.key("kind");
      json.value(node->str_value);
      break;
    default:
      break;
  }
  if (node->kind == NodeKind::kMemberExpression ||
      node->kind == NodeKind::kProperty ||
      node->kind == NodeKind::kMethodDefinition) {
    json.key("computed");
    json.value(node->flag_a);
  }
  if (node->kind == NodeKind::kUpdateExpression ||
      node->kind == NodeKind::kUnaryExpression) {
    json.key("prefix");
    json.value(node->flag_a);
  }
  if (node->is_function()) {
    json.key("async");
    json.value(node->flag_c);
    json.key("generator");
    json.value(node->flag_b);
  }

}

// Writes the subtree with an explicit stack, not recursion: the parser
// builds operator chains iteratively, so AST depth grows with the input
// (a JSFuck flood's `+` chain is as deep as it is long).
void emit(const Node* root, JsonWriter& json) {
  struct Frame {
    const Node* node;
    Layout layout;
    std::size_t next = 0;  // next fixed slot, then next tail kid
    bool in_tail = false;
  };
  std::vector<Frame> stack;
  const auto open = [&](const Node* node) {
    if (node == nullptr) {
      json.null();
      return;
    }
    emit_fields(node, json);
    stack.push_back({node, layout_for(node->kind)});
  };
  open(root);
  while (!stack.empty()) {
    // open() may grow the stack, so `frame` is not used after calling it.
    Frame& frame = stack.back();
    const Layout& layout = frame.layout;
    if (frame.next < layout.fixed.size() && !frame.in_tail) {
      json.key(layout.fixed[frame.next]);
      open(frame.node->kid(frame.next++));
      continue;
    }
    if (layout.tail != nullptr) {
      if (!frame.in_tail) {
        json.key(layout.tail);
        json.begin_array();
        frame.in_tail = true;
        frame.next = layout.tail_start;
      }
      if (frame.next < frame.node->kids.size()) {
        open(frame.node->kids[frame.next++]);
        continue;
      }
      json.end_array();
    }
    json.end_object();
    stack.pop_back();
  }
}

// Minimal re-indenter for pretty output.
std::string indent_json(const std::string& compact) {
  std::string out;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < compact.size(); ++i) {
    const char c = compact[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < compact.size()) {
        out += compact[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out += c;
        break;
      case '{':
      case '[':
        out += c;
        ++depth;
        out += '\n';
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
        break;
      case '}':
      case ']':
        --depth;
        out += '\n';
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
        out += c;
        break;
      case ',':
        out += c;
        out += '\n';
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
        break;
      case ':':
        out += ": ";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string ast_to_json(const Node* root, bool pretty) {
  JsonWriter json;
  emit(root, json);
  return pretty ? indent_json(json.str()) : json.str();
}

}  // namespace jst
