#include "codegen/codegen.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "support/error.h"
#include "support/strings.h"

// codegen depends on support/strings for escape helpers.

namespace jst {
namespace {

// Spaces per indentation level in pretty mode.
constexpr int kIndentWidth = 2;

// Expression precedence levels (higher binds tighter).
enum Precedence : int {
  kPrecSequence = 0,
  kPrecAssignment = 1,
  kPrecConditional = 2,
  kPrecNullish = 3,
  kPrecLogicalOr = 4,
  kPrecLogicalAnd = 5,
  kPrecBitOr = 6,
  kPrecBitXor = 7,
  kPrecBitAnd = 8,
  kPrecEquality = 9,
  kPrecRelational = 10,
  kPrecShift = 11,
  kPrecAdditive = 12,
  kPrecMultiplicative = 13,
  kPrecExponent = 14,
  kPrecUnary = 15,
  kPrecPostfix = 16,
  kPrecNewNoArgs = 17,
  kPrecCallMember = 18,
  kPrecPrimary = 19,
};

int binary_op_precedence(std::string_view op) {
  if (op == "??") return kPrecNullish;
  if (op == "||") return kPrecLogicalOr;
  if (op == "&&") return kPrecLogicalAnd;
  if (op == "|") return kPrecBitOr;
  if (op == "^") return kPrecBitXor;
  if (op == "&") return kPrecBitAnd;
  if (op == "==" || op == "!=" || op == "===" || op == "!==") {
    return kPrecEquality;
  }
  if (op == "<" || op == ">" || op == "<=" || op == ">=" || op == "in" ||
      op == "instanceof") {
    return kPrecRelational;
  }
  if (op == "<<" || op == ">>" || op == ">>>") return kPrecShift;
  if (op == "+" || op == "-") return kPrecAdditive;
  if (op == "*" || op == "/" || op == "%") return kPrecMultiplicative;
  if (op == "**") return kPrecExponent;
  return kPrecPrimary;
}

int expression_precedence(const Node& node) {
  switch (node.kind) {
    case NodeKind::kSequenceExpression: return kPrecSequence;
    case NodeKind::kAssignmentExpression:
    case NodeKind::kArrowFunctionExpression:
    case NodeKind::kYieldExpression:
      return kPrecAssignment;
    case NodeKind::kConditionalExpression: return kPrecConditional;
    case NodeKind::kBinaryExpression:
    case NodeKind::kLogicalExpression:
      return binary_op_precedence(node.str_value);
    case NodeKind::kUnaryExpression:
    case NodeKind::kAwaitExpression:
      return kPrecUnary;
    case NodeKind::kUpdateExpression:
      return node.flag_a ? kPrecUnary : kPrecPostfix;
    case NodeKind::kNewExpression:
      return node.kids.size() > 1 ? kPrecCallMember : kPrecNewNoArgs;
    case NodeKind::kCallExpression:
    case NodeKind::kMemberExpression:
    case NodeKind::kTaggedTemplateExpression:
      return kPrecCallMember;
    default:
      return kPrecPrimary;
  }
}

bool is_identifier_char(char c) {
  return strings::is_ascii_alnum(c) || c == '_' || c == '$';
}

// Does an expression's leftmost token open with one of the forms that are
// illegal at the start of an ExpressionStatement?
bool starts_with_curly_or_function(const Node& node) {
  switch (node.kind) {
    case NodeKind::kObjectExpression:
    case NodeKind::kFunctionExpression:
    case NodeKind::kClassExpression:
      return true;
    case NodeKind::kMemberExpression:
    case NodeKind::kCallExpression:
    case NodeKind::kTaggedTemplateExpression:
      return node.kids.empty() ? false
                               : starts_with_curly_or_function(*node.kids[0]);
    case NodeKind::kBinaryExpression:
    case NodeKind::kLogicalExpression:
    case NodeKind::kAssignmentExpression:
    case NodeKind::kConditionalExpression:
    case NodeKind::kSequenceExpression:
      return node.kids.empty() || node.kids[0] == nullptr
                 ? false
                 : starts_with_curly_or_function(*node.kids[0]);
    case NodeKind::kUpdateExpression:
      return !node.flag_a && !node.kids.empty() &&
             starts_with_curly_or_function(*node.kids[0]);
    default:
      return false;
  }
}

class Printer {
 public:
  explicit Printer(const CodegenOptions& options) : options_(options) {}

  const std::string& text() const { return out_; }

  std::string take() {
    column_ = 0;
    return std::exchange(out_, {});
  }

  void emit_program(const Node& node) {
    for (const Node* statement : node.kids) {
      emit_statement(*statement);
    }
  }

  void emit_any(const Node& node) {
    if (node.is_statement() || node.kind == NodeKind::kProgram) {
      if (node.kind == NodeKind::kProgram) {
        emit_program(node);
      } else {
        emit_statement(node);
      }
    } else {
      emit_expression(node, kPrecSequence);
    }
  }

 private:
  // --- low-level writer ---
  void raw(std::string_view text) {
    out_ += text;
    column_ += text.size();
  }

  // Writes `text`, inserting a separating space if gluing would fuse tokens
  // (identifier chars, or `+ +` / `- -` sequences).
  void token(std::string_view text) {
    if (!out_.empty() && !text.empty()) {
      const char last = out_.back();
      const char first = text.front();
      const bool fuse_ident = is_identifier_char(last) && is_identifier_char(first);
      const bool fuse_sign =
          (last == '+' && first == '+') || (last == '-' && first == '-');
      if (fuse_ident || fuse_sign) raw(" ");
    }
    raw(text);
  }

  void space() {
    if (!options_.minify) raw(" ");
  }

  void newline() {
    if (options_.minify) {
      if (options_.minified_line_limit > 0 &&
          column_ >= options_.minified_line_limit && !out_.empty() &&
          out_.back() == ';') {
        out_ += '\n';
        column_ = 0;
      }
      return;
    }
    out_ += '\n';
    column_ = 0;
    for (int i = 0; i < indent_ * kIndentWidth; ++i) {
      out_ += ' ';
      ++column_;
    }
  }

  void open_brace() {
    token("{");
    ++indent_;
    newline();
  }

  void close_brace() {
    --indent_;
    // Remove the indentation of an empty line before '}'.
    trim_trailing_indent();
    newline_before_close();
    token("}");
  }

  void trim_trailing_indent() {
    while (!out_.empty() && out_.back() == ' ') {
      out_.pop_back();
      if (column_ > 0) --column_;
    }
  }

  void newline_before_close() {
    if (options_.minify) return;
    if (!out_.empty() && out_.back() != '\n') {
      out_ += '\n';
      column_ = 0;
    }
    for (int i = 0; i < indent_ * kIndentWidth; ++i) {
      out_ += ' ';
      ++column_;
    }
  }

  // --- statements ---
  void emit_statement(const Node& node) {
    switch (node.kind) {
      case NodeKind::kExpressionStatement: {
        const Node& expression = *node.kids[0];
        if (starts_with_curly_or_function(expression)) {
          token("(");
          emit_expression(expression, kPrecSequence);
          token(")");
        } else {
          emit_expression(expression, kPrecSequence);
        }
        token(";");
        newline();
        break;
      }
      case NodeKind::kBlockStatement:
        emit_block(node);
        newline();
        break;
      case NodeKind::kVariableDeclaration:
        emit_variable_declaration(node);
        token(";");
        newline();
        break;
      case NodeKind::kFunctionDeclaration:
        emit_function(node, /*is_declaration=*/true);
        newline();
        break;
      case NodeKind::kClassDeclaration:
        emit_class(node);
        newline();
        break;
      case NodeKind::kReturnStatement:
        token("return");
        if (node.kid(0) != nullptr) {
          space_or_sep();
          emit_expression(*node.kids[0], kPrecSequence);
        }
        token(";");
        newline();
        break;
      case NodeKind::kIfStatement: {
        token("if");
        space();
        token("(");
        emit_expression(*node.kids[0], kPrecSequence);
        token(")");
        emit_nested_statement(*node.kids[1]);
        if (node.kid(2) != nullptr) {
          before_keyword_after_block();
          token("else");
          if (node.kids[2]->kind == NodeKind::kIfStatement) {
            raw(" ");
            emit_statement(*node.kids[2]);
          } else {
            emit_nested_statement(*node.kids[2]);
            newline();
          }
        } else {
          newline();
        }
        break;
      }
      case NodeKind::kForStatement: {
        token("for");
        space();
        token("(");
        if (node.kid(0) != nullptr) {
          if (node.kids[0]->kind == NodeKind::kVariableDeclaration) {
            emit_variable_declaration(*node.kids[0]);
          } else {
            emit_expression(*node.kids[0], kPrecSequence);
          }
        }
        token(";");
        if (node.kid(1) != nullptr) {
          space();
          emit_expression(*node.kids[1], kPrecSequence);
        }
        token(";");
        if (node.kid(2) != nullptr) {
          space();
          emit_expression(*node.kids[2], kPrecSequence);
        }
        token(")");
        emit_nested_statement(*node.kids[3]);
        newline();
        break;
      }
      case NodeKind::kForInStatement:
      case NodeKind::kForOfStatement: {
        token("for");
        space();
        token("(");
        if (node.kids[0]->kind == NodeKind::kVariableDeclaration) {
          emit_variable_declaration(*node.kids[0]);
        } else {
          emit_expression(*node.kids[0], kPrecCallMember);
        }
        token(node.kind == NodeKind::kForInStatement ? "in" : "of");
        emit_expression(*node.kids[1], kPrecAssignment);
        token(")");
        emit_nested_statement(*node.kids[2]);
        newline();
        break;
      }
      case NodeKind::kWhileStatement:
        token("while");
        space();
        token("(");
        emit_expression(*node.kids[0], kPrecSequence);
        token(")");
        emit_nested_statement(*node.kids[1]);
        newline();
        break;
      case NodeKind::kDoWhileStatement:
        token("do");
        emit_nested_statement(*node.kids[0]);
        before_keyword_after_block();
        token("while");
        space();
        token("(");
        emit_expression(*node.kids[1], kPrecSequence);
        token(")");
        token(";");
        newline();
        break;
      case NodeKind::kSwitchStatement: {
        token("switch");
        space();
        token("(");
        emit_expression(*node.kids[0], kPrecSequence);
        token(")");
        space();
        open_brace();
        for (std::size_t i = 1; i < node.kids.size(); ++i) {
          const Node& switch_case = *node.kids[i];
          if (switch_case.kid(0) != nullptr) {
            token("case");
            space_or_sep();
            emit_expression(*switch_case.kids[0], kPrecSequence);
            token(":");
          } else {
            token("default");
            token(":");
          }
          newline();
          ++indent_;
          for (std::size_t j = 1; j < switch_case.kids.size(); ++j) {
            if (!options_.minify && j == 1) {
              trim_trailing_indent();
              newline_before_close();
            }
            emit_statement(*switch_case.kids[j]);
          }
          --indent_;
          if (!options_.minify) {
            trim_trailing_indent();
            newline_before_close();
          }
        }
        close_brace();
        newline();
        break;
      }
      case NodeKind::kBreakStatement:
      case NodeKind::kContinueStatement:
        token(node.kind == NodeKind::kBreakStatement ? "break" : "continue");
        if (node.kid(0) != nullptr) {
          raw(" ");
          token(node.kids[0]->str_value);
        }
        token(";");
        newline();
        break;
      case NodeKind::kThrowStatement:
        token("throw");
        raw(" ");
        emit_expression(*node.kids[0], kPrecSequence);
        token(";");
        newline();
        break;
      case NodeKind::kTryStatement:
        token("try");
        space();
        emit_block(*node.kids[0]);
        if (node.kid(1) != nullptr) {
          const Node& handler = *node.kids[1];
          before_keyword_after_block();
          token("catch");
          if (handler.kid(0) != nullptr) {
            space();
            token("(");
            emit_binding(*handler.kids[0]);
            token(")");
          }
          space();
          emit_block(*handler.kids[1]);
        }
        if (node.kid(2) != nullptr) {
          before_keyword_after_block();
          token("finally");
          space();
          emit_block(*node.kids[2]);
        }
        newline();
        break;
      case NodeKind::kLabeledStatement:
        token(node.kids[0]->str_value);
        token(":");
        space();
        emit_statement(*node.kids[1]);
        break;
      case NodeKind::kEmptyStatement:
        token(";");
        newline();
        break;
      case NodeKind::kDebuggerStatement:
        token("debugger");
        token(";");
        newline();
        break;
      case NodeKind::kWithStatement:
        token("with");
        space();
        token("(");
        emit_expression(*node.kids[0], kPrecSequence);
        token(")");
        emit_nested_statement(*node.kids[1]);
        newline();
        break;
      default:
        throw InvalidArgument("emit_statement: not a statement: " +
                              std::string(node_kind_name(node.kind)));
    }
  }

  // Emits the body of if/for/while — block inline, single statement
  // indented on its own line (pretty) or inline (minified).
  void emit_nested_statement(const Node& body) {
    if (body.kind == NodeKind::kBlockStatement) {
      space();
      emit_block(body);
      return;
    }
    if (options_.minify) {
      emit_statement(body);
      return;
    }
    ++indent_;
    newline();
    emit_statement(body);
    --indent_;
    trim_trailing_indent();
    newline_before_close();
  }

  // After emitting a block or nested statement, `else`/`while`/`catch`
  // keywords follow; in pretty mode they sit on the same line as '}'.
  void before_keyword_after_block() {
    if (options_.minify) return;
    // Drop the trailing newline+indent so the keyword hugs the brace.
    while (!out_.empty() && (out_.back() == ' ' || out_.back() == '\n')) {
      out_.pop_back();
    }
    out_ += ' ';
    column_ = 0;
  }

  void space_or_sep() {
    if (options_.minify) {
      raw(" ");
    } else {
      raw(" ");
    }
  }

  void emit_block(const Node& block) {
    if (block.kids.empty()) {
      token("{");
      token("}");
      return;
    }
    open_brace();
    for (const Node* statement : block.kids) emit_statement(*statement);
    close_brace();
  }

  void emit_variable_declaration(const Node& node) {
    token(node.str_value);  // var / let / const
    raw(" ");
    for (std::size_t i = 0; i < node.kids.size(); ++i) {
      if (i > 0) {
        token(",");
        space();
      }
      const Node& declarator = *node.kids[i];
      emit_binding(*declarator.kids[0]);
      if (declarator.kid(1) != nullptr) {
        space();
        token("=");
        space();
        emit_expression(*declarator.kids[1], kPrecAssignment);
      }
    }
  }

  void emit_binding(const Node& node) {
    switch (node.kind) {
      case NodeKind::kIdentifier:
        token(node.str_value);
        break;
      case NodeKind::kArrayPattern: {
        token("[");
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          if (i > 0) {
            token(",");
            space();
          }
          if (node.kids[i] != nullptr) emit_binding(*node.kids[i]);
        }
        token("]");
        break;
      }
      case NodeKind::kObjectPattern: {
        token("{");
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          if (i > 0) {
            token(",");
            space();
          }
          const Node& property = *node.kids[i];
          if (property.kind == NodeKind::kRestElement) {
            token("...");
            emit_binding(*property.kids[0]);
            continue;
          }
          const Node* shorthand_value = property.kid(1);
          const bool shorthand_still_valid =
              property.flag_b && shorthand_value != nullptr &&
              ((shorthand_value->kind == NodeKind::kIdentifier &&
                shorthand_value->str_value == property.kids[0]->str_value) ||
               (shorthand_value->kind == NodeKind::kAssignmentPattern &&
                shorthand_value->kid(0) != nullptr &&
                shorthand_value->kids[0]->kind == NodeKind::kIdentifier &&
                shorthand_value->kids[0]->str_value ==
                    property.kids[0]->str_value));
          if (shorthand_still_valid) {
            emit_binding(*property.kids[1]);  // shorthand
          } else {
            emit_property_key(*property.kids[0], property.flag_a);
            token(":");
            space();
            emit_binding(*property.kids[1]);
          }
        }
        token("}");
        break;
      }
      case NodeKind::kAssignmentPattern:
        emit_binding(*node.kids[0]);
        space();
        token("=");
        space();
        emit_expression(*node.kids[1], kPrecAssignment);
        break;
      case NodeKind::kRestElement:
        token("...");
        emit_binding(*node.kids[0]);
        break;
      default:
        // Assignment targets in for-in heads etc. can be expressions.
        emit_expression(node, kPrecCallMember);
    }
  }

  void emit_property_key(const Node& key, bool computed) {
    if (computed) {
      token("[");
      emit_expression(key, kPrecAssignment);
      token("]");
      return;
    }
    if (key.kind == NodeKind::kIdentifier) {
      token(key.str_value);
    } else {
      emit_expression(key, kPrecPrimary);
    }
  }

  void emit_function(const Node& node, bool is_declaration) {
    if (node.flag_c) {
      token("async");
      raw(" ");
    }
    token("function");
    if (node.flag_b) token("*");
    if (node.kid(0) != nullptr) {
      raw(" ");
      token(node.kids[0]->str_value);
    }
    emit_params(node, /*first_param_index=*/2);
    space();
    emit_block(*node.kids[1]);
    (void)is_declaration;
  }

  void emit_params(const Node& function_node, std::size_t first_param_index) {
    token("(");
    for (std::size_t i = first_param_index; i < function_node.kids.size();
         ++i) {
      if (i > first_param_index) {
        token(",");
        space();
      }
      emit_binding(*function_node.kids[i]);
    }
    token(")");
  }

  void emit_class(const Node& node) {
    token("class");
    if (node.kid(0) != nullptr) {
      raw(" ");
      token(node.kids[0]->str_value);
    }
    if (node.kid(1) != nullptr) {
      raw(" ");
      token("extends");
      raw(" ");
      emit_expression(*node.kids[1], kPrecCallMember);
    }
    space();
    const Node& body = *node.kids[2];
    if (body.kids.empty()) {
      token("{");
      token("}");
      return;
    }
    open_brace();
    for (const Node* method_node : body.kids) {
      const Node& method = *method_node;
      const Node& function = *method.kids[1];
      if (method.flag_b) {
        token("static");
        raw(" ");
      }
      if (function.flag_c) {
        token("async");
        raw(" ");
      }
      if (function.flag_b) token("*");
      if (method.str_value == "get" || method.str_value == "set") {
        token(method.str_value);
        raw(" ");
      }
      emit_property_key(*method.kids[0], method.flag_a);
      emit_params(function, /*first_param_index=*/2);
      space();
      emit_block(*function.kids[1]);
      newline();
    }
    close_brace();
  }

  // --- expressions ---
  void emit_expression(const Node& node, int min_precedence) {
    const int precedence = expression_precedence(node);
    const bool needs_parens = precedence < min_precedence;
    if (needs_parens) token("(");
    emit_expression_inner(node);
    if (needs_parens) token(")");
  }

  void emit_expression_inner(const Node& node) {
    switch (node.kind) {
      case NodeKind::kIdentifier:
        token(node.str_value);
        break;
      case NodeKind::kLiteral:
        emit_literal(node);
        break;
      case NodeKind::kThisExpression:
        token("this");
        break;
      case NodeKind::kSuper:
        token("super");
        break;
      case NodeKind::kTemplateLiteral:
        emit_template(node);
        break;
      case NodeKind::kTaggedTemplateExpression:
        emit_expression(*node.kids[0], kPrecCallMember);
        emit_template(*node.kids[1]);
        break;
      case NodeKind::kArrayExpression: {
        token("[");
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          if (i > 0) {
            token(",");
            space();
          }
          if (node.kids[i] == nullptr) continue;  // elision
          emit_expression(*node.kids[i], kPrecAssignment);
        }
        token("]");
        break;
      }
      case NodeKind::kObjectExpression: {
        token("{");
        if (!options_.minify && node.kids.size() > 2) {
          ++indent_;
          newline();
        }
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          if (i > 0) {
            token(",");
            if (!options_.minify && node.kids.size() > 2) {
              newline();
            } else {
              space();
            }
          }
          emit_property(*node.kids[i]);
        }
        if (!options_.minify && node.kids.size() > 2) {
          --indent_;
          newline();
        }
        token("}");
        break;
      }
      case NodeKind::kFunctionExpression:
        emit_function(node, /*is_declaration=*/false);
        break;
      case NodeKind::kArrowFunctionExpression: {
        if (node.flag_c) {
          token("async");
          raw(" ");
        }
        const bool single_plain_param =
            node.kids.size() == 2 && node.kids[1] != nullptr &&
            node.kids[1]->kind == NodeKind::kIdentifier;
        if (single_plain_param && options_.minify) {
          token(node.kids[1]->str_value);
        } else {
          emit_params(node, /*first_param_index=*/1);
        }
        space();
        token("=>");
        space();
        const Node& body = *node.kids[0];
        if (node.flag_a) {
          // Expression body; object literals must be parenthesized.
          if (starts_with_curly_or_function(body)) {
            token("(");
            emit_expression(body, kPrecSequence);
            token(")");
          } else {
            emit_expression(body, kPrecAssignment);
          }
        } else {
          emit_block(body);
        }
        break;
      }
      case NodeKind::kClassExpression:
        emit_class(node);
        break;
      case NodeKind::kSequenceExpression: {
        for (std::size_t i = 0; i < node.kids.size(); ++i) {
          if (i > 0) {
            token(",");
            space();
          }
          emit_expression(*node.kids[i], kPrecAssignment);
        }
        break;
      }
      case NodeKind::kUnaryExpression: {
        token(node.str_value);
        if (node.str_value.size() > 2) raw(" ");  // typeof / void / delete
        emit_expression(*node.kids[0], kPrecUnary);
        break;
      }
      case NodeKind::kAwaitExpression:
        token("await");
        raw(" ");
        emit_expression(*node.kids[0], kPrecUnary);
        break;
      case NodeKind::kYieldExpression:
        token("yield");
        if (node.flag_a) token("*");
        if (node.kid(0) != nullptr) {
          raw(" ");
          emit_expression(*node.kids[0], kPrecAssignment);
        }
        break;
      case NodeKind::kUpdateExpression:
        if (node.flag_a) {
          token(node.str_value);
          emit_expression(*node.kids[0], kPrecUnary);
        } else {
          emit_expression(*node.kids[0], kPrecPostfix);
          token(node.str_value);
        }
        break;
      case NodeKind::kBinaryExpression:
      case NodeKind::kLogicalExpression: {
        const int precedence = binary_op_precedence(node.str_value);
        const bool right_assoc = node.str_value == "**";
        emit_expression(*node.kids[0],
                        right_assoc ? precedence + 1 : precedence);
        space();
        token(node.str_value);
        if (node.str_value == "in" || node.str_value == "instanceof") {
          raw(" ");
        } else {
          space();
        }
        emit_expression(*node.kids[1],
                        right_assoc ? precedence : precedence + 1);
        break;
      }
      case NodeKind::kAssignmentExpression:
        if (node.kids[0]->kind == NodeKind::kObjectPattern ||
            node.kids[0]->kind == NodeKind::kArrayPattern) {
          emit_binding(*node.kids[0]);
        } else {
          emit_expression(*node.kids[0], kPrecCallMember);
        }
        space();
        token(node.str_value);
        space();
        emit_expression(*node.kids[1], kPrecAssignment);
        break;
      case NodeKind::kConditionalExpression:
        emit_expression(*node.kids[0], kPrecConditional + 1);
        space();
        token("?");
        space();
        emit_expression(*node.kids[1], kPrecAssignment);
        space();
        token(":");
        space();
        emit_expression(*node.kids[2], kPrecAssignment);
        break;
      case NodeKind::kCallExpression: {
        emit_expression(*node.kids[0], kPrecCallMember);
        token("(");
        for (std::size_t i = 1; i < node.kids.size(); ++i) {
          if (i > 1) {
            token(",");
            space();
          }
          emit_expression(*node.kids[i], kPrecAssignment);
        }
        token(")");
        break;
      }
      case NodeKind::kNewExpression: {
        token("new");
        raw(" ");
        emit_expression(*node.kids[0], kPrecCallMember);
        token("(");
        for (std::size_t i = 1; i < node.kids.size(); ++i) {
          if (i > 1) {
            token(",");
            space();
          }
          emit_expression(*node.kids[i], kPrecAssignment);
        }
        token(")");
        break;
      }
      case NodeKind::kMemberExpression: {
        const Node& object = *node.kids[0];
        // `new X().y` needs the call-member precedence; plain numbers need
        // parens before '.' (1..toString() vs (1).toString()).
        const bool number_object =
            object.kind == NodeKind::kLiteral &&
            object.lit_kind == LiteralKind::kNumber;
        if (number_object && !node.flag_a) {
          token("(");
          emit_expression_inner(object);
          token(")");
        } else {
          emit_expression(object, kPrecCallMember);
        }
        if (node.flag_a) {
          token("[");
          emit_expression(*node.kids[1], kPrecSequence);
          token("]");
        } else {
          token(".");
          token(node.kids[1]->str_value);
        }
        break;
      }
      case NodeKind::kSpreadElement:
        token("...");
        emit_expression(*node.kids[0], kPrecAssignment);
        break;
      case NodeKind::kRestElement:
        token("...");
        emit_binding(*node.kids[0]);
        break;
      case NodeKind::kAssignmentPattern:
        emit_binding(node);
        break;
      case NodeKind::kArrayPattern:
      case NodeKind::kObjectPattern:
        emit_binding(node);
        break;
      case NodeKind::kProperty:
        emit_property(node);
        break;
      default:
        throw InvalidArgument("emit_expression: unsupported node: " +
                              std::string(node_kind_name(node.kind)));
    }
  }

  void emit_property(const Node& node) {
    if (node.kind == NodeKind::kSpreadElement) {
      token("...");
      emit_expression(*node.kids[0], kPrecAssignment);
      return;
    }
    const Node& key = *node.kids[0];
    const Node& value = *node.kids[1];
    if (node.str_value == "get" || node.str_value == "set") {
      token(node.str_value);
      raw(" ");
      emit_property_key(key, node.flag_a);
      emit_params(value, /*first_param_index=*/2);
      space();
      emit_block(*value.kids[1]);
      return;
    }
    if (value.kind == NodeKind::kFunctionExpression && !node.flag_b &&
        value.kid(0) == nullptr && node.str_value == "init" &&
        value.parent == &node) {
      // Heuristic: printed as method shorthand only when built that way is
      // indistinguishable; print the explicit key:function form for clarity.
    }
    if (node.flag_b && !node.flag_a &&
        key.kind == NodeKind::kIdentifier &&
        value.kind == NodeKind::kIdentifier &&
        key.str_value == value.str_value) {
      // Shorthand {a} — only while key and value still agree (renaming
      // transformers may have renamed the value binding).
      emit_expression(value, kPrecAssignment);
      return;
    }
    emit_property_key(key, node.flag_a);
    token(":");
    space();
    emit_expression(value, kPrecAssignment);
  }

  void emit_literal(const Node& node) {
    switch (node.lit_kind) {
      case LiteralKind::kString: {
        // Transformer-forced escape modes: flag_a = hex-escape every
        // character (\xHH), flag_b = unicode-escape (\uHHHH).
        if (node.flag_a || node.flag_b) {
          const std::string escaped =
              node.flag_a ? strings::hex_escape_all(node.str_value)
                          : strings::unicode_escape_all(node.str_value);
          raw("\"");
          raw(escaped);
          raw("\"");
          break;
        }
        raw("\"");
        for (char c : node.str_value) {
          switch (c) {
            case '"': raw("\\\""); break;
            case '\\': raw("\\\\"); break;
            case '\n': raw("\\n"); break;
            case '\r': raw("\\r"); break;
            case '\t': raw("\\t"); break;
            case '\b': raw("\\b"); break;
            case '\f': raw("\\f"); break;
            case '\v': raw("\\v"); break;
            case '\0': raw("\\x00"); break;
            default:
              if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\x%02x",
                              static_cast<unsigned char>(c));
                raw(buf);
              } else {
                raw(std::string(1, c));
              }
          }
        }
        raw("\"");
        column_ += node.str_value.size() + 2;
        break;
      }
      case LiteralKind::kNumber: {
        if (!node.str_value.empty()) {
          token(node.str_value);
        } else if (node.num_value == std::floor(node.num_value) &&
                   std::abs(node.num_value) < 1e15) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.0f", node.num_value);
          token(buf);
        } else {
          char buf[64];
          std::snprintf(buf, sizeof buf, "%.17g", node.num_value);
          token(buf);
        }
        break;
      }
      case LiteralKind::kBoolean:
        token(node.num_value != 0.0 ? "true" : "false");
        break;
      case LiteralKind::kNull:
        token("null");
        break;
      case LiteralKind::kRegExp:
        token("/" + std::string(node.str_value));
        break;
    }
  }

  void emit_template(const Node& node) {
    raw("`");
    // Children interleave TemplateElement and expression nodes.
    for (const Node* kid : node.kids) {
      if (kid->kind == NodeKind::kTemplateElement) {
        raw(kid->str_value);
      } else {
        raw("${");
        emit_expression(*kid, kPrecSequence);
        raw("}");
      }
    }
    raw("`");
  }

  const CodegenOptions& options_;
  std::string out_;
  std::size_t column_ = 0;
  int indent_ = 0;
};

// Length of `out` without its trailing blank space.
std::size_t content_length(const std::string& out) {
  std::size_t length = out.size();
  while (length > 0 && (out[length - 1] == ' ' || out[length - 1] == '\n')) {
    --length;
  }
  return length;
}

// Normalize: strip trailing blank space, ensure single trailing newline in
// pretty mode.
std::string normalized(std::string out, const CodegenOptions& options) {
  out.resize(content_length(out));
  if (!options.minify && !out.empty()) out += '\n';
  return out;
}

}  // namespace jst::(anonymous)

std::string generate(const Node* root, const CodegenOptions& options) {
  if (root == nullptr) return "";
  Printer printer(options);
  printer.emit_any(*root);
  return normalized(printer.take(), options);
}

std::string to_source(const Node* root) { return generate(root, {}); }

std::string to_minified_source(const Node* root) {
  CodegenOptions options;
  options.minify = true;
  return generate(root, options);
}

struct ProgramPrinter::State {
  explicit State(const CodegenOptions& options)
      : options(options), printer(this->options) {}
  CodegenOptions options;
  Printer printer;  // holds a reference to `options`
};

ProgramPrinter::ProgramPrinter(const CodegenOptions& options)
    : state_(std::make_unique<State>(options)) {}

ProgramPrinter::~ProgramPrinter() = default;

void ProgramPrinter::append(const Node& statement) {
  state_->printer.emit_any(statement);
}

std::size_t ProgramPrinter::size() const {
  const std::size_t length = content_length(state_->printer.text());
  return length > 0 && !state_->options.minify ? length + 1 : length;
}

std::string ProgramPrinter::take() {
  return normalized(state_->printer.take(), state_->options);
}

}  // namespace jst
