#include "corpus/generator.h"

#include <algorithm>

#include "codegen/codegen.h"
#include "corpus/vocab.h"
#include "support/strings.h"

namespace jst::corpus {
namespace {

// Top-level items stop at this count even if the program is still
// shorter than GeneratorOptions::min_bytes.
constexpr std::size_t kMaxTopLevelItems = 60;
// Chance of a blank line before each printed line.
constexpr double kBlankLineProbability = 0.14;

}  // namespace

ProgramGenerator::ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

void ProgramGenerator::push_scope() { scopes_.emplace_back(); }

void ProgramGenerator::pop_scope() { scopes_.pop_back(); }

std::string ProgramGenerator::declare(std::size_t name_words) {
  std::string name = camel_identifier(rng_, name_words);
  scopes_.back().push_back(name);
  return name;
}

bool ProgramGenerator::has_variables() const {
  for (const auto& scope : scopes_) {
    if (!scope.empty()) return true;
  }
  return false;
}

std::string ProgramGenerator::random_variable() {
  std::vector<const std::string*> visible;
  for (const auto& scope : scopes_) {
    for (const std::string& name : scope) visible.push_back(&name);
  }
  if (visible.empty() || rng_.bernoulli(0.12)) {
    return std::string(rng_.choice(global_names()));
  }
  return *visible[rng_.index(visible.size())];
}

// --- expressions -----------------------------------------------------

Node* ProgramGenerator::gen_string_literal() {
  switch (rng_.index(4)) {
    case 0: return ast_->make_string(std::string(rng_.choice(string_pool())));
    case 1: return ast_->make_string(std::string(rng_.choice(url_pool())));
    case 2: return ast_->make_string(camel_identifier(rng_, 1));
    default: {
      std::string sentence(rng_.choice(string_pool()));
      sentence += " ";
      sentence += rng_.choice(string_pool());
      return ast_->make_string(sentence);
    }
  }
}

Node* ProgramGenerator::gen_literal() {
  switch (rng_.index(8)) {
    case 0: case 1: case 2:
      return gen_string_literal();
    case 3:
      return ast_->make_number(static_cast<double>(rng_.uniform_int(0, 100)));
    case 4:
      return ast_->make_number(static_cast<double>(rng_.uniform_int(0, 10000)));
    case 5: {
      Node* literal = ast_->make_number(rng_.uniform(0.0, 10.0));
      literal->str_value =
          ast_->intern(strings::format_double(literal->num_value, 3));
      return literal;
    }
    case 6:
      return ast_->make_bool(rng_.bernoulli(0.5));
    default:
      return rng_.bernoulli(0.5) ? ast_->make_null()
                                 : ast_->make_number(1.0);
  }
}

Node* ProgramGenerator::gen_reference() {
  return ast_->make_identifier(random_variable());
}

Node* ProgramGenerator::gen_member(int depth) {
  Node* base = rng_.bernoulli(0.75)
                   ? gen_reference()
                   : (depth > 0 ? gen_call(depth - 1) : gen_reference());
  const std::size_t links = 1 + rng_.index(2);
  for (std::size_t i = 0; i < links; ++i) {
    Node* member = ast_->make(NodeKind::kMemberExpression);
    if (rng_.bernoulli(0.07)) {
      member->flag_a = true;  // occasional bracket access in regular code
      Node* key = rng_.bernoulli(0.5)
                      ? static_cast<Node*>(ast_->make_string(
                            std::string(rng_.choice(property_names()))))
                      : ast_->make_number(
                            static_cast<double>(rng_.uniform_int(0, 4)));
      ast_->set_kids(member, {base, key});
    } else {
      ast_->set_kids(member, {base, ast_->make_identifier(std::string(
                                        rng_.choice(property_names())))});
    }
    base = member;
  }
  return base;
}

Node* ProgramGenerator::gen_call(int depth) {
  Node* call = ast_->make(NodeKind::kCallExpression);
  Node* callee = nullptr;
  if (rng_.bernoulli(0.7)) {
    // method call obj.method(...)
    Node* member = ast_->make(NodeKind::kMemberExpression);
    ast_->set_kids(member,
                   {gen_reference(), ast_->make_identifier(std::string(
                                         rng_.choice(method_names())))});
    callee = member;
  } else {
    callee = gen_reference();
  }
  ast_->set_kids(call, {callee});
  const std::size_t argument_count = rng_.index(3);
  for (std::size_t i = 0; i < argument_count; ++i) {
    ast_->push_kid(call, depth > 0 ? gen_expression(depth - 1)
                                   : gen_literal());
  }
  return call;
}

Node* ProgramGenerator::gen_binary(int depth) {
  static constexpr std::string_view kOps[] = {
      "+", "+", "-", "*", "===", "!==", "<", ">", "<=", ">=", "&&", "||",
  };
  const std::string op(kOps[rng_.index(std::size(kOps))]);
  Node* node = ast_->make(op == "&&" || op == "||"
                              ? NodeKind::kLogicalExpression
                              : NodeKind::kBinaryExpression);
  node->str_value = ast_->intern(op);
  Node* left = depth > 0 ? gen_expression(depth - 1) : gen_reference();
  Node* right = depth > 0 ? gen_expression(depth - 1) : gen_literal();
  ast_->set_kids(node, {left, right});
  return node;
}

Node* ProgramGenerator::gen_object_literal(int depth) {
  Node* object = ast_->make(NodeKind::kObjectExpression);
  const std::size_t property_count = 1 + rng_.index(5);
  for (std::size_t i = 0; i < property_count; ++i) {
    Node* property = ast_->make(NodeKind::kProperty);
    property->str_value = "init";
    Node* key = ast_->make_identifier(
        std::string(rng_.choice(property_names())));
    Node* value = depth > 0 ? gen_expression(depth - 1) : gen_literal();
    ast_->set_kids(property, {key, value});
    ast_->push_kid(object, property);
  }
  return object;
}

Node* ProgramGenerator::gen_array_literal(int depth) {
  Node* array = ast_->make(NodeKind::kArrayExpression);
  const std::size_t element_count = rng_.index(6);
  for (std::size_t i = 0; i < element_count; ++i) {
    ast_->push_kid(array, depth > 0 && rng_.bernoulli(0.3)
                              ? gen_expression(depth - 1)
                              : gen_literal());
  }
  return array;
}

Node* ProgramGenerator::gen_function_expression(int depth, bool arrow) {
  push_scope();
  std::vector<Node*> params;
  const std::size_t param_count = rng_.index(3);
  for (std::size_t i = 0; i < param_count; ++i) {
    params.push_back(ast_->make_identifier(declare(1)));
  }
  Node* node = nullptr;
  if (arrow) {
    node = ast_->make(NodeKind::kArrowFunctionExpression);
    if (rng_.bernoulli(0.45)) {
      node->flag_a = true;  // expression body
      ast_->set_kids(node,
                     {depth > 0 ? gen_expression(depth - 1) : gen_literal()});
    } else {
      ast_->set_kids(node, {gen_block(depth, /*inside_function=*/true, 1, 3)});
    }
    for (Node* param : params) ast_->push_kid(node, param);
  } else {
    node = ast_->make(NodeKind::kFunctionExpression);
    ast_->set_kids(node, {nullptr, gen_block(depth, /*inside_function=*/true,
                                             1, 4)});
    for (Node* param : params) ast_->push_kid(node, param);
  }
  pop_scope();
  return node;
}

Node* ProgramGenerator::gen_template_literal(int depth) {
  Node* node = ast_->make(NodeKind::kTemplateLiteral);
  Node* head = ast_->make(NodeKind::kTemplateElement);
  head->str_value =
      ast_->intern(std::string(rng_.choice(string_pool())) + " ");
  Node* tail = ast_->make(NodeKind::kTemplateElement);
  tail->str_value = rng_.bernoulli(0.5)
                        ? ast_->intern(std::string(" ") +
                                       std::string(rng_.choice(string_pool())))
                        : std::string_view();
  ast_->set_kids(node, {head,
                        depth > 0 ? gen_expression(depth - 1)
                                  : gen_reference(),
                        tail});
  return node;
}

Node* ProgramGenerator::gen_expression(int depth) {
  switch (rng_.index(12)) {
    case 0: case 1:
      return gen_literal();
    case 2: case 3:
      return gen_reference();
    case 4: case 5:
      return gen_member(depth);
    case 6: case 7:
      return gen_call(depth);
    case 8:
      return gen_binary(depth);
    case 9:
      return rng_.bernoulli(0.5) ? gen_object_literal(depth)
                                 : gen_array_literal(depth);
    case 10:
      if (rng_.bernoulli(0.35) && depth > 0) {
        Node* ternary = ast_->make(NodeKind::kConditionalExpression);
        ast_->set_kids(ternary, {gen_binary(depth - 1),
                                 gen_expression(depth - 1), gen_literal()});
        return ternary;
      }
      return gen_function_expression(std::max(depth - 1, 0),
                                     rng_.bernoulli(0.5));
    default:
      if (rng_.bernoulli(0.2)) return gen_template_literal(depth);
      if (rng_.bernoulli(0.1)) {
        return ast_->make_regex("^[a-z]+$", rng_.bernoulli(0.5) ? "i" : "");
      }
      return gen_call(depth);
  }
}

// --- statements ------------------------------------------------------

Node* ProgramGenerator::gen_declaration(int depth) {
  Node* declaration = ast_->make(NodeKind::kVariableDeclaration);
  switch (rng_.index(3)) {
    case 0: declaration->str_value = "var"; break;
    case 1: declaration->str_value = "let"; break;
    default: declaration->str_value = "const"; break;
  }
  const std::size_t declarator_count = rng_.bernoulli(0.85) ? 1 : 2;
  const bool is_const = declaration->str_value == "const";
  for (std::size_t i = 0; i < declarator_count; ++i) {
    Node* declarator = ast_->make(NodeKind::kVariableDeclarator);
    // Generate the initializer before declaring the name so it cannot
    // reference itself; const always gets one.
    Node* init = (is_const || rng_.bernoulli(0.9)) ? gen_expression(depth)
                                                   : nullptr;
    Node* id = ast_->make_identifier(declare());
    ast_->set_kids(declarator, {id, init});
    ast_->push_kid(declaration, declarator);
  }
  return declaration;
}

Node* ProgramGenerator::gen_block(int depth, bool inside_function,
                                  std::size_t min_statements,
                                  std::size_t max_statements) {
  push_scope();
  Node* block = ast_->make(NodeKind::kBlockStatement);
  const std::size_t count =
      min_statements + rng_.index(max_statements - min_statements + 1);
  for (std::size_t i = 0; i < count; ++i) {
    ast_->push_kid(block, gen_statement(depth - 1, inside_function));
  }
  if (inside_function && rng_.bernoulli(0.4)) {
    Node* return_statement = ast_->make(NodeKind::kReturnStatement);
    ast_->set_kids(return_statement,
                   {rng_.bernoulli(0.8) ? gen_expression(std::max(depth - 1, 0))
                                        : nullptr});
    ast_->push_kid(block, return_statement);
  }
  pop_scope();
  return block;
}

Node* ProgramGenerator::gen_if(int depth, bool inside_function) {
  Node* node = ast_->make(NodeKind::kIfStatement);
  Node* test = gen_binary(std::max(depth - 1, 0));
  Node* consequent = gen_block(depth, inside_function, 1, 3);
  Node* alternate = nullptr;
  if (rng_.bernoulli(0.4)) {
    alternate = rng_.bernoulli(0.25)
                    ? gen_if(std::max(depth - 1, 0), inside_function)
                    : gen_block(depth, inside_function, 1, 2);
  }
  ast_->set_kids(node, {test, consequent, alternate});
  return node;
}

Node* ProgramGenerator::gen_for(int depth, bool inside_function) {
  push_scope();
  // for (var i = 0; i < list.length; i++) { ... }
  const std::string counter = rng_.bernoulli(0.7) ? "i" : declare(1);
  scopes_.back().push_back(counter);
  Node* init_declarator = ast_->make(NodeKind::kVariableDeclarator);
  ast_->set_kids(init_declarator, {ast_->make_identifier(counter),
                                   ast_->make_number(0.0)});
  Node* init = ast_->make(NodeKind::kVariableDeclaration);
  init->str_value = rng_.bernoulli(0.6) ? "var" : "let";
  ast_->set_kids(init, {init_declarator});

  Node* limit = ast_->make(NodeKind::kMemberExpression);
  ast_->set_kids(limit, {gen_reference(), ast_->make_identifier("length")});
  Node* test = ast_->make(NodeKind::kBinaryExpression);
  test->str_value = "<";
  ast_->set_kids(test, {ast_->make_identifier(counter), limit});

  Node* update = ast_->make(NodeKind::kUpdateExpression);
  update->str_value = "++";
  update->flag_a = false;
  ast_->set_kids(update, {ast_->make_identifier(counter)});

  Node* node = ast_->make(NodeKind::kForStatement);
  ast_->set_kids(node,
                 {init, test, update, gen_block(depth, inside_function, 1, 3)});
  pop_scope();
  return node;
}

Node* ProgramGenerator::gen_for_of(int depth, bool inside_function) {
  push_scope();
  Node* left_declarator = ast_->make(NodeKind::kVariableDeclarator);
  ast_->set_kids(left_declarator, {ast_->make_identifier(declare(1)), nullptr});
  Node* left = ast_->make(NodeKind::kVariableDeclaration);
  left->str_value = rng_.bernoulli(0.5) ? "const" : "let";
  ast_->set_kids(left, {left_declarator});
  Node* node = ast_->make(NodeKind::kForOfStatement);
  ast_->set_kids(node, {left, gen_reference(),
                        gen_block(depth, inside_function, 1, 3)});
  pop_scope();
  return node;
}

Node* ProgramGenerator::gen_while(int depth, bool inside_function) {
  Node* node = ast_->make(NodeKind::kWhileStatement);
  ast_->set_kids(node, {gen_binary(std::max(depth - 1, 0)),
                        gen_block(depth, inside_function, 1, 2)});
  return node;
}

Node* ProgramGenerator::gen_switch(int depth, bool inside_function) {
  Node* node = ast_->make(NodeKind::kSwitchStatement);
  ast_->set_kids(node, {gen_reference()});
  const std::size_t case_count = 2 + rng_.index(3);
  for (std::size_t i = 0; i < case_count; ++i) {
    Node* switch_case = ast_->make(NodeKind::kSwitchCase);
    ast_->set_kids(switch_case, {gen_string_literal()});
    ast_->push_kid(switch_case, gen_statement(depth - 1, inside_function));
    Node* break_statement = ast_->make(NodeKind::kBreakStatement);
    ast_->set_kids(break_statement, {nullptr});
    ast_->push_kid(switch_case, break_statement);
    ast_->push_kid(node, switch_case);
  }
  Node* default_case = ast_->make(NodeKind::kSwitchCase);
  ast_->set_kids(default_case, {nullptr});
  ast_->push_kid(default_case, gen_statement(depth - 1, inside_function));
  ast_->push_kid(node, default_case);
  return node;
}

Node* ProgramGenerator::gen_try(int depth, bool inside_function) {
  Node* node = ast_->make(NodeKind::kTryStatement);
  Node* block = gen_block(depth, inside_function, 1, 3);
  Node* handler = ast_->make(NodeKind::kCatchClause);
  push_scope();
  scopes_.back().push_back("err");
  ast_->set_kids(handler, {ast_->make_identifier("err"),
                           gen_block(depth, inside_function, 1, 2)});
  pop_scope();
  ast_->set_kids(node, {block, handler, nullptr});
  return node;
}

Node* ProgramGenerator::gen_function_declaration(int depth) {
  Node* node = ast_->make(NodeKind::kFunctionDeclaration);
  const std::string name = camel_identifier(rng_, 2);
  scopes_.back().push_back(name);
  push_scope();
  std::vector<Node*> params;
  const std::size_t param_count = rng_.index(4);
  for (std::size_t i = 0; i < param_count; ++i) {
    params.push_back(ast_->make_identifier(declare(1)));
  }
  Node* body = gen_block(depth, /*inside_function=*/true, 2, 6);
  pop_scope();
  ast_->set_kids(node, {ast_->make_identifier(name), body});
  for (Node* param : params) ast_->push_kid(node, param);
  return node;
}

Node* ProgramGenerator::gen_class_declaration(int depth) {
  Node* node = ast_->make(NodeKind::kClassDeclaration);
  const std::string name = pascal_identifier(rng_, 2);
  scopes_.back().push_back(name);
  Node* body = ast_->make(NodeKind::kClassBody);
  const std::size_t method_count = 1 + rng_.index(3);
  // Constructor.
  {
    Node* method = ast_->make(NodeKind::kMethodDefinition);
    method->str_value = "constructor";
    push_scope();
    Node* param = ast_->make_identifier(declare(1));
    Node* function = ast_->make(NodeKind::kFunctionExpression);
    // this.<prop> = param;
    Node* block = ast_->make(NodeKind::kBlockStatement);
    Node* member = ast_->make(NodeKind::kMemberExpression);
    ast_->set_kids(member, {ast_->make(NodeKind::kThisExpression),
                            ast_->make_identifier(std::string(
                                rng_.choice(property_names())))});
    Node* assignment = ast_->make(NodeKind::kAssignmentExpression);
    assignment->str_value = "=";
    ast_->set_kids(assignment,
                   {member, ast_->make_identifier(param->str_value)});
    Node* statement = ast_->make(NodeKind::kExpressionStatement);
    ast_->set_kids(statement, {assignment});
    ast_->set_kids(block, {statement});
    pop_scope();
    ast_->set_kids(function, {nullptr, block, param});
    ast_->set_kids(method, {ast_->make_identifier("constructor"), function});
    ast_->push_kid(body, method);
  }
  for (std::size_t i = 0; i < method_count; ++i) {
    Node* method = ast_->make(NodeKind::kMethodDefinition);
    method->str_value = "method";
    push_scope();
    Node* function = ast_->make(NodeKind::kFunctionExpression);
    ast_->set_kids(function,
                   {nullptr, gen_block(depth, /*inside_function=*/true, 1, 4)});
    pop_scope();
    ast_->set_kids(method, {ast_->make_identifier(camel_identifier(rng_, 2)),
                            function});
    ast_->push_kid(body, method);
  }
  ast_->set_kids(node, {ast_->make_identifier(name), nullptr, body});
  return node;
}

Node* ProgramGenerator::gen_statement(int depth, bool inside_function) {
  if (depth <= 0) {
    // Leaf statements only.
    Node* statement = ast_->make(NodeKind::kExpressionStatement);
    ast_->set_kids(statement,
                   {rng_.bernoulli(0.6) ? gen_call(0) : gen_binary(0)});
    return statement;
  }
  switch (rng_.index(14)) {
    case 0: case 1: case 2:
      return gen_declaration(depth - 1);
    case 3: case 4: {
      Node* statement = ast_->make(NodeKind::kExpressionStatement);
      ast_->set_kids(statement, {gen_call(depth - 1)});
      return statement;
    }
    case 5: {
      // assignment
      Node* assignment = ast_->make(NodeKind::kAssignmentExpression);
      assignment->str_value = rng_.bernoulli(0.85) ? "=" : "+=";
      Node* target = rng_.bernoulli(0.5) && has_variables()
                         ? gen_reference()
                         : gen_member(0);
      ast_->set_kids(assignment, {target, gen_expression(depth - 1)});
      Node* statement = ast_->make(NodeKind::kExpressionStatement);
      ast_->set_kids(statement, {assignment});
      return statement;
    }
    case 6: case 7:
      return gen_if(depth, inside_function);
    case 8:
      return gen_for(depth, inside_function);
    case 9:
      return rng_.bernoulli(0.6) ? gen_for_of(depth, inside_function)
                                 : gen_while(depth, inside_function);
    case 10:
      return rng_.bernoulli(0.35) ? gen_switch(depth, inside_function)
                                  : gen_if(depth, inside_function);
    case 11:
      return rng_.bernoulli(0.4) ? gen_try(depth, inside_function)
                                 : gen_declaration(depth - 1);
    case 12:
      if (inside_function && rng_.bernoulli(0.5)) {
        Node* return_statement = ast_->make(NodeKind::kReturnStatement);
        ast_->set_kids(return_statement, {gen_expression(depth - 1)});
        return return_statement;
      }
      return gen_function_declaration(std::max(depth - 1, 1));
    default: {
      Node* statement = ast_->make(NodeKind::kExpressionStatement);
      ast_->set_kids(statement, {gen_expression(depth - 1)});
      return statement;
    }
  }
}

Node* ProgramGenerator::gen_top_level_item(const GeneratorOptions& options) {
  const int depth = 3;
  if (options.flavor == 2 && rng_.bernoulli(0.25)) {
    // var lib = require("name");
    Node* call = ast_->make(NodeKind::kCallExpression);
    ast_->set_kids(call, {ast_->make_identifier("require"),
                          ast_->make_string(camel_identifier(rng_, 1))});
    Node* declarator = ast_->make(NodeKind::kVariableDeclarator);
    ast_->set_kids(declarator, {ast_->make_identifier(declare(1)), call});
    Node* declaration = ast_->make(NodeKind::kVariableDeclaration);
    declaration->str_value = rng_.bernoulli(0.5) ? "const" : "var";
    ast_->set_kids(declaration, {declarator});
    return declaration;
  }
  if (options.flavor == 1 && rng_.bernoulli(0.2)) {
    // document.addEventListener("...", function () { ... });
    Node* member = ast_->make(NodeKind::kMemberExpression);
    ast_->set_kids(member, {ast_->make_identifier("document"),
                            ast_->make_identifier("addEventListener")});
    Node* call = ast_->make(NodeKind::kCallExpression);
    ast_->set_kids(call, {member, gen_string_literal(),
                          gen_function_expression(2, rng_.bernoulli(0.4))});
    Node* statement = ast_->make(NodeKind::kExpressionStatement);
    ast_->set_kids(statement, {call});
    return statement;
  }
  switch (rng_.index(8)) {
    case 0: case 1: case 2:
      return gen_function_declaration(depth);
    case 3:
      return options.allow_classes ? gen_class_declaration(depth)
                                   : gen_function_declaration(depth);
    case 4: case 5:
      return gen_declaration(depth);
    case 6: {
      // IIFE module pattern.
      Node* function = gen_function_expression(depth, /*arrow=*/false);
      Node* call = ast_->make(NodeKind::kCallExpression);
      ast_->set_kids(call, {function});
      Node* statement = ast_->make(NodeKind::kExpressionStatement);
      ast_->set_kids(statement, {call});
      return statement;
    }
    default:
      return gen_statement(depth, /*inside_function=*/false);
  }
}

std::string ProgramGenerator::inject_comments(const std::string& source,
                                              const GeneratorOptions& options) {
  std::vector<std::string> lines = strings::split(source, '\n');
  std::string out;
  out.reserve(source.size() + source.size() / 4);

  // File header comment.
  if (rng_.bernoulli(0.6)) {
    out += "/**\n * ";
    out += rng_.choice(comment_pool());
    out += "\n * ";
    out += rng_.choice(comment_pool());
    out += "\n */\n";
  }
  for (const std::string& line : lines) {
    if (rng_.bernoulli(options.comment_line_probability)) {
      // Match the line's indentation.
      std::size_t indent = 0;
      while (indent < line.size() && line[indent] == ' ') ++indent;
      out += line.substr(0, indent);
      out += "// ";
      out += rng_.choice(comment_pool());
      out += '\n';
    }
    if (rng_.bernoulli(kBlankLineProbability)) out += '\n';
    out += line;
    out += '\n';
  }
  return out;
}

std::string ProgramGenerator::generate(const GeneratorOptions& options) {
  Ast ast;
  ast_ = &ast;
  scopes_.clear();
  push_scope();

  // Keep appending top-level items until the printed source is big
  // enough. Each item is printed once, as it is made: the printer's size
  // is what to_source of the program so far would return.
  ProgramPrinter printer;
  for (std::size_t items = 1; items <= kMaxTopLevelItems; ++items) {
    printer.append(*gen_top_level_item(options));
    if (items >= 3 && printer.size() >= options.min_bytes) break;
  }

  pop_scope();
  ast_ = nullptr;
  return inject_comments(printer.take(), options);
}

}  // namespace jst::corpus
