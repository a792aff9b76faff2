// Synthetic "regular JavaScript" generator.
//
// Stands in for the paper's crawl of popular GitHub projects and JS
// libraries (§III-D1): grammar-driven construction of parseable,
// idiomatic, commented source with realistic identifier vocabulary,
// scope-respecting references, and three stylistic flavors (generic,
// browser, Node.js). The output passes the paper's eligibility filter
// (>=512 bytes, contains conditionals/functions/calls).
#pragma once

#include <string>

#include "ast/ast.h"
#include "support/rng.h"

namespace jst::corpus {

struct GeneratorOptions {
  std::size_t min_bytes = 768;
  double comment_line_probability = 0.12;
  bool allow_classes = true;
  // Stylistic flavor: 0 = generic library, 1 = browser (DOM APIs),
  // 2 = Node.js (require/module.exports).
  int flavor = 0;
};

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed);

  // Generates one program. Deterministic for a given generator state.
  std::string generate(const GeneratorOptions& options = {});

  Rng& rng() { return rng_; }

 private:
  struct ScopeGuard;

  // --- scope ---
  void push_scope();
  void pop_scope();
  std::string declare(std::size_t name_words = 2);
  std::string random_variable();   // visible variable or a global object
  bool has_variables() const;

  // --- expressions ---
  Node* gen_expression(int depth);
  Node* gen_literal();
  Node* gen_string_literal();
  Node* gen_reference();
  Node* gen_member(int depth);
  Node* gen_call(int depth);
  Node* gen_binary(int depth);
  Node* gen_object_literal(int depth);
  Node* gen_array_literal(int depth);
  Node* gen_function_expression(int depth, bool arrow);
  Node* gen_template_literal(int depth);

  // --- statements ---
  Node* gen_statement(int depth, bool inside_function);
  Node* gen_declaration(int depth);
  Node* gen_if(int depth, bool inside_function);
  Node* gen_for(int depth, bool inside_function);
  Node* gen_for_of(int depth, bool inside_function);
  Node* gen_while(int depth, bool inside_function);
  Node* gen_switch(int depth, bool inside_function);
  Node* gen_try(int depth, bool inside_function);
  Node* gen_function_declaration(int depth);
  Node* gen_class_declaration(int depth);
  Node* gen_block(int depth, bool inside_function, std::size_t min_statements,
                  std::size_t max_statements);
  Node* gen_top_level_item(const GeneratorOptions& options);

  // --- post-processing ---
  std::string inject_comments(const std::string& source,
                              const GeneratorOptions& options);

  Rng rng_;
  Ast* ast_ = nullptr;  // valid during generate()
  std::vector<std::vector<std::string>> scopes_;
};

}  // namespace jst::corpus
