// AST -> JavaScript source printer.
//
// Two modes:
//  - Pretty: indented by two spaces, one statement per line, spaces around
//    operators — the "regular code" shape.
//  - Minified: no redundant whitespace, everything on one line — the shape
//    produced by minifiers (the minification transformers build on this).
//
// The printer is precedence-aware: children are parenthesized exactly when
// required, so print(parse(print(ast))) is a fixed point.
#pragma once

#include <memory>
#include <string>

#include "ast/ast.h"

namespace jst {

struct CodegenOptions {
  bool minify = false;
  // In minified mode, insert a newline after roughly this many characters
  // (0 = never). Real minifiers wrap around 500-32000 chars; keeping a
  // finite line length makes char-per-line features realistic.
  std::size_t minified_line_limit = 0;
};

// Renders a full program (or any statement/expression subtree).
std::string generate(const Node* root, const CodegenOptions& options = {});

// Convenience wrappers.
std::string to_source(const Node* root);           // pretty
std::string to_minified_source(const Node* root);  // minified

// Prints a program one top-level statement at a time into one growing
// buffer, with the printer generate() uses. Printing a statement reads
// nothing an earlier statement left behind but the text itself, so after
// appending s1..sk the text is exactly generate() of a program whose body
// is s1..sk, and the earlier statements are never printed again.
class ProgramPrinter {
 public:
  explicit ProgramPrinter(const CodegenOptions& options = {});
  ~ProgramPrinter();
  ProgramPrinter(const ProgramPrinter&) = delete;
  ProgramPrinter& operator=(const ProgramPrinter&) = delete;

  void append(const Node& statement);
  // generate(program).size() for the statements appended so far.
  std::size_t size() const;
  // generate(program) for the statements appended so far; leaves the
  // printer empty.
  std::string take();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace jst
