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

}  // namespace jst
