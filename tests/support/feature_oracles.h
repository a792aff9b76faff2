// Test oracle for the hand-picked switch_in_loop counter (DESIGN.md §17).
//
// Production reads each infinite loop's body from its subtree-reach bits
// (kReachSwitch, set by Ast::finalize). The oracle is the body walk it
// replaced, kept verbatim: a fresh pre-order walk of every infinite
// loop's whole body, with no early exit.
#pragma once

#include <cstddef>

#include "ast/walk.h"

namespace jst::oracle {

// Whether `body` or any node below it is a SwitchStatement.
inline bool contains_switch_statement(const Node& body) {
  bool found = false;
  for_each_preorder(&body, [&found](const Node& node) {
    if (node.kind == NodeKind::kSwitchStatement) found = true;
  });
  return found;
}

// Infinite loops under `root` (while(true), do..while(true), for(;;))
// whose body holds a switch: the control-flow-flattening dispatcher.
inline std::size_t switch_in_loop(const Node& root) {
  std::size_t count = 0;
  for_each_preorder(&root, [&count](const Node& node) {
    const Node* test = nullptr;
    const Node* body = nullptr;
    switch (node.kind) {
      case NodeKind::kWhileStatement:
        test = node.kid(0);
        body = node.kid(1);
        break;
      case NodeKind::kDoWhileStatement:
        test = node.kid(1);
        body = node.kid(0);
        break;
      case NodeKind::kForStatement:
        if (node.kid(1) != nullptr) return;  // has a test
        body = node.kid(3);
        break;
      default:
        return;
    }
    if (node.kind != NodeKind::kForStatement &&
        (test == nullptr || test->kind != NodeKind::kLiteral ||
         test->lit_kind != LiteralKind::kBoolean || test->num_value == 0.0)) {
      return;
    }
    if (body != nullptr && contains_switch_statement(*body)) ++count;
  });
  return count;
}

}  // namespace jst::oracle
