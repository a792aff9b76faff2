#include "features/analysis_pipeline.h"

#include "ast/walk.h"
#include "obs/trace.h"

namespace jst {

ScriptAnalysis analyze_script(std::string_view source,
                              const AnalysisOptions& options) {
  ScriptAnalysis analysis;
  analysis.parse =
      parse_program(source, options.budget, options.arena, options.atoms,
                    options.window);
  if (options.build_cfg) {
    JST_SPAN("cfg");
    if (options.budget != nullptr) options.budget->set_stage("cfg");
    analysis.control_flow = build_control_flow(
        analysis.parse.ast, options.budget, options.cfg_scratch);
  }
  if (options.build_dataflow) {
    JST_SPAN("dataflow");
    if (options.budget != nullptr) options.budget->set_stage("dataflow");
    DataFlowOptions dataflow_options;
    dataflow_options.node_budget = options.dataflow_node_budget;
    dataflow_options.budget = options.budget;
    dataflow_options.scratch = options.dataflow_scratch;
    analysis.data_flow = build_data_flow(analysis.parse.ast, dataflow_options);
  }
  return analysis;
}

bool size_eligible(std::string_view source) {
  return source.size() >= 512 && source.size() <= 2 * 1024 * 1024;
}

bool script_eligible(const ScriptAnalysis& analysis,
                     std::vector<const Node*>* walk_stack) {
  if (analysis.parse.source_bytes < 512 ||
      analysis.parse.source_bytes > 2 * 1024 * 1024) {
    return false;
  }
  return ast_eligible(analysis, walk_stack);
}

namespace {

bool eligibility_node(const Node& node) {
  switch (node.kind) {
    // Conditional control-flow nodes (paper footnote 2).
    case NodeKind::kDoWhileStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kForStatement:
    case NodeKind::kForOfStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kIfStatement:
    case NodeKind::kConditionalExpression:
    case NodeKind::kTryStatement:
    case NodeKind::kSwitchStatement:
    // Function nodes (paper footnote 3).
    case NodeKind::kArrowFunctionExpression:
    case NodeKind::kFunctionExpression:
    case NodeKind::kFunctionDeclaration:
    // CallExpression (incl. tagged templates, footnote 4).
    case NodeKind::kCallExpression:
    case NodeKind::kTaggedTemplateExpression:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool ast_eligible(const ScriptAnalysis& analysis,
                  std::vector<const Node*>* walk_stack) {
  // Any qualifying node anywhere in the tree decides the answer, so the
  // walk returns at the first hit — typical scripts qualify within the
  // first few statements, where the previous implementation always
  // visited every node. Explicit stack: expression-chain depth is not
  // bounded by the parser's statement recursion guard.
  const Node* root = analysis.parse.ast.root();
  if (root == nullptr) return false;
  std::vector<const Node*> local_stack;
  std::vector<const Node*>& stack =
      walk_stack != nullptr ? *walk_stack : local_stack;
  stack.clear();
  stack.push_back(root);
  bool eligible = false;
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (eligibility_node(*node)) {
      eligible = true;
      break;
    }
    for (std::size_t i = node->kids.size(); i > 0; --i) {
      if (node->kids[i - 1] != nullptr) stack.push_back(node->kids[i - 1]);
    }
  }
  stack.clear();
  return eligible;
}

}  // namespace jst
