// Differential static-analysis suite (DESIGN.md §17): the observable
// result of the scope/data-flow pass and the control-flow builder —
// every Binding field, edge lists in emission order, scope/unresolved
// counts, and BudgetTrip stage+message — is fingerprinted and pinned to
// oracle constants captured from the pre-flattening implementation
// (scope-chain hash maps, per-binding vectors, sort+unique CFG). The
// flat SoA/CSR rebuild must reproduce every fingerprint bit for bit,
// across scratch reuse, JSFuck-style assignment chains, tens of
// thousands of distinct identifiers, deep let/const shadowing, and
// catch-parameter scopes. The edge lists come from the reference
// builders (support/graph_oracles.h), since production keeps only counts;
// every fixture also checks that production's counts, bindings and trip
// equal the reference's. The suite carries the `robustness` label so
// the asan/ubsan presets run the open-addressed tables and pooled spans
// under the sanitizers, and it runs in the JST_THREADS 1/4 matrix
// alongside the other bit-identity gates.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "parser/parser.h"
#include "support/budget.h"
#include "support/graph_oracles.h"

namespace jst {
namespace {

// FNV-1a 64: cheap, dependency-free, and stable across platforms for the
// byte strings below.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Serializes everything a consumer can observe about one data-flow
// result. Node identity is the stable finalize() id, so the text is
// deterministic for a given source and independent of allocation
// addresses — and of whether sites live in per-binding vectors (old) or
// pooled spans (new).
std::string dataflow_fingerprint_text(const oracle::DataFlow& flow) {
  std::string out;
  out.reserve(4096);
  const auto append_u64 = [&out](std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    out += buffer;
  };
  out += flow.completed ? "completed " : "stopped ";
  out += "scopes=";
  append_u64(flow.scope_count);
  out += " unresolved=";
  append_u64(flow.unresolved_uses);
  out += '\n';
  if (flow.tripped.has_value()) {
    out += "trip ";
    out += flow.tripped->stage;
    out += ' ';
    out += flow.tripped->to_string();
    out += '\n';
  }
  for (const Binding& binding : flow.bindings) {
    out += 'B';
    out.append(binding.name.data(), binding.name.size());
    out += ' ';
    append_u64(binding.declaration != nullptr ? binding.declaration->id
                                              : 0xffffffffu);
    out += binding.is_parameter ? " p" : " -";
    out += binding.is_function_name ? "f " : "- ";
    append_u64(binding.init != nullptr ? binding.init->id : 0xffffffffu);
    out += " a[";
    for (const Node* site : binding.assignments) {
      append_u64(site->id);
      out += ',';
    }
    out += "] u[";
    for (const Node* site : binding.uses) {
      append_u64(site->id);
      out += ',';
    }
    out += "]\n";
  }
  out += 'E';
  for (const auto& [from, to] : flow.edges) {
    append_u64(from);
    out += ':';
    append_u64(to);
    out += ' ';
  }
  out += '\n';
  return out;
}

std::string cfg_fingerprint_text(const oracle::ControlFlow& cfg) {
  std::string out;
  out.reserve(1024);
  const auto append_u64 = [&out](std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    out += buffer;
  };
  out += "branches=";
  append_u64(cfg.branch_node_count());
  out += " back=";
  append_u64(cfg.back_edge_count());
  out += "\nE";
  for (const auto& [from, to] : cfg.edges) {
    append_u64(from);
    out += ':';
    append_u64(to);
    out += ' ';
  }
  out += '\n';
  return out;
}

// Parses `source` and fingerprints the reference data flow + control
// flow together. `limits` attaches a Budget the way the pipeline does
// (shared across both passes, stage labels included in any trip). The
// production passes, run the same way, must agree with the reference.
std::uint64_t analysis_fingerprint(const std::string& source,
                                   const ResourceLimits& limits = {},
                                   DataFlowScratch* scratch = nullptr,
                                   std::size_t node_budget = 2'000'000) {
  ParseResult parsed = parse_program(source);
  Budget budget(limits);
  Budget* attached = limits.any_enabled() ? &budget : nullptr;
  if (attached != nullptr) attached->set_stage("cfg");
  const oracle::ControlFlow cfg =
      oracle::build_control_flow(parsed.ast, attached);
  if (attached != nullptr) attached->set_stage("dataflow");
  DataFlowOptions options;
  options.node_budget = node_budget;
  options.budget = attached;
  options.scratch = scratch;
  const oracle::DataFlow flow = oracle::build_data_flow(parsed.ast, options);
  const std::uint64_t fingerprint =
      fnv1a(dataflow_fingerprint_text(flow) + cfg_fingerprint_text(cfg));
  EXPECT_EQ(oracle::graph_mismatch(parsed.ast, limits, options), "");
  return fingerprint;
}

// --- hostile program generators ---------------------------------------

// JSFuck-shaped assignment chain: v0 seeds from coerced empties, each
// following term re-assigns the previous one forward. `terms` variables,
// one def + one use each — the linear-chain shape JSFuck emits.
std::string jsfuck_chain(std::size_t terms) {
  std::string source = "var v0 = +[];\n";
  source.reserve(terms * 32);
  for (std::size_t i = 1; i < terms; ++i) {
    char line[96];
    std::snprintf(line, sizeof(line), "var v%zu = v%zu + (!+[] + []);\n", i,
                  i - 1);
    source += line;
  }
  return source;
}

// One accumulator written and read `writes` times: the def × use product
// path (every write reaches every later-or-equal read in the emission
// rule), quadratic in `writes`.
std::string jsfuck_accumulator(std::size_t writes) {
  std::string source = "var acc = [];\n";
  source.reserve(writes * 24);
  for (std::size_t i = 0; i < writes; ++i) {
    source += "acc = acc + [+[]];\n";
  }
  return source;
}

// `count` distinct identifiers, each declared once and read once —
// stresses the atom table and binding map growth paths.
std::string distinct_identifiers(std::size_t count) {
  std::string source;
  source.reserve(count * 28);
  for (std::size_t i = 0; i < count; ++i) {
    char line[80];
    std::snprintf(line, sizeof(line), "var id%zu = 1; sink(id%zu);\n", i, i);
    source += line;
  }
  return source;
}

// `depth` nested blocks, each re-declaring the same two names with
// let/const and reading the shadowed outer value first.
std::string deep_shadowing(std::size_t depth) {
  std::string source = "let x = 0; const y = 0;\n";
  source.reserve(depth * 48);
  for (std::size_t i = 0; i < depth; ++i) {
    source += "{ let x = y + 1; const y = x + 1; sink(x + y);\n";
  }
  source += "sink(x + y);\n";
  for (std::size_t i = 0; i < depth; ++i) source += "}\n";
  return source;
}

// Nested try/catch with re-used catch-parameter names: catch scopes are
// the one binding form with their own single-purpose scope kind.
std::string catch_scopes(std::size_t depth) {
  std::string source = "var e = 'outer';\n";
  source.reserve(depth * 64);
  for (std::size_t i = 0; i < depth; ++i) {
    source += "try { risky(e); } catch (e) { sink(e); let c = e;\n";
  }
  source += "sink(e);\n";
  for (std::size_t i = 0; i < depth; ++i) source += "}\n";
  return source;
}

// A mixed fixture exercising every scope and site form the builder
// handles: hoisting, function-expression names, parameters and defaults,
// destructuring patterns, for-in/of heads, switch-case lexical scope,
// compound assignment, update expressions, and unresolved globals.
const char* kMixedFixture = R"js(
function outer(a, { b, c: [d = a] }, ...rest) {
  var hoisted = a + b;
  inner(hoisted);
  function inner(x) { return x + d + rest.length; }
  const f = function named(n) { return n > 0 ? named(n - 1) : b; };
  let total = 0;
  for (var i = 0; i < 3; i++) total += f(i);
  for (const key in globalThing) total += key.length;
  for (const item of [a, b, d]) total += item;
  switch (total) {
    case 0: { let scoped = a; sinkA(scoped); break; }
    default: sinkB(total);
  }
  try { risky(); } catch ({ message }) { sinkC(message); }
  label: while (total-- > 0) { if (total === 1) continue label; }
  return (z) => z + total + unresolvedGlobal;
}
outer(1, { b: 2, c: [3] });
)js";

// --- oracle constants ---------------------------------------------------
//
// Captured from the pre-flattening implementation (PR 9 tree) by running
// this suite with JST_PRINT_ORACLES=1; see DESIGN.md §17. A change to any
// constant is a behavior change in the static-analysis stage and needs a
// deliberate re-capture, not a drive-by edit.

constexpr std::uint64_t kOracleMixed = 0x9f2540e8a2837f1e;
constexpr std::uint64_t kOracleJsFuckChain10k = 0x7a2ba0687a0f7efe;
constexpr std::uint64_t kOracleAccumulator300 = 0x46bd7c4045569ee3;
constexpr std::uint64_t kOracleDistinct50k = 0x8a38d916148bfb24;
constexpr std::uint64_t kOracleShadow200 = 0xac4c6c522688ac41;
constexpr std::uint64_t kOracleCatch64 = 0xa87110a83eba2e1d;
constexpr std::uint64_t kOracleEdgeTrip = 0xa0ccdbb7a6287ad9;
constexpr std::uint64_t kOracleNodeBudgetSkip = 0x3d0e921d7e3b4158;

bool print_oracles() {
  static const bool kPrint = std::getenv("JST_PRINT_ORACLES") != nullptr;
  return kPrint;
}

void expect_oracle(const char* label, std::uint64_t expected,
                   std::uint64_t actual) {
  if (print_oracles()) {
    std::printf("constexpr std::uint64_t %s = 0x%llx;\n", label,
                static_cast<unsigned long long>(actual));
    return;
  }
  EXPECT_EQ(expected, actual) << label;
}

// --- tests --------------------------------------------------------------

TEST(DataFlowDiff, MixedFixtureMatchesOracle) {
  expect_oracle("kOracleMixed", kOracleMixed,
                analysis_fingerprint(kMixedFixture));
}

TEST(DataFlowDiff, JsFuckChain10kMatchesOracle) {
  expect_oracle("kOracleJsFuckChain10k", kOracleJsFuckChain10k,
                analysis_fingerprint(jsfuck_chain(10'000)));
}

TEST(DataFlowDiff, Accumulator300MatchesOracle) {
  expect_oracle("kOracleAccumulator300", kOracleAccumulator300,
                analysis_fingerprint(jsfuck_accumulator(300)));
}

TEST(DataFlowDiff, Distinct50kIdentifiersMatchesOracle) {
  expect_oracle("kOracleDistinct50k", kOracleDistinct50k,
                analysis_fingerprint(distinct_identifiers(50'000)));
}

TEST(DataFlowDiff, DeepShadowing200MatchesOracle) {
  expect_oracle("kOracleShadow200", kOracleShadow200,
                analysis_fingerprint(deep_shadowing(200)));
}

TEST(DataFlowDiff, CatchScopes64MatchesOracle) {
  expect_oracle("kOracleCatch64", kOracleCatch64,
                analysis_fingerprint(catch_scopes(64)));
}

// The edge ceiling stops emission mid-binding; the trip (stage, limits,
// observed count) and the truncation point are part of the contract.
TEST(DataFlowDiff, EdgeBudgetTripMatchesOracle) {
  ResourceLimits limits;
  limits.max_dataflow_edges = 100;
  expect_oracle("kOracleEdgeTrip", kOracleEdgeTrip,
                analysis_fingerprint(jsfuck_accumulator(300), limits));
}

// Oversized ASTs skip the pass entirely (completed=false, no bindings).
TEST(DataFlowDiff, NodeBudgetSkipMatchesOracle) {
  expect_oracle("kOracleNodeBudgetSkip", kOracleNodeBudgetSkip,
                analysis_fingerprint(jsfuck_chain(1'000), {}, nullptr,
                                     /*node_budget=*/16));
}

// One scratch reused across the whole hostile corpus must reproduce the
// fresh-scratch fingerprint for every script — twice, so capacity grown
// by the big scripts is replayed over the small ones.
TEST(DataFlowDiff, ScratchReuseIsObservationallyIdentical) {
  const std::vector<std::string> corpus = {
      kMixedFixture,          jsfuck_chain(2'000),  jsfuck_accumulator(120),
      distinct_identifiers(5'000), deep_shadowing(64), catch_scopes(16),
  };
  std::vector<std::uint64_t> fresh;
  fresh.reserve(corpus.size());
  for (const std::string& source : corpus) {
    fresh.push_back(analysis_fingerprint(source));
  }
  DataFlowScratch scratch;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(fresh[i], analysis_fingerprint(corpus[i], {}, &scratch))
          << "script " << i << " round " << round;
    }
  }
}

// Budgeted and unbudgeted runs agree wherever no ceiling trips: a Budget
// generous enough to never fire must not perturb any observable output.
TEST(DataFlowDiff, GenerousBudgetIsObservationallyIdentical) {
  const std::vector<std::string> corpus = {
      kMixedFixture, jsfuck_accumulator(120), deep_shadowing(64),
      catch_scopes(16)};
  for (const std::string& source : corpus) {
    EXPECT_EQ(analysis_fingerprint(source),
              analysis_fingerprint(source, ResourceLimits::production()));
  }
}

}  // namespace
}  // namespace jst
