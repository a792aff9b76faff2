// Robustness sweeps: randomly mutated / truncated / garbage inputs must
// never crash the lexer, parser, or analysis pipeline — every failure is
// a clean ParseError. This is the property a static analyzer of
// adversarial JavaScript must hold unconditionally.
//
// The HostileInputs suite below extends the property to resource
// governance (DESIGN.md §10): crafted pathological scripts — deep
// nesting, megabyte literals, JSFuck-style token floods — must trip the
// matching ResourceLimits ceiling into its dedicated ScriptStatus with a
// populated diagnostic, never an exception out of the service, and the
// governed batch must stay bit-identical across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/service.h"
#include "corpus/generator.h"
#include "corpus/snippets.h"
#include "features/feature_extractor.h"
#include "hostile_inputs.h"
#include "parser/parser.h"
#include "support/rng.h"

namespace jst {
namespace {

// Parses and, when parseable, pushes the result through the full feature
// pipeline. Returns true if it parsed. Any exception other than
// ParseError fails the test.
bool survives(const std::string& source) {
  try {
    features::FeatureConfig config;
    config.ngram.hash_dim = 32;
    features::extract_from_source(source, config);
    return true;
  } catch (const ParseError&) {
    return false;  // clean rejection
  }
}

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, ByteMutationsNeverCrash) {
  Rng rng(GetParam());
  corpus::ProgramGenerator generator(GetParam() * 31 + 1);
  corpus::GeneratorOptions options;
  options.min_bytes = 600;
  std::string source = generator.generate(options);

  for (int round = 0; round < 60; ++round) {
    std::string mutated = source;
    const std::size_t edits = 1 + rng.index(8);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t position = rng.index(mutated.size());
      switch (rng.index(4)) {
        case 0:  // flip to random printable
          mutated[position] =
              static_cast<char>(32 + rng.index(95));
          break;
        case 1:  // delete
          mutated.erase(position, 1 + rng.index(4));
          break;
        case 2:  // duplicate a slice
          mutated.insert(position,
                         mutated.substr(position, 1 + rng.index(12)));
          break;
        default:  // insert structural character
          mutated.insert(position, 1, "{}()[];'\"`\\$"[rng.index(12)]);
      }
    }
    survives(mutated);  // must not crash either way
  }
  SUCCEED();
}

TEST_P(MutationFuzz, TruncationsNeverCrash) {
  corpus::ProgramGenerator generator(GetParam() * 17 + 3);
  corpus::GeneratorOptions options;
  options.min_bytes = 800;
  const std::string source = generator.generate(options);
  for (std::size_t cut = 1; cut < source.size(); cut += 37) {
    survives(source.substr(0, cut));
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Fuzz, PureGarbage) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const std::size_t size = 1 + rng.index(300);
    for (std::size_t i = 0; i < size; ++i) {
      garbage.push_back(static_cast<char>(rng.index(256)));
    }
    survives(garbage);
  }
  SUCCEED();
}

TEST(Fuzz, PathologicalRepetition) {
  // Deep/long constructs that stress recursion and buffers.
  survives(std::string(5000, '('));
  survives(std::string(5000, '['));
  survives(std::string(5000, '{'));
  survives("var x = " + std::string(2000, '!') + "1;");
  survives("a" + std::string(3000, '.') + "b;");
  std::string chain = "x = 1";
  for (int i = 0; i < 4000; ++i) chain += " + 1";
  EXPECT_TRUE(survives(chain + ";"));
  SUCCEED();
}

TEST(Fuzz, UnterminatedConstructsRejectCleanly) {
  EXPECT_FALSE(survives("var s = \"unterminated"));
  EXPECT_FALSE(survives("var t = `unterminated ${x"));
  EXPECT_FALSE(survives("/* comment never ends"));
  EXPECT_FALSE(survives("var r = /regex"));
  EXPECT_FALSE(survives("function f( {"));
}

// --- Resource-governed hostile inputs (DESIGN.md §10) -------------------

// Trained once for the whole suite; prediction quality is irrelevant
// here, only whether inference ran and that its output is deterministic.
const analysis::TransformationAnalyzer& fuzz_analyzer() {
  static const analysis::TransformationAnalyzer* kAnalyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 40;
    options.per_technique_count = 8;
    options.seed = 20260806;
    options.detector.forest.tree_count = 12;
    options.detector.features.ngram.hash_dim = 64;
    auto* analyzer = new analysis::TransformationAnalyzer(options);
    analyzer->train();
    return analyzer;
  }();
  return *kAnalyzer;
}

// A syntactically valid expression nested `depth` parentheses deep.
std::string deeply_nested(std::size_t depth) {
  std::string source = "var x = ";
  source.append(depth, '(');
  source += "1";
  source.append(depth, ')');
  source += ";";
  return source;
}

// JSFuck-style: no alphanumerics, just a flood of punctuator tokens.
std::string jsfuck_blob(std::size_t terms) {
  std::string source = "x = []";
  for (std::size_t i = 0; i < terms; ++i) source += "+[]";
  source += ";";
  return source;
}

// One megabyte-scale string literal in an otherwise tiny script.
std::string megabyte_literal() {
  std::string source = "var s = \"";
  source.append(1024 * 1024, 'a');
  source += "\";";
  return source;
}

// Many flat statements: floods AST nodes without nesting.
std::string statement_flood(std::size_t statements) {
  std::string source;
  for (std::size_t i = 0; i < statements; ++i) {
    source += "var a" + std::to_string(i) + " = " + std::to_string(i) + ";";
  }
  return source;
}

// One definition with many uses: floods def-use data-flow edges.
std::string dataflow_flood(std::size_t uses) {
  std::string source = "var v = 1; var sink = 0;";
  for (std::size_t i = 0; i < uses; ++i) source += "sink = v + v;";
  return source;
}

// Request-path adapter for the single-script assertions below.
analysis::ScriptOutcome analyze_source(const analysis::AnalyzerService& service,
                                       std::string source,
                                       const ResourceLimits& limits = {}) {
  return service
      .analyze(analysis::AnalyzeRequest::for_source(std::move(source)), limits)
      .outcome;
}

TEST(HostileInputs, SourceBytesCeilingTripsOnMegabyteLiteral) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_source_bytes = 64 * 1024;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, megabyte_literal(), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kIneligibleSize);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kSourceBytes);
  EXPECT_EQ(outcome.budget->limit, 64.0 * 1024.0);
  EXPECT_GT(outcome.budget->observed, 1024.0 * 1024.0);
  EXPECT_FALSE(outcome.has_predictions());
  EXPECT_FALSE(outcome.error_message.empty());
}

TEST(HostileInputs, TokenCeilingTripsOnJsfuckBlob) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_tokens = 1000;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, jsfuck_blob(2000), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kBudgetTokens);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kTokens);
  EXPECT_EQ(outcome.budget->limit, 1000.0);
  EXPECT_EQ(outcome.budget->observed, 1001.0);  // trips exactly past limit
  EXPECT_EQ(outcome.budget->stage, "lex");
  EXPECT_FALSE(outcome.has_predictions());
}

TEST(HostileInputs, AstNodeCeilingTripsOnStatementFlood) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_ast_nodes = 200;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, statement_flood(2000), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kBudgetAstNodes);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kAstNodes);
  EXPECT_EQ(outcome.budget->limit, 200.0);
  EXPECT_EQ(outcome.budget->observed, 201.0);
  EXPECT_FALSE(outcome.has_predictions());
}

TEST(HostileInputs, DepthCeilingTripsOnDeepNesting) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_ast_depth = 32;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, deeply_nested(200), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kBudgetDepth);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kAstDepth);
  EXPECT_EQ(outcome.budget->limit, 32.0);
  EXPECT_EQ(outcome.budget->observed, 33.0);
  EXPECT_FALSE(outcome.has_predictions());
}

TEST(HostileInputs, BudgetDepthTripsBeforeParserHardGuard) {
  // Nesting beyond the parser's own recursion ceiling: without limits the
  // hard guard raises ParseError; with a depth budget the structured
  // status wins, so governed services never see the raw exception text.
  analysis::AnalyzerService service(fuzz_analyzer());
  const analysis::ScriptOutcome ungoverned =
      analyze_source(service, deeply_nested(5000));
  EXPECT_EQ(ungoverned.status, analysis::ScriptStatus::kParseError);
  ResourceLimits limits = ResourceLimits::production();
  const analysis::ScriptOutcome governed =
      analyze_source(service, deeply_nested(5000), limits);
  EXPECT_EQ(governed.status, analysis::ScriptStatus::kBudgetDepth);
  ASSERT_TRUE(governed.budget.has_value());
  EXPECT_EQ(governed.budget->kind, ResourceKind::kAstDepth);
}

TEST(HostileInputs, DeepTemplateNestingHitsTheRecursionGuard) {
  // Each nested template's substitution is parsed in place; the nesting
  // counts toward the same guards as brackets do, so 10 000 levels fail
  // cleanly instead of overflowing the stack.
  const std::string source = hostile::deep_template(10000);
  try {
    parse_program(source);
    ADD_FAILURE() << "10 000-deep template nesting parsed";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting depth exceeded"),
              std::string::npos)
        << error.what();
  }
  analysis::AnalyzerService service(fuzz_analyzer());
  const analysis::ScriptOutcome governed =
      analyze_source(service, source, ResourceLimits::production());
  EXPECT_EQ(governed.status, analysis::ScriptStatus::kBudgetDepth);
}

TEST(HostileInputs, DeepTemplateChargesOneBudgetTokenPerToken) {
  // Substitutions are lexed once, in the one token stream, so the budget
  // is charged once per stream token plus once for the EOF token: 3 for
  // `var t =`, 200 heads, `1`, 200 tails and `;`.
  Budget budget(ResourceLimits::production());
  const ParseResult result =
      parse_program(hostile::deep_template(200), &budget);
  EXPECT_EQ(result.token_stats.count, 405u);
  EXPECT_EQ(budget.tokens_charged(), result.token_stats.count + 1);
}

TEST(HostileInputs, LexErrorAfterParseErrorWins) {
  // The parser meets `var = 1` long before the lexer reaches the
  // unterminated string; the error reported is still the lexer's, as if
  // the whole source were lexed before parsing began.
  std::string source = "var = 1;\n";
  for (int i = 0; i < 2000; ++i) source += "f(a, b);\n";
  source += "var s = \"abc";
  try {
    parse_program(source);
    ADD_FAILURE() << "parsed";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("unterminated string"),
              std::string::npos)
        << error.what();
    EXPECT_EQ(error.line(), 2002u);
  }
}

TEST(HostileInputs, TokenCeilingWinsOverAstNodeCeiling) {
  // Both ceilings are exceeded and the AST-node one is met first while
  // parsing; the token trip, in stage "lex", is the one reported.
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_ast_nodes = 50;
  limits.max_tokens = 5000;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, statement_flood(2000), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kBudgetTokens);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kTokens);
  EXPECT_EQ(outcome.budget->observed, 5001.0);
  EXPECT_EQ(outcome.budget->stage, "lex");
}

TEST(HostileInputs, ParenFloodsParseWithoutBlowingUp) {
  // 100 000 nested parentheses: the first '(' asks where it closes, which
  // is at the end of the script, so the whole flood enters the token
  // window once; the recursion guard then stops the parse cleanly.
  const std::size_t depth = 100000;
  const std::string nested =
      std::string(depth, '(') + "1" + std::string(depth, ')');
  try {
    parse_program(nested);
    ADD_FAILURE() << "100 000-deep nesting parsed";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting depth exceeded"),
              std::string::npos)
        << error.what();
  }
  // 50 000 arrow candidates back to back: each lookahead is answered
  // within its own statement.
  std::string arrows;
  for (int i = 0; i < 50000; ++i) arrows += "(a)=>a;";
  const ParseResult result = parse_program(arrows);
  EXPECT_EQ(result.ast.root()->kids.size(), 50000u);
  EXPECT_EQ(result.token_stats.count, 50000u * 6);
}

TEST(HostileInputs, DataflowCeilingDegradesButStillPredicts) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_dataflow_edges = 8;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, dataflow_flood(500), limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kBudgetDataflow);
  EXPECT_TRUE(outcome.degraded());
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kDataflowEdges);
  EXPECT_EQ(outcome.budget->limit, 8.0);
  EXPECT_GT(outcome.budget->observed, 8.0);
  ASSERT_EQ(outcome.skipped_stages.size(), 1u);
  EXPECT_EQ(outcome.skipped_stages[0], "dataflow");
  // Degradation, not failure: edges were truncated but features and
  // inference still ran on the intact AST/CFG.
  EXPECT_TRUE(outcome.has_predictions());
  EXPECT_FALSE(outcome.report.technique_confidence.empty());
}

TEST(HostileInputs, DeadlineTripsHardInLexOnHugeScript) {
  // An already-expired deadline plus a script long enough to cross the
  // lexer's poll stride: the trip lands deterministically in the lexer.
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;
  const std::string source = jsfuck_blob(10000);  // ≫ kDeadlinePollStride
  const analysis::ScriptOutcome outcome = analyze_source(service, source, limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kDeadlineExceeded);
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kDeadline);
  EXPECT_EQ(outcome.budget->stage, "lex");
  EXPECT_FALSE(outcome.has_predictions());
}

TEST(HostileInputs, DeadlineDegradesSmallScriptAtSoftCheckpoint) {
  // Small scripts never reach a poll stride mid-stage, so an expired
  // deadline is first noticed at the post-static-analysis checkpoint: the
  // outcome degrades to hand-picked features with n-grams and inference
  // skipped — deterministically, regardless of machine speed.
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;
  const analysis::ScriptOutcome outcome =
      analyze_source(service, "var x = 1; function f(a) { return a + x; } f(2);",
                          limits);
  EXPECT_EQ(outcome.status, analysis::ScriptStatus::kDegraded);
  EXPECT_TRUE(outcome.degraded());
  ASSERT_TRUE(outcome.budget.has_value());
  EXPECT_EQ(outcome.budget->kind, ResourceKind::kDeadline);
  EXPECT_FALSE(outcome.has_predictions());
  // The degraded outcome still carries the hand-picked feature block.
  features::FeatureConfig handpicked_only;
  handpicked_only.use_ngrams = false;
  EXPECT_EQ(outcome.partial_features.size(),
            features::feature_dimension(handpicked_only));
  const std::vector<std::string> expected_skipped = {"ngrams", "inference"};
  EXPECT_EQ(outcome.skipped_stages, expected_skipped);
}

TEST(HostileInputs, BudgetTrippedScriptsNeverThrowOutOfBatch) {
  analysis::AnalyzerService service(fuzz_analyzer());
  const std::vector<std::string> sources = {
      deeply_nested(5000),    // depth bomb (10k tokens: below the ceiling)
      megabyte_literal(),     // source-bytes bomb
      jsfuck_blob(10000),     // 30k tokens: trips the token ceiling in lex
      statement_flood(3000),  // ~15k tokens but ~12k AST nodes
      dataflow_flood(500),    // ~3k tokens, ~3k nodes, 1000 uses of `v`
      "var = ;;; {{{",        // plain syntax error
      std::string(5000, '('),  // second depth bomb
  };
  // The ceilings are staggered so each bomb reaches its intended stage:
  // lexing precedes parsing, so the token ceiling must clear every script
  // except the JSFuck blob.
  analysis::BatchOptions options;
  options.limits = ResourceLimits::production();
  options.limits.max_source_bytes = 256 * 1024;
  options.limits.max_tokens = 20000;
  options.limits.max_ast_nodes = 5000;
  options.limits.max_dataflow_edges = 64;
  const analysis::BatchResponse result = service.analyze_batch(
      analysis::make_source_requests(sources), options);  // must not throw
  ASSERT_EQ(result.responses.size(), sources.size());
  EXPECT_EQ(result.stats.budget_depth, 2u);     // both nesting bombs
  EXPECT_EQ(result.stats.ineligible_size, 1u);  // megabyte literal
  EXPECT_EQ(result.stats.budget_tokens, 1u);
  EXPECT_EQ(result.stats.budget_ast_nodes, 1u);
  EXPECT_EQ(result.stats.budget_dataflow, 1u);
  EXPECT_EQ(result.stats.parse_errors, 1u);  // the syntax-error script
  EXPECT_EQ(result.stats.budget_tripped(), 5u);
  for (const analysis::AnalyzeResponse& response : result.responses) {
    const analysis::ScriptOutcome& outcome = response.outcome;
    if (outcome.budget.has_value()) {
      EXPECT_FALSE(outcome.error_message.empty());
      EXPECT_GT(outcome.budget->limit, 0.0);
    }
  }
}

TEST(HostileInputs, GovernedBatchBitIdenticalAcrossThreadCounts) {
  // Count ceilings are charged in deterministic program order, so the
  // governed batch must be positionally aligned and bit-identical for any
  // parallelism (deadline excluded here: it is the one time-dependent
  // ceiling, covered by the status-determinism tests above).
  analysis::AnalyzerService service(fuzz_analyzer());
  corpus::ProgramGenerator generator(4242);
  corpus::GeneratorOptions generator_options;
  generator_options.min_bytes = 700;
  std::vector<std::string> sources;
  for (int i = 0; i < 12; ++i) sources.push_back(generator.generate(generator_options));
  sources.push_back(deeply_nested(5000));
  sources.push_back(jsfuck_blob(10000));
  sources.push_back(statement_flood(3000));
  sources.push_back(dataflow_flood(500));

  for (const bool governed : {false, true}) {
    analysis::BatchOptions serial;
    serial.threads = 1;
    analysis::BatchOptions wide;
    wide.threads = 4;
    if (governed) {
      ResourceLimits limits = ResourceLimits::production();
      limits.deadline_ms = 0.0;  // disable the only time-dependent ceiling
      limits.max_tokens = 20000;
      limits.max_ast_nodes = 5000;
      limits.max_dataflow_edges = 64;
      serial.limits = limits;
      wide.limits = limits;
    }
    const std::vector<analysis::AnalyzeRequest> requests =
        analysis::make_source_requests(sources);
    const analysis::BatchResponse a = service.analyze_batch(requests, serial);
    const analysis::BatchResponse b = service.analyze_batch(requests, wide);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (std::size_t i = 0; i < a.responses.size(); ++i) {
      const analysis::ScriptOutcome& x = a.responses[i].outcome;
      const analysis::ScriptOutcome& y = b.responses[i].outcome;
      EXPECT_EQ(x.status, y.status) << "script " << i;
      EXPECT_EQ(x.error_message, y.error_message) << "script " << i;
      EXPECT_EQ(x.budget.has_value(), y.budget.has_value()) << "script " << i;
      if (x.budget.has_value() && y.budget.has_value()) {
        EXPECT_EQ(x.budget->kind, y.budget->kind);
        EXPECT_EQ(x.budget->limit, y.budget->limit);
        EXPECT_EQ(x.budget->observed, y.budget->observed);
        EXPECT_EQ(x.budget->stage, y.budget->stage);
      }
      EXPECT_EQ(x.skipped_stages, y.skipped_stages);
      EXPECT_EQ(x.partial_features, y.partial_features);
      EXPECT_EQ(x.report.technique_confidence, y.report.technique_confidence);
      EXPECT_DOUBLE_EQ(x.report.level1.p_regular, y.report.level1.p_regular);
      EXPECT_DOUBLE_EQ(x.report.level1.p_minified, y.report.level1.p_minified);
      EXPECT_DOUBLE_EQ(x.report.level1.p_obfuscated,
                       y.report.level1.p_obfuscated);
    }
    EXPECT_EQ(a.stats.budget_tripped(), b.stats.budget_tripped());
  }
}

TEST(HostileInputs, SeedCorpusUnaffectedByGovernance) {
  // Regression: ordinary scripts must sail through production limits with
  // outcomes identical to the ungoverned run, and disabled limits must
  // never fire at all.
  analysis::AnalyzerService service(fuzz_analyzer());
  corpus::ProgramGenerator generator(1717);
  corpus::GeneratorOptions generator_options;
  generator_options.min_bytes = 600;
  std::vector<std::string> sources;
  for (int i = 0; i < 16; ++i) {
    sources.push_back(generator.generate(generator_options));
  }

  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(sources);
  const analysis::BatchResponse ungoverned = service.analyze_batch(requests);
  analysis::BatchOptions production;
  production.limits = ResourceLimits::production();
  const analysis::BatchResponse governed =
      service.analyze_batch(requests, production);

  EXPECT_EQ(ungoverned.stats.budget_tripped(), 0u);
  EXPECT_EQ(governed.stats.budget_tripped(), 0u);
  ASSERT_EQ(ungoverned.responses.size(), governed.responses.size());
  for (std::size_t i = 0; i < governed.responses.size(); ++i) {
    const analysis::ScriptOutcome& gov = governed.responses[i].outcome;
    const analysis::ScriptOutcome& raw = ungoverned.responses[i].outcome;
    EXPECT_EQ(gov.status, raw.status);
    EXPECT_FALSE(gov.budget.has_value());
    EXPECT_TRUE(gov.skipped_stages.empty());
    EXPECT_EQ(gov.report.technique_confidence,
              raw.report.technique_confidence);
  }
}

// Each stage time is the difference of two adjacent clock stamps and
// total_ms the last stamp minus the first, so the stages add up to the
// total for every status, up to rounding. A stage that did not run takes
// exactly 0 ms.
TEST(HostileInputs, StageTimesAddUpToTotalForEveryStatus) {
  using analysis::ScriptStatus;
  analysis::AnalyzerService service(fuzz_analyzer());
  corpus::ProgramGenerator generator(1717);
  corpus::GeneratorOptions generator_options;
  generator_options.min_bytes = 600;
  struct Case {
    ScriptStatus status;
    std::string source;
    ResourceLimits limits;
  };
  const std::vector<Case> cases = {
      {ScriptStatus::kOk, generator.generate(generator_options), {}},
      {ScriptStatus::kParseError, "var = ;;; {{{", {}},
      {ScriptStatus::kIneligibleSize, megabyte_literal(),
       {.max_source_bytes = 64 * 1024}},
      {ScriptStatus::kIneligibleSize, "var tiny = 1;", {}},
      {ScriptStatus::kIneligibleAst,
       "var filler = \"" + std::string(600, 'a') + "\";", {}},
      {ScriptStatus::kBudgetTokens, jsfuck_blob(2000),
       {.max_tokens = 1000}},
      {ScriptStatus::kBudgetAstNodes, statement_flood(2000),
       {.max_ast_nodes = 200}},
      {ScriptStatus::kBudgetDepth, deeply_nested(200),
       {.max_ast_depth = 32}},
      {ScriptStatus::kBudgetDataflow, dataflow_flood(500),
       {.max_dataflow_edges = 8}},
      {ScriptStatus::kDeadlineExceeded, jsfuck_blob(10000),
       {.deadline_ms = 1e-9}},
      {ScriptStatus::kDegraded, "var x = 1; function f(a) { return a; } f(2);",
       {.deadline_ms = 1e-9}},
  };
  for (const Case& c : cases) {
    const analysis::ScriptOutcome outcome =
        analyze_source(service, c.source, c.limits);
    const std::string label(analysis::to_string(c.status));
    ASSERT_EQ(outcome.status, c.status) << label;
    const analysis::StageTimings& timing = outcome.timing;
    EXPECT_GT(timing.total_ms, 0.0) << label;
    EXPECT_NEAR(timing.static_analysis_ms + timing.features_ms +
                    timing.inference_ms,
                timing.total_ms, 1e-9)
        << label;
    if (!outcome.has_predictions()) {
      EXPECT_EQ(timing.inference_ms, 0.0) << label;
    }
    if (outcome.partial_features.empty() && !outcome.has_predictions()) {
      EXPECT_EQ(timing.features_ms, 0.0) << label;
    }
  }
}

TEST(HostileInputs, OutcomeJsonRoundTripsKeyFields) {
  analysis::AnalyzerService service(fuzz_analyzer());
  ResourceLimits limits;
  limits.max_tokens = 100;
  const analysis::ScriptOutcome tripped =
      analyze_source(service, jsfuck_blob(500), limits);
  const std::string json = tripped.to_json();
  EXPECT_NE(json.find("\"status\":\"budget_tokens\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"tokens\""), std::string::npos);
  EXPECT_NE(json.find("\"limit\":100"), std::string::npos);
  EXPECT_NE(json.find("\"report\":null"), std::string::npos);

  const analysis::ScriptOutcome clean =
      analyze_source(service, "var ok = function(a) { return a + 1; };");
  const std::string clean_json = clean.to_json();
  EXPECT_NE(clean_json.find("\"budget\":null"), std::string::npos);
  EXPECT_NE(clean_json.find("\"technique_confidence\""), std::string::npos);
}

TEST(Fuzz, SnippetCrossSplicing) {
  // Concatenate random halves of different snippets: usually invalid,
  // must always be handled cleanly.
  Rng rng(7);
  const auto snippets = corpus::seed_snippets();
  for (int round = 0; round < 60; ++round) {
    const std::string_view a = snippets[rng.index(snippets.size())];
    const std::string_view b = snippets[rng.index(snippets.size())];
    const std::string spliced =
        std::string(a.substr(0, rng.index(a.size()))) +
        std::string(b.substr(rng.index(b.size())));
    survives(spliced);
  }
  SUCCEED();
}

}  // namespace
}  // namespace jst
