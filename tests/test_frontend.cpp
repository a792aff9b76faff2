// Arena-backed parse front end (support/arena.h + lexer/parser/ast):
//
//  * Golden bit-identity: batch outcomes over the seed corpus match a
//    fixture captured on the pre-arena front end, at thread widths 1 and
//    4, governed and ungoverned. The fixture is timing-stripped NDJSON —
//    everything semantic (status, features, predictions, diagnostics)
//    must be byte-identical.
//  * Pooling correctness: a pooled-arena parse equals an owned-arena
//    parse; arena reuse leaves no stale payloads; node addresses are
//    stable across finalize(); clone() into a fresh Ast deep-copies
//    string payloads (survives the source arena's reset).
//  * Allocation-free steady state: after warm-up, repeated pooled parses
//    grow neither the arena's peak nor its capacity nor the token
//    buffer, and the jst_arena_* metrics report reuse.
//  * Per-lane footprint: a JSFuck flood leaves a bounded number of
//    scratch bytes per source byte, and a moved unpooled ParseResult
//    keeps its tokens.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "hostile_inputs.h"
#include "ast/ast_json.h"
#include "ast/walk.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

// Same corpus as test_compiled: 16 deterministic regular scripts plus one
// transformed variant per technique.
std::vector<std::string> seed_corpus() {
  analysis::CorpusSpec spec;
  spec.regular_count = 16;
  spec.seed = 424242;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  Rng rng(99);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    corpus.push_back(
        analysis::make_transformed_sample(corpus[base % 16], technique, rng)
            .source);
    ++base;
  }
  return corpus;
}

// Same options as test_compiled's shared analyzer (and the fixture
// capture tool): small but fully exercised forests.
const analysis::TransformationAnalyzer& shared_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 20260806;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

// Wall-clock timings differ run to run; everything else must not. The
// fixture was normalized with the same expression.
std::string strip_timing(const std::string& outcome_json) {
  static const std::regex kTiming("\"timing\":\\{[^}]*\\},");
  return std::regex_replace(outcome_json, kTiming, "");
}

std::vector<std::string> golden_lines() {
  std::ifstream in(std::string(JST_TEST_DATA_DIR) +
                   "/frontend_golden.ndjson");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_batch_matches_golden(std::size_t threads, bool governed) {
  const std::vector<std::string> golden = golden_lines();
  ASSERT_FALSE(golden.empty()) << "fixture missing";
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::BatchOptions options;
  options.threads = threads;
  if (governed) options.limits = ResourceLimits::production();
  const analysis::BatchResponse result = service.analyze_batch(
      analysis::make_source_requests(seed_corpus()), options);
  ASSERT_EQ(result.responses.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(strip_timing(result.responses[i].outcome.to_json()), golden[i])
        << "script " << i << " threads=" << threads
        << " governed=" << governed;
  }
}

// --- golden bit-identity ---------------------------------------------------

TEST(FrontendGolden, BatchBitIdenticalSerial) {
  expect_batch_matches_golden(1, false);
}

TEST(FrontendGolden, BatchBitIdenticalFourThreads) {
  expect_batch_matches_golden(4, false);
}

TEST(FrontendGolden, BatchBitIdenticalGoverned) {
  expect_batch_matches_golden(1, true);
  expect_batch_matches_golden(4, true);
}

// --- pooled-arena parsing --------------------------------------------------

TEST(FrontendArena, PooledParseEqualsOwnedParse) {
  const std::vector<std::string> corpus = seed_corpus();
  support::Arena pool;
  for (const std::string& source : corpus) {
    const ParseResult owned = parse_program(source);
    const ParseResult pooled = parse_program(source, nullptr, &pool);
    EXPECT_EQ(ast_to_json(owned.ast.root()), ast_to_json(pooled.ast.root()));
    EXPECT_EQ(owned.token_stats.count, pooled.token_stats.count);
    EXPECT_EQ(owned.token_stats.raw_bytes, pooled.token_stats.raw_bytes);
    EXPECT_EQ(owned.comment_count, pooled.comment_count);
    EXPECT_EQ(owned.ast.node_count(), pooled.ast.node_count());
  }
}

TEST(FrontendArena, ReuseLeavesNoStalePayloads) {
  // Parse a script full of distinctive escaped payloads (cooked strings
  // live in the arena), then reuse the pool for different scripts; every
  // later parse must equal its owned-arena reference exactly.
  const std::string poison =
      "var a = \"\\x41\\u0042poison\\n\", b = `head${1 + 2}tail`;";
  const std::vector<std::string> corpus = seed_corpus();
  support::Arena pool;
  (void)parse_program(poison, nullptr, &pool);
  for (const std::string& source : corpus) {
    const ParseResult pooled = parse_program(source, nullptr, &pool);
    const ParseResult owned = parse_program(source);
    EXPECT_EQ(ast_to_json(pooled.ast.root()), ast_to_json(owned.ast.root()));
  }
  EXPECT_EQ(pool.epoch(), corpus.size() + 1);  // one reset per parse
}

TEST(FrontendArena, NodeAddressesStableAcrossFinalize) {
  support::Arena pool;
  ParseResult parsed = parse_program(
      "function f(a, b) { if (a) { return a + b; } return [a, b, a * b]; }",
      nullptr, &pool);
  std::vector<const Node*> before;
  walk_preorder(parsed.ast.root(),
                [&before](Node& node) { before.push_back(&node); });
  const std::size_t count = parsed.ast.finalize();  // re-finalize in place
  std::vector<const Node*> after;
  walk_preorder(parsed.ast.root(),
                [&after](Node& node) { after.push_back(&node); });
  EXPECT_EQ(count, before.size());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "node " << i << " moved";
    EXPECT_EQ(after[i]->id, static_cast<std::uint32_t>(i));
  }
}

TEST(FrontendArena, CloneIntoFreshArenaDeepCopiesPayloads) {
  support::Arena pool;
  const std::string source =
      "var greeting = \"\\x68ello \\u0077orld\"; var re = /a\\d+b/gi;";
  ParseResult parsed = parse_program(source, nullptr, &pool);
  const std::string reference = ast_to_json(parsed.ast.root());

  Ast fresh;  // owns a private arena
  Node* copy = fresh.clone(parsed.ast.root());
  fresh.set_root(copy);
  fresh.finalize();

  // Clobber the source arena: reset and fill it with a different script.
  // If clone() had shared payload views, the copy would now read bytes
  // from the replacement parse.
  (void)parse_program("var unrelated = 123456789; function g() {}", nullptr,
                      &pool);
  EXPECT_EQ(ast_to_json(fresh.root()), reference);
}

// --- allocation-free steady state ------------------------------------------

TEST(FrontendArena, SteadyStateStopsGrowingAndReportsReuse) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const std::vector<std::string> corpus = seed_corpus();
  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_arena_reuse_total");
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("jst_arena_peak_bytes");
  const std::uint64_t reuses_before = reuses.value();

  analysis::ScriptScratch scratch;
  // Warm-up pass: the pooled arena grows to the corpus high-water mark.
  for (const std::string& source : corpus) {
    (void)analyzer.analyze_outcome(source, ResourceLimits{}, scratch);
  }
  const std::size_t warm_peak = scratch.arena.peak_bytes();
  const std::size_t warm_capacity = scratch.arena.capacity_bytes();
  const std::size_t warm_window = scratch.window.capacity_bytes();
  EXPECT_GT(warm_peak, 0u);

  // Steady state: two more passes reuse the warmed chunks — no growth in
  // either the per-script peak or the chunk capacity means the front end
  // performed no heap allocation for any of these scripts.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& source : corpus) {
      (void)analyzer.analyze_outcome(source, ResourceLimits{}, scratch);
    }
  }
  EXPECT_EQ(scratch.arena.peak_bytes(), warm_peak);
  EXPECT_EQ(scratch.arena.capacity_bytes(), warm_capacity);
  EXPECT_EQ(scratch.window.capacity_bytes(), warm_window);

  // Every script after the first reused the pooled arena, and the reuse
  // counter and peak gauge observed it.
  EXPECT_GE(reuses.value() - reuses_before, 3 * corpus.size() - 1);
  EXPECT_GE(peak.value(), static_cast<double>(warm_peak));
}

// --- per-lane footprint ------------------------------------------------------

// JSFuck-style input is one token per source byte and about one node per
// two bytes, so it sets how much a lane keeps resident. One pooled
// ScriptScratch runs a 256 KiB flood through the whole analysis path;
// everything the lane then holds — arena chunks, the token window, and
// the feature and inference scratch — must stay under a fixed number of
// bytes per source byte. Measured: 71.1 with tokens pulled through a
// window (101.0 with the whole stream in a pooled vector plus a bracket
// table in the arena, 199.0 when the tokens grew inside the arena and
// nodes took 104 bytes); the bound is that plus 10%.
constexpr double kMaxScratchBytesPerSourceByte = 78.0;

TEST(FrontendMemory, JsfuckFloodScratchStaysUnderBound) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const std::string flood = hostile::jsfuck_flood(256 * 1024, 0x1ea5);
  analysis::ScriptScratch scratch;
  const analysis::ScriptOutcome outcome =
      analyzer.analyze_outcome(flood, ResourceLimits{}, scratch);
  ASSERT_FALSE(outcome.parse_failed()) << outcome.error_message;
  const std::size_t capacity = scratch.capacity_bytes();
  const double per_byte =
      static_cast<double>(capacity) / static_cast<double>(flood.size());
  EXPECT_LT(per_byte, kMaxScratchBytesPerSourceByte)
      << capacity << " scratch bytes for " << flood.size() << " source bytes";

  // A second flood of the same size fits in what the first one left.
  const std::string second = hostile::jsfuck_flood(256 * 1024, 0x2ea5);
  (void)analyzer.analyze_outcome(second, ResourceLimits{}, scratch);
  EXPECT_EQ(scratch.capacity_bytes(), capacity);
}

// The §IV malware tail (DNC and Hynek scripts over 64 KiB) is
// no-alphanumeric floods of up to ~400 000 tokens, one per source byte.
// Their arrow lookaheads close within a few hundred tokens, so the
// window a lane keeps after them is a few refills, not a script.
constexpr std::size_t kMaxWindowTokensAfterTail = 16384;

TEST(FrontendMemory, TailScriptsLeaveASmallTokenWindow) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  analysis::ScriptScratch scratch;
  std::size_t tail_scripts = 0;
  std::size_t largest = 0;
  const auto run_tail = [&](const analysis::PopulationSpec& spec,
                            std::size_t quota, std::uint64_t seed) {
    std::size_t taken = 0;
    for (std::uint64_t chunk = 0; taken < quota && chunk < 16; ++chunk) {
      for (const analysis::Sample& sample :
           analysis::simulate_population(spec, 300, seed + chunk)) {
        if (sample.source.size() <= 64 * 1024 || taken == quota) continue;
        const analysis::ScriptOutcome outcome =
            analyzer.analyze_outcome(sample.source, ResourceLimits{}, scratch);
        EXPECT_FALSE(outcome.parse_failed()) << outcome.error_message;
        largest = std::max(largest, sample.source.size());
        ++taken;
      }
    }
    tail_scripts += taken;
  };
  run_tail(analysis::dnc_spec(), 8, 0x7a11);
  run_tail(analysis::hynek_spec(), 4, 0x7a11);
  ASSERT_EQ(tail_scripts, 12u);
  EXPECT_GT(largest, 200u * 1024);
  EXPECT_LE(scratch.window.tokens.capacity(), kMaxWindowTokensAfterTail)
      << "largest tail script " << largest << " bytes";
}

TEST(FrontendArena, MovedUnpooledResultKeepsPayloadViews) {
  // The unpooled result owns the arena its payload views (source slices
  // and cooked strings) point into; moving the result must carry the
  // arena along with it (the views stay valid under ASan).
  const std::string source =
      "var s = \"\\x41bc\", n = 0x2A; function f(a) { return a / 2; }\n"
      "f(n)[`t${s}`] = /re+/g;";
  ParseResult original = parse_program(source);
  const auto payloads = [](const ParseResult& result) {
    std::vector<std::string> values;
    walk_preorder(result.ast.root(), [&values](const Node& node) {
      values.emplace_back(node.str_value);
      values.push_back(std::to_string(node.line));
    });
    return values;
  };
  const std::vector<std::string> before = payloads(original);
  ASSERT_GT(before.size(), 40u);
  const std::string json = ast_to_json(original.ast.root());
  const std::size_t tokens = original.token_stats.count;

  ParseResult moved = std::move(original);
  ParseResult assigned = parse_program("x;");
  assigned = std::move(moved);
  EXPECT_EQ(payloads(assigned), before);
  EXPECT_EQ(ast_to_json(assigned.ast.root()), json);
  EXPECT_EQ(assigned.token_stats.count, tokens);
}

TEST(FrontendArena, ArenaMetricsExportedAtZero) {
  // Zero-export guarantee (same as jst_budget_* / jst_scratch_*): the
  // series exist in every export, even before any reuse happened.
  const std::string prometheus =
      obs::MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prometheus.find("jst_arena_reuse_total"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_arena_peak_bytes"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_scratch_reuse_total"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_scratch_peak_bytes"), std::string::npos);
}

}  // namespace
}  // namespace jst
