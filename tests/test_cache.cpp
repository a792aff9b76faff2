// Content-addressed result cache (DESIGN.md §15): key derivation, the
// two-tier ResultCache, the cache-aware AnalyzerService request path,
// and the wire v3 cache fields.
//
//  * Bit-identity: a cache hit returns byte-identical outcomes to
//    recomputation (round-trip through the record format included), for
//    serial and four-wide batches, cache on or off.
//  * Key isolation: model fingerprint and limits fingerprint partition
//    the key space — the same source under different governance or a
//    different model never aliases.
//  * One key, two spellings: the service's 16-byte key equals the key
//    derived from make_key's text, and text-keyed record files load and
//    hit; concurrent hits, stores and evictions copy outcomes intact.
//  * Durability: the disk tier survives restart and memory eviction; a
//    torn tail truncates back to the last good record; a foreign header
//    discards the file instead of reinterpreting it.
//  * Memory tier: seeded operation sequences keep counters, footprint and
//    the resident key set equal to the list+map LRU it replaced
//    (support/lru_oracle.h); every outcome shape, inline or spilled to a
//    side object, comes back byte-identical from memory, disk and reload;
//    every path charges the same bytes for one outcome.
//  * Staleness rules: budget/deadline/degraded outcomes are never
//    stored; refresh recomputes and overwrites (last record wins).
//  * Wire v3: cache_mode round-trips, stays off the wire when default,
//    is rejected under a pinned v1/v2, and v2 lines parse identically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/longitudinal.h"
#include "analysis/pipeline.h"
#include "analysis/result_cache.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "analysis/wire.h"
#include "support/json_reader.h"
#include "support/lru_oracle.h"
#include "support/rng.h"
#include "support/strings.h"
#include "transform/transform.h"

namespace jst {
namespace {

// Same corpus as test_frontend/test_server: 16 deterministic regular
// scripts plus one transformed variant per technique — all distinct
// bytes, so batch-level cache accounting is exact.
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

// A second trained model with a different seed: same API, different
// fingerprint — the model axis of the key space.
const analysis::TransformationAnalyzer& other_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 777;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

// Wall-clock timings differ run to run; everything else must not.
std::string strip_timing(const std::string& outcome_json) {
  static const std::regex kTiming("\"timing\":\\{[^}]*\\},");
  return std::regex_replace(outcome_json, kTiming, "");
}

// RAII scratch directory for disk-tier tests.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/jst_cache_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path.empty()) return;
    const std::string record = path + "/results.ndjson";
    ::unlink(record.c_str());
    ::rmdir(path.c_str());
  }
  std::string path;
};

analysis::ScriptOutcome analyze_outcome_of(const std::string& source) {
  const analysis::AnalyzerService service(shared_analyzer());
  return service.analyze(analysis::AnalyzeRequest::for_source(source)).outcome;
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return all;
}

// --- key derivation --------------------------------------------------------

TEST(LimitsFingerprint, DistinguishesEveryCeiling) {
  const std::string base = analysis::limits_fingerprint(ResourceLimits{});
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base.find_first_not_of("0123456789abcdef"), std::string::npos);

  ResourceLimits variants[6];
  variants[0].max_source_bytes = 1024;
  variants[1].max_tokens = 1024;
  variants[2].max_ast_nodes = 1024;
  variants[3].max_ast_depth = 1024;
  variants[4].max_dataflow_edges = 1024;
  variants[5].deadline_ms = 1024.0;
  std::vector<std::string> fingerprints = {base};
  for (const ResourceLimits& limits : variants) {
    const std::string fingerprint = analysis::limits_fingerprint(limits);
    for (const std::string& prior : fingerprints) {
      EXPECT_NE(fingerprint, prior);
    }
    fingerprints.push_back(fingerprint);
  }
  // Deterministic: same limits, same fingerprint.
  EXPECT_EQ(analysis::limits_fingerprint(ResourceLimits::production()),
            analysis::limits_fingerprint(ResourceLimits::production()));
}

TEST(CacheKey, ComposesContentModelLimitsAndWireVersion) {
  const std::string content = analysis::content_hash("var x = 1;");
  const std::string key =
      analysis::ResultCache::make_key(content, "00ff00ff00ff00ff",
                                      ResourceLimits::production());
  EXPECT_NE(key.find(content), std::string::npos);
  EXPECT_NE(key.find("00ff00ff00ff00ff"), std::string::npos);
  EXPECT_NE(key.find(analysis::limits_fingerprint(
                ResourceLimits::production())),
            std::string::npos);
  EXPECT_NE(key.find("|v" + std::to_string(
                analysis::wire::kWireFormatVersion)),
            std::string::npos);
  // Any component change changes the key.
  EXPECT_NE(key, analysis::ResultCache::make_key(
                     analysis::content_hash("var x = 2;"),
                     "00ff00ff00ff00ff", ResourceLimits::production()));
  EXPECT_NE(key, analysis::ResultCache::make_key(content, "deadbeefdeadbeef",
                                                 ResourceLimits::production()));
  EXPECT_NE(key, analysis::ResultCache::make_key(content, "00ff00ff00ff00ff",
                                                 ResourceLimits{}));
}

TEST(CacheKey, TextKeysDeriveOneFixedKey) {
  const std::string source = "var x = 1;";
  const std::string model = "00ff00ff00ff00ff";
  const ResourceLimits limits = ResourceLimits::production();
  const std::string text = analysis::ResultCache::make_key(
      analysis::content_hash(source), model, limits);
  // make_key's form: {content digest, FNV-1a of the text after the '|'}.
  const analysis::CacheKey expected{
      strings::fnv1a(source),
      strings::fnv1a(analysis::ResultCache::key_context(model, limits))};
  EXPECT_EQ(analysis::cache_key_of(text), expected);
  EXPECT_EQ(text, analysis::content_hash(source) + "|" +
                      analysis::ResultCache::key_context(model, limits));
  // Any other string is hashed whole; forms that merely resemble
  // make_key's (uppercase hex, a short prefix, no '|') are "other".
  std::string upper = text;
  for (std::size_t i = 0; i < 16; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  for (const std::string& other :
       {std::string("key-1"), text.substr(1), upper,
        analysis::content_hash(source)}) {
    const analysis::CacheKey derived = analysis::cache_key_of(other);
    EXPECT_EQ(derived.content, strings::fnv1a(other)) << other;
    EXPECT_EQ(derived.context, analysis::cache_key_of("key-2").context)
        << other;
    EXPECT_NE(derived, expected) << other;
  }
}

TEST(ContentHash, HexSpellingRoundTrips) {
  for (const std::string source : {"", "var x = 1;", "\xff\x00 tail"}) {
    const std::uint64_t digest = strings::fnv1a(source);
    const std::string hex = analysis::content_hash_hex(digest);
    EXPECT_EQ(hex, analysis::content_hash(source));
    std::uint64_t parsed = 0;
    ASSERT_TRUE(analysis::parse_content_hash(hex, parsed));
    EXPECT_EQ(parsed, digest);
  }
  std::uint64_t unused = 0;
  EXPECT_FALSE(analysis::parse_content_hash("0123456789ABCDEF", unused));
  EXPECT_FALSE(analysis::parse_content_hash("0123456789abcde", unused));
  EXPECT_FALSE(analysis::parse_content_hash("0123456789abcdefa", unused));
  EXPECT_FALSE(analysis::parse_content_hash("0123456789abcdeg", unused));
}

// --- record round-trip -----------------------------------------------------

TEST(OutcomeRoundTrip, ParseReproducesWireBytesExactly) {
  // The cache's bit-identity rests on this invariant: for every outcome
  // shape the pipeline produces (ok, parse error, ineligible-size,
  // ineligible-ast), deserializing the kFull wire JSON and re-serializing
  // reproduces the original bytes.
  std::vector<std::string> sources = seed_corpus();
  sources.push_back("var = ;;; {{{");                              // parse error
  sources.push_back("var tiny = 1;");                              // < 512 bytes
  sources.push_back("var filler = \"" + std::string(600, 'a') + "\";");  // no AST
  for (const std::string& source : sources) {
    const analysis::ScriptOutcome outcome = analyze_outcome_of(source);
    const std::string json = analysis::wire::script_outcome_json(outcome);
    std::string error;
    const std::optional<support::JsonValue> document =
        support::parse_json(json, &error);
    ASSERT_TRUE(document.has_value()) << error;
    const std::optional<analysis::ScriptOutcome> parsed =
        analysis::parse_script_outcome(*document);
    ASSERT_TRUE(parsed.has_value()) << json;
    EXPECT_EQ(analysis::wire::script_outcome_json(*parsed), json);
  }
}

TEST(OutcomeRoundTrip, RejectsStructuralDamage) {
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var ok = 1;"
      " function f(a) { return a + ok; } f(1);");
  const std::string json = analysis::wire::script_outcome_json(outcome);
  std::string error;
  // Unknown status string.
  std::string bad = json;
  bad.replace(bad.find("\"status\":\"") + 10, 2, "zz");
  const auto damaged = support::parse_json(bad, &error);
  ASSERT_TRUE(damaged.has_value());
  EXPECT_FALSE(analysis::parse_script_outcome(*damaged).has_value());
  // Not an object at all.
  const auto scalar = support::parse_json("42", &error);
  ASSERT_TRUE(scalar.has_value());
  EXPECT_FALSE(analysis::parse_script_outcome(*scalar).has_value());
}

// --- ResultCache unit behavior --------------------------------------------

TEST(ResultCache, HitMissAndStoreCounters) {
  analysis::ResultCache cache({});
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::string key = "k1|m|l|v3";
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, outcome);
  const std::optional<analysis::ScriptOutcome> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(outcome));
  cache.note_bypass();
  const analysis::ResultCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.stores, 1u);
  EXPECT_EQ(counters.bypasses, 1u);
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_GT(counters.bytes, 0u);
}

TEST(ResultCache, NeverStoresUnsettledOutcomes) {
  analysis::ResultCache cache({});
  analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const analysis::ScriptStatus unsettled[] = {
      analysis::ScriptStatus::kBudgetTokens,
      analysis::ScriptStatus::kBudgetAstNodes,
      analysis::ScriptStatus::kBudgetDepth,
      analysis::ScriptStatus::kBudgetDataflow,
      analysis::ScriptStatus::kDeadlineExceeded,
      analysis::ScriptStatus::kDegraded,
  };
  std::size_t i = 0;
  for (const analysis::ScriptStatus status : unsettled) {
    outcome.status = status;
    EXPECT_FALSE(analysis::ResultCache::cacheable(outcome));
    const std::string key = "unsettled-" + std::to_string(i++);
    cache.store(key, outcome);
    EXPECT_FALSE(cache.contains(key));
  }
  EXPECT_EQ(cache.counters().stores, 0u);
  // The settled statuses are cacheable.
  outcome.status = analysis::ScriptStatus::kOk;
  EXPECT_TRUE(analysis::ResultCache::cacheable(outcome));
  outcome.status = analysis::ScriptStatus::kParseError;
  EXPECT_TRUE(analysis::ResultCache::cacheable(outcome));
}

TEST(ResultCache, LruEvictsByByteBudgetOldestFirst) {
  analysis::ResultCache::Config config;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::size_t one_entry_bytes =
      analysis::wire::script_outcome_json(outcome).size() + 64;
  config.max_bytes = one_entry_bytes * 3;  // room for ~3 entries
  analysis::ResultCache cache(config);
  for (int i = 0; i < 8; ++i) {
    cache.store("key-" + std::to_string(i), outcome);
  }
  const analysis::ResultCache::Counters counters = cache.counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LT(counters.entries, 8u);
  EXPECT_LE(counters.bytes, config.max_bytes);
  // Newest still resident; oldest gone (memory-only cache: gone = gone).
  EXPECT_TRUE(cache.contains("key-7"));
  EXPECT_FALSE(cache.contains("key-0"));
}

// The direct recency case: a hit makes its key the newest, so the next
// eviction takes the oldest key that was not used since.
TEST(ResultCache, HitProtectsKeyFromNextEviction) {
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::size_t charge =
      sizeof(analysis::CacheKey) +
      analysis::wire::script_outcome_json(outcome).size();
  analysis::ResultCache cache({"", charge * 3});
  for (const char* key : {"k0", "k1", "k2"}) cache.store(key, outcome);
  ASSERT_TRUE(cache.lookup("k0").has_value());
  cache.store("k3", outcome);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(cache.contains("k1"));
  for (const char* key : {"k0", "k2", "k3"}) {
    EXPECT_TRUE(cache.contains(key)) << key;
  }
}

// --- disk tier -------------------------------------------------------------

TEST(ResultCacheDisk, SurvivesRestartBitIdentically) {
  TempDir dir;
  const analysis::ScriptOutcome outcome =
      analyze_outcome_of("var persisted = 42;");
  const std::string json = analysis::wire::script_outcome_json(outcome);
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    ASSERT_TRUE(cache.load_error().empty()) << cache.load_error();
    cache.store("persist-key", outcome);
  }
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(reopened.load_error().empty()) << reopened.load_error();
  EXPECT_EQ(reopened.counters().disk_records, 1u);
  const std::optional<analysis::ScriptOutcome> hit =
      reopened.lookup("persist-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit), json);
}

TEST(ResultCacheDisk, MemoryEvictionFallsBackToDisk) {
  TempDir dir;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  analysis::ResultCache::Config config;
  config.dir = dir.path;
  config.max_bytes =
      (analysis::wire::script_outcome_json(outcome).size() + 64) * 2;
  analysis::ResultCache cache(config);
  for (int i = 0; i < 6; ++i) {
    cache.store("spill-" + std::to_string(i), outcome);
  }
  ASSERT_GT(cache.counters().evictions, 0u);
  // Evicted from memory, but the disk tier still resolves it — and the
  // lookup counts as a hit, then promotes back into memory.
  const std::uint64_t hits_before = cache.counters().hits;
  const std::optional<analysis::ScriptOutcome> hit = cache.lookup("spill-0");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.counters().hits, hits_before + 1);
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(outcome));
}

TEST(ResultCacheDisk, LastRecordWinsOnReload) {
  TempDir dir;
  const analysis::ScriptOutcome first = analyze_outcome_of("var a = 1;");
  const analysis::ScriptOutcome second =
      analyze_outcome_of("var bbbb = 2; function g(x) { return x; } g(2);");
  ASSERT_NE(analysis::wire::script_outcome_json(first),
            analysis::wire::script_outcome_json(second));
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    cache.store("dup-key", first);
    cache.store("dup-key", second);  // refresh path: append, not rewrite
  }
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_EQ(reopened.counters().disk_records, 1u);  // one live key
  const std::optional<analysis::ScriptOutcome> hit =
      reopened.lookup("dup-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(second));
}

TEST(ResultCacheDisk, TornTailTruncatesToLastGoodRecord) {
  TempDir dir;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  std::string record_path;
  std::size_t good_size = 0;
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    for (int i = 0; i < 3; ++i) {
      cache.store("good-" + std::to_string(i), outcome);
    }
    record_path = cache.path();
  }
  good_size = file_contents(record_path).size();
  {
    // Simulate a crash mid-append: a torn, unterminated record tail.
    std::ofstream out(record_path, std::ios::app | std::ios::binary);
    out << "{\"key\":\"torn-key\",\"outcome\":{\"status\":\"ok";
  }
  analysis::ResultCache recovered({dir.path, std::size_t{64} << 20});
  // The torn record is diagnosed and truncated away; the good prefix
  // survives intact.
  EXPECT_FALSE(recovered.load_error().empty());
  EXPECT_EQ(recovered.counters().disk_records, 3u);
  EXPECT_FALSE(recovered.contains("torn-key"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(recovered.contains("good-" + std::to_string(i)));
  }
  EXPECT_EQ(file_contents(record_path).size(), good_size);
  // And the truncated file appends cleanly again.
  recovered.store("after-recovery", outcome);
  analysis::ResultCache again({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(again.load_error().empty()) << again.load_error();
  EXPECT_EQ(again.counters().disk_records, 4u);
}

TEST(ResultCacheDisk, ForeignHeaderDiscardsFile) {
  TempDir dir;
  const std::string record_path = dir.path + "/results.ndjson";
  {
    std::ofstream out(record_path, std::ios::binary);
    out << "{\"magic\":\"jstcache\",\"version\":999,\"wire\":999}\n"
        << "{\"key\":\"old-schema\",\"outcome\":{}}\n";
  }
  analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
  EXPECT_FALSE(cache.load_error().empty());
  EXPECT_EQ(cache.counters().disk_records, 0u);
  EXPECT_FALSE(cache.contains("old-schema"));
  // The file was re-headered for the current schema and is usable.
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  cache.store("fresh", outcome);
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(reopened.load_error().empty()) << reopened.load_error();
  EXPECT_TRUE(reopened.contains("fresh"));
}

// Every path into the memory tier charges one outcome the same bytes:
// its 16-byte key plus its serialized size — after a store, after a
// reload, and after an eviction followed by a disk promotion.
TEST(ResultCacheDisk, EveryPathChargesKeyPlusSerializedOutcome) {
  TempDir dir;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::size_t charge =
      sizeof(analysis::CacheKey) +
      analysis::wire::script_outcome_json(outcome).size();
  const analysis::ResultCache::Config config{dir.path, charge * 3 / 2};
  {
    analysis::ResultCache cache(config);
    cache.store("charge-a", outcome);
    EXPECT_EQ(cache.counters().bytes, charge);
  }
  analysis::ResultCache reopened(config);
  ASSERT_TRUE(reopened.load_error().empty()) << reopened.load_error();
  EXPECT_EQ(reopened.counters().entries, 1u);
  EXPECT_EQ(reopened.counters().bytes, charge);
  reopened.store("charge-b", outcome);  // evicts charge-a
  EXPECT_EQ(reopened.counters().bytes, charge);
  ASSERT_TRUE(reopened.lookup("charge-a").has_value());  // promotes
  EXPECT_EQ(reopened.counters().evictions, 2u);
  EXPECT_EQ(reopened.counters().bytes, charge);

  // A hand-written record in another member order loads at the same
  // charge.
  TempDir other;
  {
    std::ofstream out(other.path + "/results.ndjson", std::ios::binary);
    out << "{\"magic\":\"jstcache\",\"version\":1,\"wire\":"
        << analysis::wire::kWireFormatVersion << "}\n"
        << "{\"outcome\":" << analysis::wire::script_outcome_json(outcome)
        << ",\"key\":\"charge-c\"}\n";
  }
  analysis::ResultCache reordered({other.path, config.max_bytes});
  ASSERT_TRUE(reordered.load_error().empty()) << reordered.load_error();
  EXPECT_EQ(reordered.counters().entries, 1u);
  EXPECT_EQ(reordered.counters().bytes, charge);
}

// Outcomes a memory entry holds inline and ones that spill into its side
// object (an error message, a budget trip, skipped stages, partial
// features, more than ten confidences or techniques) come back
// byte-identical from memory after a store, from memory after a reload,
// from disk after eviction, and from memory after that promotion. The
// uncacheable shapes enter through hand-written record lines, which the
// loader accepts.
TEST(ResultCacheDisk, CompactFormRoundTripsEveryShape) {
  std::vector<analysis::ScriptOutcome> shapes = {
      analyze_outcome_of(seed_corpus()[0]),
      analyze_outcome_of(seed_corpus()[17]),
      analyze_outcome_of("var = ;;; {{{"),
      analyze_outcome_of("var tiny = 1;"),
      analyze_outcome_of("var filler = \"" + std::string(600, 'a') + "\";"),
  };
  ASSERT_EQ(shapes[0].status, analysis::ScriptStatus::kOk);
  ASSERT_EQ(shapes[2].status, analysis::ScriptStatus::kParseError);
  ASSERT_GT(shapes[2].error_message.size(), std::string().capacity());
  ASSERT_EQ(shapes[3].status, analysis::ScriptStatus::kIneligibleSize);
  ASSERT_EQ(shapes[4].status, analysis::ScriptStatus::kIneligibleAst);
  analysis::ScriptOutcome wide = shapes[0];  // 10 confidences, 11 ids
  ASSERT_EQ(wide.report.technique_confidence.size(), 10u);
  wide.report.techniques.assign(11, transform::Technique::kGlobalArray);
  shapes.push_back(wide);
  const std::size_t stored_count = shapes.size();

  // One spilled field per shape, so each one alone must reach the side
  // object.
  analysis::ScriptOutcome tripped;
  tripped.status = analysis::ScriptStatus::kDeadlineExceeded;
  tripped.report.status = tripped.status;
  tripped.timing = {75.5, 75.25, 0.0, 0.0};
  tripped.budget = BudgetTrip{ResourceKind::kDeadline, 50.0, 75.5, "parse"};
  shapes.push_back(tripped);
  analysis::ScriptOutcome skipped = shapes[0];
  skipped.status = analysis::ScriptStatus::kDegraded;
  skipped.report.status = skipped.status;
  skipped.report.technique_confidence.clear();
  skipped.report.techniques.clear();
  skipped.skipped_stages = {"ngrams", "inference"};
  shapes.push_back(skipped);
  analysis::ScriptOutcome partial = skipped;
  partial.skipped_stages.clear();
  partial.partial_features = {1.5f, 0.25f, -3.0f};
  shapes.push_back(partial);
  // Last and largest, so a one-entry budget holds nothing else with it.
  analysis::ScriptOutcome many = wide;  // 16 confidences, 16 ids
  many.report.technique_confidence.resize(16, 0.375);
  many.report.techniques.resize(16, transform::Technique::kDebugProtection);
  shapes.push_back(many);

  std::vector<std::string> keys;
  std::vector<std::string> expected;
  std::size_t largest = 0;
  for (const analysis::ScriptOutcome& outcome : shapes) {
    keys.push_back("shape-" + std::to_string(keys.size()));
    expected.push_back(analysis::wire::script_outcome_json(outcome));
    largest = std::max(largest, expected.back().size());
  }
  ASSERT_EQ(expected.back().size(), largest);
  const auto serves = [&](analysis::ResultCache& cache, std::size_t count,
                          const char* stage) {
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(cache.resident(analysis::cache_key_of(keys[i])))
          << stage << " " << keys[i];
      const std::optional<analysis::ScriptOutcome> hit = cache.lookup(keys[i]);
      ASSERT_TRUE(hit.has_value()) << stage << " " << keys[i];
      EXPECT_EQ(analysis::wire::script_outcome_json(*hit), expected[i])
          << stage << " " << keys[i];
    }
  };

  TempDir dir;
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    for (std::size_t i = 0; i < stored_count; ++i) {
      ASSERT_TRUE(analysis::ResultCache::cacheable(shapes[i])) << i;
      cache.store(keys[i], shapes[i]);
    }
    serves(cache, stored_count, "after store");
  }
  {
    std::ofstream out(dir.path + "/results.ndjson",
                      std::ios::binary | std::ios::app);
    for (std::size_t i = stored_count; i < shapes.size(); ++i) {
      out << "{\"key\":\"" << keys[i] << "\",\"outcome\":" << expected[i]
          << "}\n";
    }
  }
  {
    analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
    ASSERT_TRUE(reopened.load_error().empty()) << reopened.load_error();
    serves(reopened, shapes.size(), "after reload");
  }
  // A one-entry budget: loading leaves only the last record resident, so
  // each other shape is read from disk, then served from memory once
  // promoted.
  analysis::ResultCache narrow(
      {dir.path, sizeof(analysis::CacheKey) + largest});
  ASSERT_TRUE(narrow.load_error().empty()) << narrow.load_error();
  for (std::size_t i = 0; i + 1 < shapes.size(); ++i) {
    const analysis::CacheKey key = analysis::cache_key_of(keys[i]);
    EXPECT_FALSE(narrow.resident(key)) << keys[i];
    const std::optional<analysis::ScriptOutcome> from_disk =
        narrow.lookup(keys[i]);
    ASSERT_TRUE(from_disk.has_value()) << keys[i];
    EXPECT_EQ(analysis::wire::script_outcome_json(*from_disk), expected[i]);
    EXPECT_TRUE(narrow.resident(key)) << keys[i];
    const std::optional<analysis::ScriptOutcome> promoted =
        narrow.lookup(keys[i]);
    ASSERT_TRUE(promoted.has_value()) << keys[i];
    EXPECT_EQ(analysis::wire::script_outcome_json(*promoted), expected[i]);
  }
}

// --- memory tier against the list+map oracle -----------------------------

// Settled outcomes of several shapes and serialized sizes, built by hand:
// ok reports with 0..10 techniques, a parse error, an ineligible script.
std::vector<analysis::ScriptOutcome> synthetic_outcomes() {
  std::vector<analysis::ScriptOutcome> outcomes;
  for (std::size_t techniques = 0; techniques <= 10; techniques += 2) {
    const double t = static_cast<double>(techniques);
    analysis::ScriptOutcome outcome;
    outcome.status = analysis::ScriptStatus::kOk;
    outcome.report.status = outcome.status;
    outcome.report.level1 = {0.0625 * t, 0.5, 0.25};
    for (std::size_t i = 0; i < transform::kTechniqueCount; ++i) {
      outcome.report.technique_confidence.push_back(
          0.1 * static_cast<double>(i) + 0.01 * t);
    }
    for (std::size_t i = 0; i < techniques; ++i) {
      outcome.report.techniques.push_back(transform::all_techniques()[i]);
    }
    outcome.timing = {1.5 + t, 0.75, 0.5, 0.25};
    outcomes.push_back(outcome);
  }
  analysis::ScriptOutcome parse_error;
  parse_error.status = analysis::ScriptStatus::kParseError;
  parse_error.report.status = parse_error.status;
  parse_error.error_message = "unexpected token ';' at line 1, column 5";
  parse_error.timing = {0.125, 0.125, 0.0, 0.0};
  outcomes.push_back(parse_error);
  analysis::ScriptOutcome ineligible;
  ineligible.status = analysis::ScriptStatus::kIneligibleSize;
  ineligible.report.status = ineligible.status;
  outcomes.push_back(ineligible);
  return outcomes;
}

// Seeded sequences of store, hit, miss, refresh, contains and reload at
// budgets of one to eight typical entries, memory-only and with a disk
// tier. The oracle models the memory tier; this test models the record
// file (the latest outcome per key, and every record in file order for a
// reload). After every operation the cache's hits, misses, stores,
// evictions, entries, bytes, record count and resident key set equal the
// model's.
TEST(ResultCacheOracle, RandomOperationsMatchListLru) {
  const std::vector<analysis::ScriptOutcome> outcomes = synthetic_outcomes();
  std::vector<std::string> jsons;
  std::vector<std::size_t> sizes;
  for (const analysis::ScriptOutcome& outcome : outcomes) {
    jsons.push_back(analysis::wire::script_outcome_json(outcome));
    sizes.push_back(jsons.back().size());
  }
  std::sort(sizes.begin(), sizes.end());
  const std::size_t typical =
      sizeof(analysis::CacheKey) + sizes[sizes.size() / 2];
  const auto charge = [](const std::string& json) {
    return sizeof(analysis::CacheKey) + json.size();
  };
  constexpr std::size_t kStoredKeys = 10;
  constexpr std::size_t kAbsentKeys = 3;
  std::vector<std::string> texts;
  std::vector<analysis::CacheKey> keys;
  for (std::size_t i = 0; i < kStoredKeys + kAbsentKeys; ++i) {
    texts.push_back((i < kStoredKeys ? "oracle-" : "absent-") +
                    std::to_string(i));
    keys.push_back(analysis::cache_key_of(texts.back()));
  }

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t budget = 1; budget <= 8; ++budget) {
      for (const bool with_disk : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " budget " +
                     std::to_string(budget) + (with_disk ? " disk" : ""));
        TempDir dir;
        const analysis::ResultCache::Config config{
            with_disk ? dir.path : std::string(), budget * typical};
        auto cache = std::make_unique<analysis::ResultCache>(config);
        auto tier = std::make_unique<oracle::ListLruTier>(config.max_bytes);
        std::map<std::size_t, std::string> disk;  // key index → latest JSON
        std::vector<std::pair<std::size_t, std::string>> records;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        Rng rng(seed * 1000 + budget);

        const auto store = [&](std::size_t k) {
          const std::size_t variant = rng.index(outcomes.size());
          cache->store(texts[k], outcomes[variant]);
          tier->insert(keys[k], jsons[variant], charge(jsons[variant]));
          if (with_disk) {
            disk[k] = jsons[variant];
            records.emplace_back(k, jsons[variant]);
          }
          ++stores;
        };
        const auto lookup = [&](std::size_t k) {
          const std::optional<analysis::ScriptOutcome> got =
              cache->lookup(texts[k]);
          std::optional<std::string> want;
          if (const std::string* resident = tier->hit(keys[k])) {
            want = *resident;
          } else if (const auto found = disk.find(k); found != disk.end()) {
            want = found->second;
            tier->insert(keys[k], *want, charge(*want));  // promotion
          }
          if (want.has_value()) {
            ++hits;
          } else {
            ++misses;
          }
          ASSERT_EQ(got.has_value(), want.has_value()) << texts[k];
          if (got.has_value()) {
            EXPECT_EQ(analysis::wire::script_outcome_json(*got), *want);
          }
        };

        for (std::size_t step = 0; step < 150 && !HasFailure(); ++step) {
          const std::size_t roll = rng.index(20);
          if (roll < 6) {
            store(rng.index(kStoredKeys));
          } else if (roll < 13) {
            lookup(rng.index(kStoredKeys));
          } else if (roll < 15) {
            lookup(kStoredKeys + rng.index(kAbsentKeys));
          } else if (roll < 17) {
            // Refresh: a new outcome for a key that already has one.
            const std::size_t start = rng.index(kStoredKeys);
            for (std::size_t j = 0; j < kStoredKeys; ++j) {
              const std::size_t k = (start + j) % kStoredKeys;
              if (tier->resident(keys[k]) || disk.contains(k)) {
                store(k);
                break;
              }
            }
          } else if (roll < 19 || !with_disk) {
            const std::size_t k = rng.index(keys.size());
            EXPECT_EQ(cache->contains(texts[k]),
                      tier->resident(keys[k]) || disk.contains(k))
                << texts[k];
          } else {
            cache.reset();
            cache = std::make_unique<analysis::ResultCache>(config);
            ASSERT_TRUE(cache->load_error().empty()) << cache->load_error();
            tier = std::make_unique<oracle::ListLruTier>(config.max_bytes);
            for (const auto& [k, json] : records) {
              tier->insert(keys[k], json, charge(json));
            }
            hits = misses = stores = 0;
          }
          const analysis::ResultCache::Counters counters = cache->counters();
          ASSERT_EQ(counters.hits, hits) << "step " << step;
          ASSERT_EQ(counters.misses, misses) << "step " << step;
          ASSERT_EQ(counters.stores, stores) << "step " << step;
          ASSERT_EQ(counters.evictions, tier->evictions()) << "step " << step;
          ASSERT_EQ(counters.entries, tier->entries()) << "step " << step;
          ASSERT_EQ(counters.bytes, tier->bytes()) << "step " << step;
          ASSERT_EQ(counters.disk_records, disk.size()) << "step " << step;
          for (std::size_t k = 0; k < keys.size(); ++k) {
            ASSERT_EQ(cache->resident(keys[k]), tier->resident(keys[k]))
                << "step " << step << " " << texts[k];
          }
        }
      }
    }
  }
}

// --- cache-aware service path ---------------------------------------------

TEST(ServiceCache, SecondPassHitsAreByteIdentical) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(seed_corpus());

  analysis::BatchOptions serial;
  serial.threads = 1;
  const analysis::BatchResponse cold = service.analyze_batch(requests, serial);
  const analysis::ResultCache::Counters after_cold = cache.counters();
  EXPECT_EQ(after_cold.misses, requests.size());
  EXPECT_EQ(after_cold.hits, 0u);

  const analysis::BatchResponse warm = service.analyze_batch(requests, serial);
  const analysis::ResultCache::Counters after_warm = cache.counters();
  // The acceptance gate: hit count equals the repeat count.
  EXPECT_EQ(after_warm.hits, requests.size());
  EXPECT_EQ(after_warm.misses, after_cold.misses);

  ASSERT_EQ(cold.responses.size(), warm.responses.size());
  for (std::size_t i = 0; i < cold.responses.size(); ++i) {
    EXPECT_EQ(cold.responses[i].cache, analysis::CacheState::kMiss) << i;
    EXPECT_EQ(warm.responses[i].cache, analysis::CacheState::kHit) << i;
    // A hit returns the stored outcome — original timings included, so
    // the bytes match without stripping.
    EXPECT_EQ(warm.responses[i].outcome.to_json(),
              cold.responses[i].outcome.to_json())
        << "script " << i;
  }
  // Batch stats over hits tally statuses exactly like the cold pass.
  EXPECT_EQ(warm.stats.ok, cold.stats.ok);
  EXPECT_EQ(warm.stats.parse_errors, cold.stats.parse_errors);
  EXPECT_EQ(warm.stats.total, cold.stats.total);
}

void expect_cache_on_off_bit_identical(std::size_t threads) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::AnalyzerService plain(shared_analyzer());
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(seed_corpus());
  analysis::BatchOptions options;
  options.threads = threads;

  const analysis::BatchResponse off = plain.analyze_batch(requests, options);
  const analysis::BatchResponse miss = cached.analyze_batch(requests, options);
  const analysis::BatchResponse hit = cached.analyze_batch(requests, options);
  ASSERT_EQ(off.responses.size(), miss.responses.size());
  ASSERT_EQ(off.responses.size(), hit.responses.size());
  for (std::size_t i = 0; i < off.responses.size(); ++i) {
    const std::string baseline = strip_timing(off.responses[i].outcome.to_json());
    EXPECT_EQ(strip_timing(miss.responses[i].outcome.to_json()), baseline)
        << "miss path, script " << i << " threads=" << threads;
    EXPECT_EQ(strip_timing(hit.responses[i].outcome.to_json()), baseline)
        << "hit path, script " << i << " threads=" << threads;
    EXPECT_EQ(off.responses[i].cache, analysis::CacheState::kNone);
  }
}

TEST(ServiceCache, CacheOnOffBitIdenticalSerial) {
  expect_cache_on_off_bit_identical(1);
}

TEST(ServiceCache, CacheOnOffBitIdenticalFourThreads) {
  expect_cache_on_off_bit_identical(4);
}

TEST(ServiceCache, ModelFingerprintIsolatesEntries) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService a(shared_analyzer(), &cache);
  const analysis::AnalyzerService b(other_analyzer(), &cache);
  ASSERT_FALSE(a.model_fingerprint().empty());
  ASSERT_FALSE(b.model_fingerprint().empty());
  EXPECT_NE(a.model_fingerprint(), b.model_fingerprint());

  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0]);
  EXPECT_EQ(a.analyze(request).cache, analysis::CacheState::kMiss);
  // Same source, same shared cache — but a different model fingerprint,
  // so service b must not see service a's entry.
  EXPECT_EQ(b.analyze(request).cache, analysis::CacheState::kMiss);
  EXPECT_EQ(a.analyze(request).cache, analysis::CacheState::kHit);
  EXPECT_EQ(b.analyze(request).cache, analysis::CacheState::kHit);
  EXPECT_EQ(cache.counters().stores, 2u);
}

TEST(ServiceCache, LimitsFingerprintIsolatesEntries) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::string source = seed_corpus()[0];

  analysis::AnalyzeRequest ungoverned =
      analysis::AnalyzeRequest::for_source(source);
  analysis::AnalyzeRequest governed =
      analysis::AnalyzeRequest::for_source(source);
  ResourceLimits tiny;
  tiny.max_source_bytes = 16;
  governed.limits = tiny;

  const analysis::AnalyzeResponse free_run = service.analyze(ungoverned);
  EXPECT_EQ(free_run.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(free_run.outcome.status, analysis::ScriptStatus::kOk);
  // Different limits → different key → a miss, and a different outcome.
  const analysis::AnalyzeResponse clipped = service.analyze(governed);
  EXPECT_EQ(clipped.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(clipped.outcome.status, analysis::ScriptStatus::kIneligibleSize);
  // Each key replays its own outcome.
  EXPECT_EQ(service.analyze(ungoverned).outcome.status,
            analysis::ScriptStatus::kOk);
  const analysis::AnalyzeResponse clipped_again = service.analyze(governed);
  EXPECT_EQ(clipped_again.cache, analysis::CacheState::kHit);
  EXPECT_EQ(clipped_again.outcome.status,
            analysis::ScriptStatus::kIneligibleSize);
}

// The key the service builds from a source digest and its per-limits
// context equals the key derived from make_key's text, so a hit through
// either path serves the same outcome.
TEST(ServiceCache, ServiceKeyEqualsTextKey) {
  ResourceLimits sized;
  sized.max_source_bytes = 300;  // some corpus scripts become ineligible
  ResourceLimits deep;
  deep.max_ast_depth = 4096;
  ResourceLimits timed;
  timed.deadline_ms = 600000.0;
  const std::vector<std::string> corpus = seed_corpus();
  for (const ResourceLimits& limits :
       {ResourceLimits{}, ResourceLimits::production(), sized, deep, timed}) {
    analysis::ResultCache by_service({});
    analysis::ResultCache by_text({});
    const analysis::AnalyzerService service(shared_analyzer(), &by_service);
    const analysis::AnalyzerService reader(shared_analyzer(), &by_text);
    const std::string fingerprint = analysis::limits_fingerprint(limits);
    for (const std::string& source : corpus) {
      const std::string text = analysis::ResultCache::make_key(
          analysis::content_hash(source), service.model_fingerprint(),
          limits);
      // Service stores, text path reads.
      const analysis::AnalyzeResponse computed =
          service.analyze(analysis::AnalyzeRequest::for_source(source), limits);
      ASSERT_EQ(computed.cache, analysis::CacheState::kMiss);
      ASSERT_TRUE(analysis::ResultCache::cacheable(computed.outcome))
          << fingerprint;
      EXPECT_TRUE(by_service.contains(analysis::cache_key_of(text)));
      const std::optional<analysis::ScriptOutcome> read =
          by_service.lookup(text);
      ASSERT_TRUE(read.has_value()) << fingerprint;
      const std::string expected =
          analysis::wire::script_outcome_json(computed.outcome);
      EXPECT_EQ(analysis::wire::script_outcome_json(*read), expected);
      // Text path stores, service path reads.
      by_text.store(text, computed.outcome);
      const analysis::AnalyzeResponse hit =
          reader.analyze(analysis::AnalyzeRequest::for_source(source), limits);
      EXPECT_EQ(hit.cache, analysis::CacheState::kHit) << fingerprint;
      EXPECT_EQ(analysis::wire::script_outcome_json(hit.outcome), expected);
      EXPECT_EQ(hit.service_ms, hit.cache_lookup_ms);
    }
    EXPECT_EQ(by_text.counters().hits, corpus.size());
    EXPECT_EQ(by_text.counters().misses, 0u);
  }
}

// A record file written before the 16-byte key (header plus records
// keyed by make_key's text, and by an arbitrary text key) loads and
// serves hits through the service and the text API.
TEST(ServiceCache, TextKeyedRecordFileLoadsAndHits) {
  TempDir dir;
  const analysis::AnalyzerService plain(shared_analyzer());
  const std::vector<std::string> corpus = seed_corpus();
  std::vector<std::string> expected;
  {
    analysis::ResultCache cache({});  // only for its model fingerprint
    const analysis::AnalyzerService keyed(shared_analyzer(), &cache);
    std::ofstream out(dir.path + "/results.ndjson", std::ios::binary);
    out << "{\"magic\":\"jstcache\",\"version\":1,\"wire\":"
        << analysis::wire::kWireFormatVersion << "}\n";
    for (const std::string& source : corpus) {
      const analysis::ScriptOutcome outcome =
          plain.analyze(analysis::AnalyzeRequest::for_source(source)).outcome;
      expected.push_back(analysis::wire::script_outcome_json(outcome));
      out << "{\"key\":\""
          << analysis::ResultCache::make_key(analysis::content_hash(source),
                                             keyed.model_fingerprint(),
                                             ResourceLimits{})
          << "\",\"outcome\":" << expected.back() << "}\n";
    }
    out << "{\"key\":\"legacy-key\",\"outcome\":" << expected.front()
        << "}\n";
  }
  analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
  ASSERT_TRUE(cache.load_error().empty()) << cache.load_error();
  EXPECT_EQ(cache.counters().disk_records, corpus.size() + 1);
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const analysis::AnalyzeResponse response =
        service.analyze(analysis::AnalyzeRequest::for_source(corpus[i]));
    EXPECT_EQ(response.cache, analysis::CacheState::kHit) << i;
    EXPECT_EQ(analysis::wire::script_outcome_json(response.outcome),
              expected[i]);
  }
  const std::optional<analysis::ScriptOutcome> legacy =
      cache.lookup("legacy-key");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*legacy), expected.front());
  EXPECT_EQ(cache.counters().misses, 0u);
}

// Four threads hit, store and refresh under a memory budget of one
// entry, so nearly every store evicts or displaces an outcome another
// thread may be copying after unlocking (and, with a disk tier, races
// disk promotions). Every answer is byte-identical to the stored outcome.
TEST(ResultCache, ConcurrentHitsStoresAndEvictionsStayByteIdentical) {
  const std::vector<std::string> corpus = seed_corpus();
  std::vector<analysis::ScriptOutcome> outcomes;
  std::vector<std::string> expected;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    outcomes.push_back(analyze_outcome_of(corpus[i]));
    expected.push_back(analysis::wire::script_outcome_json(outcomes.back()));
    largest = std::max(largest, expected.back().size());
  }
  const std::size_t budget = largest + 64;  // one entry fits, two do not
  for (const bool with_disk : {false, true}) {
    TempDir dir;
    analysis::ResultCache cache({with_disk ? dir.path : std::string(), budget});
    std::atomic<std::size_t> wrong{0};
    std::atomic<std::size_t> hits{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t round = 0; round < 2000; ++round) {
          const std::size_t k = (round + t) % outcomes.size();
          const std::string key = "concurrent-" + std::to_string(k);
          if ((round + t) % 2 == 0) {
            cache.store(key, outcomes[k]);  // first store or refresh
            continue;
          }
          const std::optional<analysis::ScriptOutcome> hit =
              cache.lookup(key);
          if (!hit.has_value()) continue;
          ++hits;
          if (analysis::wire::script_outcome_json(*hit) != expected[k]) {
            ++wrong;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    // Whether a lookup above hits depends on the interleaving: one entry
    // fits, and a thread never looks up the key it stored last. So every
    // pass ends with hits that cannot miss: all threads look up one hot
    // key while thread 0 keeps storing it again, and a store displaces
    // only its own key's entry.
    const std::string hot = "concurrent-hot";
    cache.store(hot, outcomes[0]);
    std::atomic<std::size_t> hot_misses{0};
    threads.clear();
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t round = 0; round < 200; ++round) {
          if (t == 0 && round % 2 == 0) {
            cache.store(hot, outcomes[0]);
            continue;
          }
          const std::optional<analysis::ScriptOutcome> hit = cache.lookup(hot);
          if (!hit.has_value()) {
            ++hot_misses;
            continue;
          }
          ++hits;
          if (analysis::wire::script_outcome_json(*hit) != expected[0]) {
            ++wrong;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const analysis::ResultCache::Counters counters = cache.counters();
    EXPECT_EQ(wrong.load(), 0u) << "with_disk=" << with_disk;
    EXPECT_EQ(hot_misses.load(), 0u) << "with_disk=" << with_disk;
    EXPECT_GT(hits.load(), 0u);
    EXPECT_GT(counters.evictions, 0u);
    EXPECT_LE(counters.bytes, budget);
    EXPECT_EQ(counters.hits, hits.load());
  }
}

TEST(ServiceCache, ConcurrentRefreshesAndHitsServeOneOutcome) {
  const std::vector<std::string> corpus = seed_corpus();
  const analysis::AnalyzerService plain(shared_analyzer());
  std::vector<std::string> expected;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::string json = analysis::wire::script_outcome_json(
        plain.analyze(analysis::AnalyzeRequest::for_source(corpus[i]))
            .outcome);
    largest = std::max(largest, json.size());
    expected.push_back(strip_timing(json));
  }
  TempDir dir;
  analysis::ResultCache cache({dir.path, (largest + 64) * 2});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 24; ++round) {
        const std::size_t k = (round + t) % expected.size();
        analysis::AnalyzeRequest request =
            analysis::AnalyzeRequest::for_source(corpus[k]);
        if (round % 5 == t % 5) request.cache_mode = CacheMode::kRefresh;
        const analysis::AnalyzeResponse response = service.analyze(request);
        if (strip_timing(analysis::wire::script_outcome_json(
                response.outcome)) != expected[k]) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(cache.counters().hits, 0u);
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(ServiceCache, BypassAndRefreshSemantics) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::string source = seed_corpus()[1];

  analysis::AnalyzeRequest bypass =
      analysis::AnalyzeRequest::for_source(source);
  bypass.cache_mode = CacheMode::kBypass;
  const analysis::AnalyzeResponse bypassed = service.analyze(bypass);
  EXPECT_EQ(bypassed.cache, analysis::CacheState::kBypass);
  EXPECT_EQ(cache.counters().bypasses, 1u);
  EXPECT_EQ(cache.counters().stores, 0u);  // bypass never stores

  analysis::AnalyzeRequest refresh =
      analysis::AnalyzeRequest::for_source(source);
  refresh.cache_mode = CacheMode::kRefresh;
  // Refresh over an absent entry is a miss that stores.
  EXPECT_EQ(service.analyze(refresh).cache, analysis::CacheState::kMiss);
  EXPECT_EQ(cache.counters().stores, 1u);
  // Refresh over an existing entry recomputes and overwrites.
  EXPECT_EQ(service.analyze(refresh).cache, analysis::CacheState::kStale);
  EXPECT_EQ(cache.counters().stores, 2u);
  // The entry is live for default-mode readers.
  EXPECT_EQ(service.analyze(analysis::AnalyzeRequest::for_source(source)).cache,
            analysis::CacheState::kHit);
}

TEST(ServiceCache, UnsettledOutcomesAreNeverServedFromCache) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  // Large enough to pass the size-eligibility gate, so the 1e-9 deadline
  // is what trips — as kDeadlineExceeded or kDegraded depending on which
  // checkpoint notices first. Either way the outcome is unsettled.
  std::string source = "var total = 0;\n";
  for (int i = 0; i < 40; ++i) {
    source += "function f" + std::to_string(i) + "(a) { return a + " +
              std::to_string(i) + "; } total += f" + std::to_string(i) +
              "(" + std::to_string(i) + ");\n";
  }
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(source);
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;
  request.limits = limits;

  const analysis::AnalyzeResponse first = service.analyze(request);
  EXPECT_EQ(first.cache, analysis::CacheState::kMiss);
  EXPECT_FALSE(analysis::ResultCache::cacheable(first.outcome))
      << first.outcome.to_json();
  EXPECT_EQ(cache.counters().stores, 0u);
  // The unsettled outcome was not stored: the repeat misses again.
  const analysis::AnalyzeResponse second = service.analyze(request);
  EXPECT_EQ(second.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(cache.counters().entries, 0u);
}

// --- wire v3 ---------------------------------------------------------------

TEST(WireV3, CacheModeRoundTripsAndDefaultStaysOffTheWire) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "req-1");
  const std::string default_line =
      analysis::wire::analyze_request_json(request);
  EXPECT_EQ(default_line.find("cache_mode"), std::string::npos);

  request.cache_mode = CacheMode::kRefresh;
  const std::string refresh_line =
      analysis::wire::analyze_request_json(request);
  EXPECT_NE(refresh_line.find("\"cache_mode\":\"refresh\""),
            std::string::npos);
  std::string error;
  const std::optional<analysis::AnalyzeRequest> parsed =
      analysis::wire::parse_analyze_request(refresh_line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->cache_mode, CacheMode::kRefresh);
  EXPECT_EQ(parsed->source, "var x = 1;");

  const std::optional<analysis::AnalyzeRequest> defaulted =
      analysis::wire::parse_analyze_request(default_line, &error);
  ASSERT_TRUE(defaulted.has_value()) << error;
  EXPECT_EQ(defaulted->cache_mode, CacheMode::kDefault);
}

TEST(WireV3, PinnedOlderVersionRejectsCacheMode) {
  std::string error;
  for (const char* version : {"1", "2"}) {
    const std::string line = std::string("{\"v\":") + version +
                             ",\"source\":\"var x = 1;\","
                             "\"cache_mode\":\"bypass\"}";
    error.clear();
    const std::optional<analysis::AnalyzeRequest> parsed =
        analysis::wire::parse_analyze_request(line, &error);
    EXPECT_FALSE(parsed.has_value()) << "pinned v" << version;
    EXPECT_NE(error.find("cache_mode"), std::string::npos) << error;
    EXPECT_NE(error.find("v3"), std::string::npos) << error;
  }
  // Unpinned (current version) accepts it.
  const std::optional<analysis::AnalyzeRequest> current =
      analysis::wire::parse_analyze_request(
          "{\"source\":\"var x = 1;\",\"cache_mode\":\"bypass\"}", &error);
  ASSERT_TRUE(current.has_value()) << error;
  EXPECT_EQ(current->cache_mode, CacheMode::kBypass);
  // Unknown mode strings are diagnosed.
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   "{\"source\":\"x\",\"cache_mode\":\"sideways\"}", &error)
                   .has_value());
}

TEST(WireV3, OlderLinesParseIdenticallyAndCachelessResponsesStayClean) {
  // A v2 line (no cache fields) parses exactly as before the bump.
  std::string error;
  const std::optional<analysis::AnalyzeRequest> v2 =
      analysis::wire::parse_analyze_request(
          "{\"v\":2,\"id\":\"a\",\"source\":\"var x = 1;\"}", &error);
  ASSERT_TRUE(v2.has_value()) << error;
  EXPECT_EQ(v2->id, "a");
  EXPECT_TRUE(v2->has_source);
  EXPECT_EQ(v2->cache_mode, CacheMode::kDefault);

  // A cacheless service's response line carries no cache members at all.
  const analysis::AnalyzerService plain(shared_analyzer());
  const analysis::AnalyzeResponse response =
      plain.analyze(analysis::AnalyzeRequest::for_source("var x = 1;"));
  EXPECT_EQ(response.cache, analysis::CacheState::kNone);
  const std::string line = response.to_json();
  EXPECT_EQ(line.find("\"cache\""), std::string::npos) << line;
  EXPECT_EQ(line.find("cache_lookup_ms"), std::string::npos) << line;

  // A cached service's hit is visible to wire clients via ParsedResponse.
  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;");
  (void)cached.analyze(request);
  const analysis::AnalyzeResponse hit = cached.analyze(request);
  EXPECT_EQ(hit.cache, analysis::CacheState::kHit);
  const std::optional<analysis::wire::ParsedResponse> parsed =
      analysis::wire::parse_analyze_response(hit.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->cache_hit());
  EXPECT_TRUE(parsed->cached());
  EXPECT_GE(parsed->cache_lookup_ms, 0.0);
}

// --- longitudinal snapshot diffing ----------------------------------------

TEST(SnapshotDiff, EvolveSnapshotIsDeterministicAndPersistenceBounded) {
  const analysis::PopulationSpec spec = analysis::alexa_month_spec(1);
  const auto seeds = analysis::simulate_population(
      analysis::alexa_month_spec(0), 32, 0x5eed);
  std::vector<std::string> previous;
  for (const analysis::Sample& sample : seeds) {
    previous.push_back(sample.source);
  }
  const std::vector<std::string> a =
      analysis::evolve_snapshot(previous, spec, 0.7, 42);
  const std::vector<std::string> b =
      analysis::evolve_snapshot(previous, spec, 0.7, 42);
  EXPECT_EQ(a, b);  // pure function of (previous, spec, persistence, seed)
  EXPECT_EQ(analysis::evolve_snapshot(previous, spec, 1.0, 42), previous);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (a[i] == previous[i]) ++kept;
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, previous.size());
}

TEST(SnapshotDiff, MonthOneStatsMatchBypassedFullAnalysis) {
  // The snapshot driver's month-1 gate: analyzing the first snapshot
  // through a cold cache must replicate a cache-bypassed full analysis
  // bit-for-bit (stats and outcomes, timing aside).
  const auto samples = analysis::simulate_population(
      analysis::alexa_month_spec(0), 24, 0x5eed);
  std::vector<std::string> sources;
  for (const analysis::Sample& sample : samples) {
    sources.push_back(sample.source);
  }
  analysis::BatchOptions serial;
  serial.threads = 1;

  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::BatchResponse month1 = cached.analyze_batch(
      analysis::make_source_requests(sources), serial);
  const analysis::BatchResponse bypassed = cached.analyze_batch(
      analysis::make_source_requests(sources, CacheMode::kBypass), serial);

  ASSERT_EQ(month1.responses.size(), bypassed.responses.size());
  for (std::size_t i = 0; i < month1.responses.size(); ++i) {
    EXPECT_EQ(strip_timing(month1.responses[i].outcome.to_json()),
              strip_timing(bypassed.responses[i].outcome.to_json()))
        << "script " << i;
  }
  EXPECT_EQ(month1.stats.ok, bypassed.stats.ok);
  EXPECT_EQ(month1.stats.parse_errors, bypassed.stats.parse_errors);
  EXPECT_EQ(month1.stats.ineligible_size, bypassed.stats.ineligible_size);
  EXPECT_EQ(month1.stats.ineligible_ast, bypassed.stats.ineligible_ast);
  EXPECT_EQ(month1.stats.total, bypassed.stats.total);
  // And the cache saw one miss per distinct script (repeats within the
  // snapshot hit), then one bypass per script — no cross-talk.
  std::set<std::string> distinct;
  for (const std::string& source : sources) {
    distinct.insert(analysis::content_hash(source));
  }
  EXPECT_EQ(cache.counters().misses, distinct.size());
  EXPECT_EQ(cache.counters().hits, sources.size() - distinct.size());
  EXPECT_EQ(cache.counters().bypasses, sources.size());
}

}  // namespace
}  // namespace jst
