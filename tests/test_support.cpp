#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <string>

#include "support/arena.h"
#include "support/budget.h"
#include "support/json_reader.h"
#include "support/json_writer.h"
#include "support/lru_table.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"

namespace jst {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next() != b.next()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t value = rng.uniform_int(-5, 9);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), InvalidArgument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.uniform();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(11);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 12000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng(12);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), InvalidArgument);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(13);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t index : sample) EXPECT_LT(index, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(14);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, IdentifierShape) {
  Rng rng(16);
  for (int i = 0; i < 50; ++i) {
    const std::string name = rng.identifier(8);
    EXPECT_EQ(name.size(), 8u);
    EXPECT_TRUE(strings::is_identifier(name)) << name;
  }
}

TEST(Rng, HexStringShape) {
  Rng rng(17);
  const std::string hex = rng.hex_string(12);
  EXPECT_EQ(hex.size(), 12u);
  for (char c : hex) EXPECT_TRUE(strings::is_hex_digit(c));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(18);
  Rng b = a.split();
  EXPECT_NE(a.next(), b.next());
}

// --- strings -----------------------------------------------------------

TEST(Strings, SplitBasic) {
  const auto parts = strings::split("a|b||c", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = strings::split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(strings::join(parts, "--"), "x--y--z");
}

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  hi\t\n"), "hi");
  EXPECT_EQ(strings::trim("\r\n"), "");
  EXPECT_EQ(strings::trim("x"), "x");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(strings::is_identifier("foo"));
  EXPECT_TRUE(strings::is_identifier("_0x1a"));
  EXPECT_TRUE(strings::is_identifier("$"));
  EXPECT_FALSE(strings::is_identifier("1abc"));
  EXPECT_FALSE(strings::is_identifier(""));
  EXPECT_FALSE(strings::is_identifier("a-b"));
}

TEST(Strings, CountLines) {
  EXPECT_EQ(strings::count_lines(""), 1u);
  EXPECT_EQ(strings::count_lines("a\nb"), 2u);
  EXPECT_EQ(strings::count_lines("a\nb\n"), 3u);
}

TEST(Strings, EscapeJsString) {
  EXPECT_EQ(strings::escape_js_string("a\"b"), "a\\\"b");
  EXPECT_EQ(strings::escape_js_string("a\nb"), "a\\nb");
  EXPECT_EQ(strings::escape_js_string("back\\slash"), "back\\\\slash");
}

TEST(Strings, HexEscapeAll) {
  EXPECT_EQ(strings::hex_escape_all("AB"), "\\x41\\x42");
}

TEST(Strings, UnicodeEscapeAll) {
  EXPECT_EQ(strings::unicode_escape_all("A"), "\\u0041");
}

TEST(Strings, FormatDoubleTrims) {
  EXPECT_EQ(strings::format_double(1.5), "1.5");
  EXPECT_EQ(strings::format_double(2.0), "2");
  EXPECT_EQ(strings::format_double(0.25, 4), "0.25");
}

TEST(Strings, ToBaseN) {
  EXPECT_EQ(strings::to_base_n(0, 16), "0");
  EXPECT_EQ(strings::to_base_n(255, 16), "ff");
  EXPECT_EQ(strings::to_base_n(61, 62), "Z");
  EXPECT_EQ(strings::to_base_n(62, 62), "10");
  EXPECT_THROW(strings::to_base_n(1, 1), InvalidArgument);
}

TEST(Strings, Fnv1aStable) {
  EXPECT_EQ(strings::fnv1a("abc"), strings::fnv1a("abc"));
  EXPECT_NE(strings::fnv1a("abc"), strings::fnv1a("abd"));
}

TEST(Strings, AlnumRatio) {
  EXPECT_DOUBLE_EQ(strings::alnum_ratio("abc123"), 1.0);
  EXPECT_DOUBLE_EQ(strings::alnum_ratio("!!!"), 0.0);
  EXPECT_NEAR(strings::alnum_ratio("a!"), 0.5, 1e-9);
}

// --- stats -------------------------------------------------------------

TEST(Stats, MeanAndVariance) {
  const std::vector<double> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(values), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(values), 1.25);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(stats::mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(stats::stddev(empty), 0.0);
  EXPECT_DOUBLE_EQ(stats::median(empty), 0.0);
  EXPECT_DOUBLE_EQ(stats::max(empty), 0.0);
}

TEST(Stats, MedianAndPercentile) {
  const std::vector<double> values = {5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(values), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(values, 100), 5.0);
}

TEST(Stats, RelativeStddev) {
  const std::vector<double> values = {10, 10, 10};
  EXPECT_DOUBLE_EQ(stats::relative_stddev_percent(values), 0.0);
}

TEST(Stats, ByteEntropyBounds) {
  const std::vector<unsigned char> uniform_byte(100, 'a');
  EXPECT_DOUBLE_EQ(stats::byte_entropy(uniform_byte), 0.0);
  std::vector<unsigned char> all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<unsigned char>(i));
  EXPECT_NEAR(stats::byte_entropy(all), 8.0, 1e-9);
}

TEST(Stats, AccumulatorMatchesBatch) {
  stats::Accumulator acc;
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double v : values) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), stats::mean(values));
  EXPECT_NEAR(acc.variance(), stats::variance(values), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

// --- JsonWriter --------------------------------------------------------

TEST(JsonWriter, ObjectWithValues) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("jstraced");
  w.key("accuracy");
  w.value(0.9941);
  w.key("count");
  w.value(42);
  w.key("ok");
  w.value(true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"jstraced\",\"accuracy\":0.9941,\"count\":42,"
            "\"ok\":true}");
}

TEST(JsonWriter, NestedArrays) {
  JsonWriter w;
  w.begin_array();
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.begin_array();
  w.end_array();
  w.end_array();
  EXPECT_EQ(w.str(), "[[1,2],[]]");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("text");
  w.value("a\"b\nc");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"text\":\"a\\\"b\\nc\"}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.str(), "[null]");
}

// --- JSON string decoding ----------------------------------------------

// The decoded string of a one-string document, or the parse error.
std::string decoded(std::string_view document) {
  std::string error;
  const std::optional<support::JsonValue> value =
      support::parse_json(document, &error);
  if (!value.has_value()) return "error: " + error;
  return value->as_string();
}

TEST(JsonReader, RunEndsAtEscape) {
  EXPECT_EQ(decoded("\"plain run\\\"quoted\\\\ tail\\n\""),
            "plain run\"quoted\\ tail\n");
  EXPECT_EQ(decoded("\"\\t\\/\""), "\t/");  // escapes with no run between
  EXPECT_EQ(decoded("\"\""), "");
}

TEST(JsonReader, RunEndsAtControlByteStillRejected) {
  const std::string document = "\"" + std::string(40, 'a') + "\x01tail\"";
  EXPECT_EQ(decoded(document),
            "error: offset 41: unescaped control character in string");
  EXPECT_EQ(decoded("\"line\nbreak\""),
            "error: offset 5: unescaped control character in string");
}

TEST(JsonReader, RunEndsAtEndOfInputStillRejected) {
  const std::string document = "\"" + std::string(64, 'z');
  EXPECT_EQ(decoded(document), "error: offset 65: unterminated string");
  EXPECT_EQ(decoded("\"ends in a backslash\\"),
            "error: offset 21: unterminated string");
}

TEST(JsonReader, UnicodeEscapeAfterLongRun) {
  const std::string run(4096, 'r');
  EXPECT_EQ(decoded("\"" + run + "\\u00e9\\u4e2d" + run + "\""),
            run + "\xc3\xa9\xe4\xb8\xad" + run);
  EXPECT_EQ(decoded("\"" + run + "\\u00g9\""),
            "error: offset 4099: invalid hex digit in \\u escape");
}

// --- Arena -------------------------------------------------------------

// bytes_used() counts the bytes handed out plus alignment padding. A
// pre-grown chunk that a request skips after a reset hands nothing out,
// so it adds nothing.
TEST(Arena, SkippedChunkAddsNothingToBytesUsed) {
  support::Arena arena;
  arena.allocate(60 * 1024, 8);   // chunk 0: 64 KiB
  arena.allocate(100 * 1024, 8);  // chunk 1: 128 KiB
  arena.allocate(200 * 1024, 8);  // chunk 2: 256 KiB
  ASSERT_EQ(arena.capacity_bytes(), std::size_t{448} * 1024);
  arena.reset();
  ASSERT_EQ(arena.bytes_used(), 0u);

  // Fits only chunk 2. Chunks are malloc'd, so max_align_t-aligned, and an
  // 8-aligned request at a chunk's start needs no padding.
  constexpr std::size_t kRequest = 150 * 1024;
  arena.allocate(kRequest, 8);
  EXPECT_EQ(arena.bytes_used(), kRequest);
  EXPECT_EQ(arena.capacity_bytes(), std::size_t{448} * 1024);  // no growth

  // The next request lands right after it, padded to its alignment.
  arena.allocate(1, 1);
  arena.allocate(16, 16);
  EXPECT_EQ(arena.bytes_used(), kRequest + 1 + 15 + 16);
}

// --- Budget ------------------------------------------------------------

TEST(Budget, DefaultLimitsGovernNothing) {
  ResourceLimits limits;
  EXPECT_FALSE(limits.any_enabled());
  Budget budget(limits);
  for (int i = 0; i < 100000; ++i) budget.charge_tokens();
  for (int i = 0; i < 100000; ++i) budget.charge_ast_nodes();
  budget.check_depth(100000);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(budget.try_charge_dataflow_edges());
  }
  EXPECT_FALSE(budget.deadline_expired());
  EXPECT_EQ(budget.tokens_charged(), 100000u);
  EXPECT_EQ(budget.ast_nodes_charged(), 100000u);
  EXPECT_EQ(budget.dataflow_edges_charged(), 100000u);
}

TEST(Budget, ProductionLimitsAreEnabled) {
  const ResourceLimits limits = ResourceLimits::production();
  EXPECT_TRUE(limits.any_enabled());
  EXPECT_GT(limits.max_source_bytes, 0u);
  EXPECT_GT(limits.max_tokens, 0u);
  EXPECT_GT(limits.max_ast_nodes, 0u);
  EXPECT_GT(limits.max_ast_depth, 0u);
  EXPECT_GT(limits.max_dataflow_edges, 0u);
  EXPECT_GT(limits.deadline_ms, 0.0);
}

TEST(Budget, TokenCeilingTripsExactlyPastLimit) {
  ResourceLimits limits;
  limits.max_tokens = 10;
  Budget budget(limits);
  budget.set_stage("lex");
  for (int i = 0; i < 10; ++i) budget.charge_tokens();  // at the limit: fine
  try {
    budget.charge_tokens();  // 11th trips
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& error) {
    EXPECT_EQ(error.trip().kind, ResourceKind::kTokens);
    EXPECT_EQ(error.trip().limit, 10.0);
    EXPECT_EQ(error.trip().observed, 11.0);
    EXPECT_EQ(error.trip().stage, "lex");
    EXPECT_NE(std::string(error.what()).find("tokens"), std::string::npos);
  }
}

TEST(Budget, AstNodeCeilingTrips) {
  ResourceLimits limits;
  limits.max_ast_nodes = 5;
  Budget budget(limits);
  budget.set_stage("parse");
  for (int i = 0; i < 5; ++i) budget.charge_ast_nodes();
  EXPECT_THROW(budget.charge_ast_nodes(), BudgetExceeded);
}

TEST(Budget, DepthCeilingTrips) {
  ResourceLimits limits;
  limits.max_ast_depth = 8;
  Budget budget(limits);
  budget.set_stage("parse");
  budget.check_depth(8);  // at the limit: fine
  try {
    budget.check_depth(9);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& error) {
    EXPECT_EQ(error.trip().kind, ResourceKind::kAstDepth);
    EXPECT_EQ(error.trip().limit, 8.0);
    EXPECT_EQ(error.trip().observed, 9.0);
  }
}

TEST(Budget, DataflowEdgesAreSoft) {
  ResourceLimits limits;
  limits.max_dataflow_edges = 3;
  Budget budget(limits);
  budget.set_stage("dataflow");
  EXPECT_TRUE(budget.try_charge_dataflow_edges());
  EXPECT_TRUE(budget.try_charge_dataflow_edges());
  EXPECT_TRUE(budget.try_charge_dataflow_edges());
  // Past the ceiling: refused, never throws.
  EXPECT_FALSE(budget.try_charge_dataflow_edges());
  EXPECT_FALSE(budget.try_charge_dataflow_edges());
  const BudgetTrip trip = budget.make_trip(ResourceKind::kDataflowEdges);
  EXPECT_EQ(trip.limit, 3.0);
  EXPECT_GT(trip.observed, 3.0);
}

TEST(Budget, ExpiredDeadlineDetected) {
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;  // already expired by the first check
  Budget budget(limits);
  budget.set_stage("features");
  EXPECT_TRUE(budget.deadline_expired());
  EXPECT_THROW(budget.check_deadline(), BudgetExceeded);
}

TEST(Budget, GenerousDeadlineDoesNotTrip) {
  ResourceLimits limits;
  limits.deadline_ms = 1e9;
  Budget budget(limits);
  EXPECT_FALSE(budget.deadline_expired());
  budget.check_deadline();  // no throw
  for (int i = 0; i < 10000; ++i) budget.charge_tokens();
}

TEST(Budget, TripDiagnosticsFormatted) {
  ResourceLimits limits;
  limits.max_tokens = 2;
  Budget budget(limits);
  budget.set_stage("lex");
  budget.charge_tokens();
  budget.charge_tokens();
  try {
    budget.charge_tokens();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& error) {
    const std::string text = error.trip().to_string();
    EXPECT_NE(text.find("tokens"), std::string::npos);
    EXPECT_NE(text.find("lex"), std::string::npos);
    EXPECT_NE(text.find('2'), std::string::npos);
    EXPECT_NE(text.find('3'), std::string::npos);
  }
}

TEST(Budget, ResourceKindNames) {
  EXPECT_EQ(to_string(ResourceKind::kSourceBytes), "source_bytes");
  EXPECT_EQ(to_string(ResourceKind::kTokens), "tokens");
  EXPECT_EQ(to_string(ResourceKind::kAstNodes), "ast_nodes");
  EXPECT_EQ(to_string(ResourceKind::kAstDepth), "ast_depth");
  EXPECT_EQ(to_string(ResourceKind::kDataflowEdges), "dataflow_edges");
  EXPECT_EQ(to_string(ResourceKind::kDeadline), "deadline");
}

// --- FlatTable / LruTable ----------------------------------------------

// Folds every key onto three hash values, so keys pile up in long probe
// runs that wrap around the index and every erase has to shift.
struct ClumpedHash {
  std::size_t operator()(std::uint64_t key) const { return key % 3; }
};

TEST(FlatTable, BackwardShiftKeepsEveryKeyFindable) {
  support::FlatTable<std::uint64_t, std::uint64_t, ClumpedHash> table;
  std::map<std::uint64_t, std::uint64_t> model;
  Rng rng(11);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.index(64);
    const auto id = table.find(key);
    if (rng.bernoulli(0.6)) {
      table[key] = key * 7 + static_cast<std::uint64_t>(step);
      model[key] = key * 7 + static_cast<std::uint64_t>(step);
    } else if (id != decltype(table)::kNone) {
      table.erase(id);
      model.erase(key);
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    for (std::uint64_t probe = 0; probe < 64; ++probe) {
      const auto found = table.find(probe);
      const auto expected = model.find(probe);
      ASSERT_EQ(found != decltype(table)::kNone, expected != model.end())
          << "step " << step << " key " << probe;
      if (expected != model.end()) {
        ASSERT_EQ(table.value(found), expected->second);
      }
    }
  }
}

// Random uses, inserts and evictions against a std::list in recency
// order; enough uses per entry that the eviction queue compacts many
// times and entry ids are reused.
TEST(LruTable, OldestIsExactlyLeastRecentlyUsed) {
  support::LruTable<std::uint64_t, std::string, std::hash<std::uint64_t>> lru;
  std::list<std::uint64_t> model;  // front = most recently used
  Rng rng(5);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.index(40);
    const auto id = lru.find(key);
    if (id != decltype(lru)::kNone) {
      lru.touch(id);
      EXPECT_EQ(lru.value(id), std::to_string(key));
      model.remove(key);
      model.push_front(key);
    } else {
      if (model.size() >= 24) {
        const auto victim = lru.oldest();
        ASSERT_NE(victim, decltype(lru)::kNone);
        ASSERT_EQ(lru.value(victim), std::to_string(model.back()))
            << "step " << step;
        lru.erase(victim);
        model.pop_back();
      }
      lru.insert(key, std::to_string(key));
      model.push_front(key);
    }
    ASSERT_EQ(lru.size(), model.size());
  }
  while (!model.empty()) {
    const auto victim = lru.oldest();
    ASSERT_NE(victim, decltype(lru)::kNone);
    EXPECT_EQ(lru.value(victim), std::to_string(model.back()));
    lru.erase(victim);
    model.pop_back();
  }
  EXPECT_EQ(lru.oldest(), decltype(lru)::kNone);
}

}  // namespace
}  // namespace jst
