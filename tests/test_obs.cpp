// Observability subsystem tests: metrics-registry concurrency (exact
// counter totals, monotone percentiles), export formats (JSON document,
// Prometheus text), trace-span JSONL validity and nesting, and the
// end-to-end smoke used by the `obs` ctest label — a traced batch run
// whose outcomes must be bit-identical with and without sinks attached.
//
// The concurrency hammers run through support::run_parallel with explicit
// widths *and* under the JST_THREADS=1/4 ctest matrix, so both the pinned
// and the environment-driven pool shapes are exercised.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/service.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "support/thread_pool.h"
#include "transform/technique.h"

namespace jst {
namespace {

// --- minimal JSON syntax checker (validation only, no DOM) ---

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) {
  return JsonChecker(text).valid();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts the numeric value of `"key":` from a single-line JSON event.
double json_field(const std::string& line, const std::string& key) {
  const std::string needle = '"' + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0.0;
  return std::atof(line.c_str() + at + needle.size());
}

std::string json_string_field(const std::string& line,
                              const std::string& key) {
  const std::string needle = '"' + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string();
  const std::size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

// --- MetricsRegistry ---

TEST(Metrics, CounterConcurrentExactTotals) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("jst_test_hits_total");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  support::run_parallel(4, kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerTask; ++i) counter.add(1);
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  // Same name resolves to the same instrument.
  registry.counter("jst_test_hits_total").add(1);
  EXPECT_EQ(counter.value(), kTasks * kPerTask + 1);
}

TEST(Metrics, GaugeSetAddSub) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("jst_test_depth");
  gauge.set(5.0);
  gauge.add(2.5);
  gauge.sub(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 6.0);
}

TEST(Metrics, HistogramConcurrentTotalsAndMonotonePercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("jst_test_latency_ms");
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kPerTask = 500;
  // Deterministic values 0.5 .. 50.0 — exactly representable halves, so
  // the atomic sum is order-independent and comparable exactly.
  support::run_parallel(4, kTasks, [&](std::size_t task) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      histogram.record(0.5 * static_cast<double>((task * kPerTask + i) % 100) +
                       0.5);
    }
  });
  EXPECT_EQ(histogram.count(), kTasks * kPerTask);
  const double p50 = histogram.p50();
  const double p95 = histogram.p95();
  const double p99 = histogram.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, histogram.max());
  EXPECT_DOUBLE_EQ(histogram.max(), 50.0);
  // Sum of 16000 values uniformly cycling 0.5..50.0.
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kTasks * kPerTask; ++i) {
    expected_sum += 0.5 * static_cast<double>(i % 100) + 0.5;
  }
  EXPECT_DOUBLE_EQ(histogram.sum(), expected_sum);
}

TEST(Metrics, HistogramPercentileInterpolationBrackets) {
  obs::Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.record(static_cast<double>(i));
  // The median of 1..100 ms sits in the (50, 100] region of the bucket
  // layout; interpolation must keep it inside the data range and ordered.
  EXPECT_GT(histogram.p50(), 1.0);
  EXPECT_LT(histogram.p50(), 100.0);
  EXPECT_LE(histogram.p50(), histogram.p95());
  EXPECT_LE(histogram.p95(), histogram.p99());
  EXPECT_LE(histogram.p99(), 100.0);
  // Overflow bucket: a huge value is clamped to the observed max.
  histogram.record(123456.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 123456.0);
  EXPECT_LE(histogram.percentile(100.0), 123456.0);
}

TEST(Metrics, JsonExportIsValidJson) {
  obs::MetricsRegistry registry;
  registry.counter("jst_a_total").add(3);
  registry.gauge("jst_b").set(1.5);
  registry.histogram("jst_c_ms").record(2.0);
  const std::string json = registry.to_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"jst_a_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(Metrics, PrometheusExportShape) {
  obs::MetricsRegistry registry;
  registry.counter("jst_a_total").add(7);
  registry.gauge("jst_b").set(2.0);
  obs::Histogram& histogram = registry.histogram("jst_c_ms");
  histogram.record(0.3);
  histogram.record(40.0);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE jst_a_total counter\njst_a_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE jst_b gauge\njst_b 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE jst_c_ms histogram\n"), std::string::npos);
  // Cumulative buckets end at the total count, and sum/count lines exist.
  EXPECT_NE(text.find("jst_c_ms_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("jst_c_ms_sum 40.3\n"), std::string::npos);
  EXPECT_NE(text.find("jst_c_ms_count 2\n"), std::string::npos);
  // Every non-comment line is `name[{labels}] value`.
  for (const std::string& line : split_lines(text)) {
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
  }
}

TEST(Metrics, ResetZeroesInstrumentsInPlace) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("jst_r_total");
  obs::Histogram& histogram = registry.histogram("jst_r_ms");
  counter.add(5);
  histogram.record(1.0);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  counter.add(2);  // references stay live after reset
  EXPECT_EQ(counter.value(), 2u);
}

// --- trace spans ---

TEST(Trace, DisabledTracingWritesNothing) {
  ASSERT_EQ(obs::trace_sink(), nullptr);
  { JST_SPAN("inert"); }
  std::ostringstream out;
  obs::TraceSink sink(out);
  EXPECT_EQ(sink.event_count(), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(Trace, SpansEmitValidJsonlCompleteEvents) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  obs::set_trace_sink(&sink);
  {
    JST_SPAN("outer");
    { JST_SPAN("inner"); }
  }
  support::run_parallel(4, 8, [](std::size_t) { JST_SPAN("worker"); });
  obs::set_trace_sink(nullptr);

  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_GE(lines.size(), 10u);  // inner+outer plus 8 worker spans
  EXPECT_EQ(sink.event_count(), lines.size());
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    EXPECT_EQ(json_string_field(line, "ph"), "X") << line;
    EXPECT_FALSE(json_string_field(line, "name").empty()) << line;
    EXPECT_GE(json_field(line, "ts"), 0.0) << line;
    EXPECT_GE(json_field(line, "dur"), 0.0) << line;
  }
}

TEST(Trace, NestedSpansAreIntervalContained) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  obs::set_trace_sink(&sink);
  {
    JST_SPAN("parent");
    { JST_SPAN("child"); }
  }
  obs::set_trace_sink(nullptr);

  std::string parent, child;
  for (const std::string& line : split_lines(out.str())) {
    if (json_string_field(line, "name") == "parent") parent = line;
    if (json_string_field(line, "name") == "child") child = line;
  }
  ASSERT_FALSE(parent.empty());
  ASSERT_FALSE(child.empty());
  EXPECT_EQ(json_field(parent, "tid"), json_field(child, "tid"));
  // Child closes first (JSONL order) and nests inside the parent window.
  EXPECT_GE(json_field(child, "ts"), json_field(parent, "ts"));
  EXPECT_LE(json_field(child, "ts") + json_field(child, "dur"),
            json_field(parent, "ts") + json_field(parent, "dur") + 1e-3);
}

// --- end-to-end smoke (ctest label: obs) ---

// Tiny but real analyzer: trains in seconds, exercises every instrumented
// layer (parser, CFG/dataflow, features, forests, thread pool, service).
const analysis::TransformationAnalyzer& smoke_analyzer() {
  static const analysis::TransformationAnalyzer* kAnalyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 16;
    options.per_technique_count = 4;
    options.seed = 20260806;
    options.detector.forest.tree_count = 4;
    options.detector.features.ngram.hash_dim = 64;
    auto* analyzer = new analysis::TransformationAnalyzer(options);
    analyzer->train();
    return analyzer;
  }();
  return *kAnalyzer;
}

std::vector<std::string> smoke_sources() {
  analysis::CorpusSpec spec;
  spec.regular_count = 6;
  spec.seed = 77;
  std::vector<std::string> sources = analysis::generate_regular_corpus(spec);
  sources.push_back("var broken = ;;; {{{");  // parse error path
  return sources;
}

void expect_outcomes_bit_identical(const analysis::BatchResponse& a,
                                   const analysis::BatchResponse& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const analysis::ScriptOutcome& lhs = a.responses[i].outcome;
    const analysis::ScriptOutcome& rhs = b.responses[i].outcome;
    EXPECT_EQ(lhs.status, rhs.status) << i;
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_regular,
                     rhs.report.level1.p_regular) << i;
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_minified,
                     rhs.report.level1.p_minified) << i;
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_obfuscated,
                     rhs.report.level1.p_obfuscated) << i;
    EXPECT_EQ(lhs.report.technique_confidence,
              rhs.report.technique_confidence) << i;
    EXPECT_EQ(lhs.error_message, rhs.error_message) << i;
  }
}

TEST(ObsSmoke, BatchIsBitIdenticalWithAndWithoutSinks) {
  const analysis::AnalyzerService service(smoke_analyzer());
  const std::vector<std::string> sources = smoke_sources();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    analysis::BatchOptions options;
    options.threads = threads;
    const analysis::BatchResponse detached =
        service.analyze_batch(analysis::make_source_requests(sources),
                              options);

    std::ostringstream trace_out;
    obs::TraceSink sink(trace_out);
    obs::set_trace_sink(&sink);
    const analysis::BatchResponse attached =
        service.analyze_batch(analysis::make_source_requests(sources),
                              options);
    obs::set_trace_sink(nullptr);

    expect_outcomes_bit_identical(detached, attached);
    EXPECT_GT(sink.event_count(), 0u) << "threads=" << threads;
  }
}

TEST(ObsSmoke, TraceJsonlAndPrometheusParseCleanly) {
  const analysis::AnalyzerService service(smoke_analyzer());
  const std::vector<std::string> sources = smoke_sources();

  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  obs::set_trace_sink(&sink);
  analysis::BatchOptions options;
  options.threads = 2;
  const analysis::BatchResponse result =
      service.analyze_batch(analysis::make_source_requests(sources), options);
  obs::set_trace_sink(nullptr);

  // Every trace line is a complete JSON event; the span taxonomy covers
  // the batch plus each pipeline stage.
  const std::vector<std::string> lines = split_lines(trace_out.str());
  ASSERT_FALSE(lines.empty());
  std::size_t batch_spans = 0;
  std::size_t script_spans = 0;
  std::size_t stage_spans = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(is_valid_json(line)) << line;
    const std::string name = json_string_field(line, "name");
    if (name == "batch") ++batch_spans;
    if (name == "script") ++script_spans;
    if (name == "static_analysis" || name == "features" ||
        name == "inference" || name == "lex" || name == "parse") {
      ++stage_spans;
    }
  }
  EXPECT_EQ(batch_spans, 1u);
  EXPECT_EQ(script_spans, sources.size());
  EXPECT_GE(stage_spans, 3 * sources.size());

  // Batch stats: percentiles ordered, stage sums partition the totals
  // (each fresh outcome's stages add up to its total up to rounding).
  const analysis::BatchStats& stats = result.stats;
  EXPECT_LE(stats.p50_script_ms, stats.p95_script_ms);
  EXPECT_LE(stats.p95_script_ms, stats.p99_script_ms);
  EXPECT_LE(stats.p99_script_ms, stats.max_script_ms);
  EXPECT_NEAR(stats.stage_ms_sum(), stats.total_script_ms,
              1e-6 * static_cast<double>(stats.total));
  EXPECT_TRUE(is_valid_json(stats.to_json())) << stats.to_json();

  // The global registry saw the batch and exports cleanly in both formats.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_GE(registry.counter("jst_scripts_total").value(), sources.size());
  EXPECT_GE(registry.counter("jst_batches_total").value(), 1u);
  EXPECT_TRUE(is_valid_json(registry.to_json()));
  const std::string prometheus = registry.to_prometheus();
  EXPECT_NE(prometheus.find("# TYPE jst_script_total_ms histogram"),
            std::string::npos);
  for (const std::string& line : split_lines(prometheus)) {
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
  }
}

// Trace spans must account for (nearly) all of the batch wall time: the
// top-level "batch" span is openest-to-close of the whole run, so its
// duration must be ≥ 95% of the measured wall_ms.
TEST(ObsSmoke, BatchSpanCoversWallTime) {
  const analysis::AnalyzerService service(smoke_analyzer());
  const std::vector<std::string> sources = smoke_sources();

  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  obs::set_trace_sink(&sink);
  analysis::BatchOptions options;
  options.threads = 2;
  const analysis::BatchResponse result =
      service.analyze_batch(analysis::make_source_requests(sources), options);
  obs::set_trace_sink(nullptr);

  double batch_dur_us = 0.0;
  for (const std::string& line : split_lines(trace_out.str())) {
    if (json_string_field(line, "name") == "batch") {
      batch_dur_us = json_field(line, "dur");
    }
  }
  EXPECT_GE(batch_dur_us / 1000.0, 0.95 * result.stats.wall_ms);
}

// --- request context (DESIGN.md §14) ---

TEST(RequestContext, GenerateProducesUniqueValidIds) {
  std::set<std::string> seen;
  for (int i = 0; i < 256; ++i) {
    const std::string id = obs::generate_request_id();
    EXPECT_TRUE(obs::is_valid_request_id(id)) << id;
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
  }
}

TEST(RequestContext, ValidatorAcceptsOnly16LowercaseHex) {
  EXPECT_TRUE(obs::is_valid_request_id("0123456789abcdef"));
  EXPECT_FALSE(obs::is_valid_request_id(""));
  EXPECT_FALSE(obs::is_valid_request_id("0123456789abcde"));     // 15
  EXPECT_FALSE(obs::is_valid_request_id("0123456789abcdef0"));   // 17
  EXPECT_FALSE(obs::is_valid_request_id("0123456789ABCDEF"));    // upper
  EXPECT_FALSE(obs::is_valid_request_id("0123456789abcdeg"));    // non-hex
}

TEST(RequestContext, ScopeInstallsNestsAndRestores) {
  EXPECT_TRUE(obs::current_request_id().empty());
  {
    obs::RequestScope outer("aaaaaaaaaaaaaaaa");
    EXPECT_EQ(obs::current_request_id(), "aaaaaaaaaaaaaaaa");
    {
      obs::RequestScope inner("bbbbbbbbbbbbbbbb");
      EXPECT_EQ(obs::current_request_id(), "bbbbbbbbbbbbbbbb");
    }
    EXPECT_EQ(obs::current_request_id(), "aaaaaaaaaaaaaaaa");
    {
      obs::RequestScope cleared("");  // explicit "no request" sub-scope
      EXPECT_TRUE(obs::current_request_id().empty());
    }
    EXPECT_EQ(obs::current_request_id(), "aaaaaaaaaaaaaaaa");
  }
  EXPECT_TRUE(obs::current_request_id().empty());
}

// The serving-path hop: submit() must carry the submitter's id onto the
// worker lane, and concurrent requests must never see each other's ids.
// Runs under the JST_THREADS=1/4 ctest matrix, so both the inline and
// the real-worker pool shapes are covered.
TEST(RequestContext, ThreadPoolSubmitPropagatesWithoutCrossContamination) {
  support::ThreadPool pool(4);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksEach = 32;
  std::array<std::array<std::string, kTasksEach>, kSubmitters> observed;
  std::atomic<std::size_t> done{0};

  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      const std::string rid =
          std::string(15, '0') + static_cast<char>('a' + s);
      obs::RequestScope scope(rid);
      for (std::size_t t = 0; t < kTasksEach; ++t) {
        pool.submit([&, s, t] {
          observed[s][t] = std::string(obs::current_request_id());
          done.fetch_add(1);
        });
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  while (done.load() < kSubmitters * kTasksEach) std::this_thread::yield();

  for (std::size_t s = 0; s < kSubmitters; ++s) {
    const std::string expected =
        std::string(15, '0') + static_cast<char>('a' + s);
    for (std::size_t t = 0; t < kTasksEach; ++t) {
      EXPECT_EQ(observed[s][t], expected) << "submitter " << s;
    }
  }
  // Workers restore their ambient (empty) context after every task.
  std::atomic<bool> ambient_empty{false};
  std::atomic<bool> checked{false};
  pool.submit([&] {
    ambient_empty = obs::current_request_id().empty();
    checked = true;
  });
  while (!checked.load()) std::this_thread::yield();
  EXPECT_TRUE(ambient_empty.load());
}

TEST(Trace, SpanCarriesRequestIdWhenScoped) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  obs::set_trace_sink(&sink);
  { JST_SPAN("bare"); }
  {
    obs::RequestScope scope("feedfacefeedface");
    JST_SPAN("scoped");
  }
  obs::set_trace_sink(nullptr);

  std::string bare, scoped;
  for (const std::string& line : split_lines(out.str())) {
    if (json_string_field(line, "name") == "bare") bare = line;
    if (json_string_field(line, "name") == "scoped") scoped = line;
  }
  ASSERT_FALSE(bare.empty());
  ASSERT_FALSE(scoped.empty());
  // Pre-PR-7 byte shape without a request in scope: no args member.
  EXPECT_EQ(bare.find("\"args\""), std::string::npos) << bare;
  EXPECT_EQ(json_string_field(scoped, "rid"), "feedfacefeedface") << scoped;
  EXPECT_TRUE(is_valid_json(scoped)) << scoped;
}

// --- sliding-window telemetry ---

TEST(Window, CounterSumsOnlyTheWindow) {
  obs::WindowedCounter counter(10);
  counter.add_at(100, 5);
  counter.add_at(104, 3);
  counter.add_at(109, 2);
  EXPECT_EQ(counter.sum_at(109), 10u);           // all inside [100, 109]
  EXPECT_EQ(counter.sum_at(110), 5u);            // second 100 aged out
  EXPECT_EQ(counter.sum_at(114), 2u);            // only second 109 left
  EXPECT_EQ(counter.sum_at(119), 0u);            // everything aged out
  EXPECT_DOUBLE_EQ(counter.rate_at(109), 1.0);   // 10 events / 10 s
}

TEST(Window, CounterAccumulatesWithinOneSecond) {
  obs::WindowedCounter counter(5);
  for (int i = 0; i < 7; ++i) counter.add_at(42);
  EXPECT_EQ(counter.sum_at(42), 7u);
  EXPECT_EQ(counter.sum_at(46), 7u);
  EXPECT_EQ(counter.sum_at(47), 0u);
}

// The windowed histogram forgets a slow burst once it ages out — the
// property behind the stale-admission fix (Server::admission_p95_ms).
TEST(Window, HistogramForgetsOldBurst) {
  obs::WindowedHistogram histogram(10);
  // Second 0: a burst of 200 ms requests.
  for (int i = 0; i < 100; ++i) histogram.record_at(0, 200.0);
  obs::WindowSnapshot during = histogram.snapshot_at(5);
  EXPECT_EQ(during.count, 100u);
  EXPECT_GT(during.p95, 100.0);
  EXPECT_DOUBLE_EQ(during.max, 200.0);

  // Second 30: only fast traffic in the window.
  for (int i = 0; i < 100; ++i) histogram.record_at(30, 1.0);
  obs::WindowSnapshot after = histogram.snapshot_at(30);
  EXPECT_EQ(after.count, 100u);
  EXPECT_LT(after.p95, 5.0);
  EXPECT_DOUBLE_EQ(after.max, 1.0);
}

TEST(Window, HistogramSnapshotPercentilesOrdered) {
  obs::WindowedHistogram histogram(60);
  for (int i = 1; i <= 100; ++i) {
    histogram.record_at(1000 + static_cast<std::uint64_t>(i % 10),
                        static_cast<double>(i));
  }
  const obs::WindowSnapshot snapshot = histogram.snapshot_at(1009);
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 5050.0);
  EXPECT_LE(snapshot.p50, snapshot.p95);
  EXPECT_LE(snapshot.p95, snapshot.p99);
  EXPECT_LE(snapshot.p99, snapshot.max);
  EXPECT_DOUBLE_EQ(snapshot.max, 100.0);
}

TEST(Window, ConcurrentAddsAreExactWithinOneSecond) {
  obs::WindowedCounter counter(60);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 500;
  support::run_parallel(4, kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerTask; ++i) counter.add_at(7);
  });
  EXPECT_EQ(counter.sum_at(7), kTasks * kPerTask);
}

// --- flight recorder ---

TEST(Flight, RecordsDumpAsValidNdjsonAndJsonArray) {
  obs::FlightRecorder recorder;
  recorder.record(obs::FlightEventKind::kAdmit, "cafecafecafecafe", {},
                  "admitted", 3.0, 12.5, 1000.0);
  recorder.record(obs::FlightEventKind::kShed, "cafecafecafecafe", {},
                  "overloaded", 7.0, 99.0, 10.0);
  recorder.record(obs::FlightEventKind::kStage, "", "deadbeefdeadbeef",
                  "inference", 0.25);

  const std::string ndjson = recorder.dump_ndjson();
  const std::vector<std::string> lines = split_lines(ndjson);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    EXPECT_FALSE(json_string_field(line, "kind").empty()) << line;
    EXPECT_GE(json_field(line, "ts_us"), 0.0) << line;
  }
  EXPECT_EQ(json_string_field(lines[0], "kind"), "admit");
  EXPECT_EQ(json_string_field(lines[0], "rid"), "cafecafecafecafe");
  EXPECT_EQ(json_string_field(lines[0], "label"), "admitted");
  EXPECT_DOUBLE_EQ(json_field(lines[1], "b"), 99.0);
  EXPECT_EQ(json_string_field(lines[2], "key"), "deadbeefdeadbeef");

  const std::string array = recorder.dump_json_array();
  EXPECT_TRUE(is_valid_json(array)) << array;
  EXPECT_EQ(array.front(), '[');
  EXPECT_EQ(array.back(), ']');
}

TEST(Flight, RingOverwritesOldestBeyondCapacity) {
  obs::FlightRecorder recorder;
  const std::size_t total = obs::FlightRecorder::kRingCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record(obs::FlightEventKind::kRespond, {}, {}, nullptr,
                    static_cast<double>(i));
  }
  const std::vector<std::string> lines = split_lines(recorder.dump_ndjson());
  ASSERT_EQ(lines.size(), obs::FlightRecorder::kRingCapacity);
  // The survivors are exactly the most recent kRingCapacity events.
  EXPECT_DOUBLE_EQ(json_field(lines.front(), "a"), 50.0);
  EXPECT_DOUBLE_EQ(json_field(lines.back(), "a"),
                   static_cast<double>(total - 1));
}

TEST(Flight, DisabledRecorderDropsEvents) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(false);
  recorder.record(obs::FlightEventKind::kAdmit, {}, {}, nullptr);
  EXPECT_TRUE(recorder.dump_ndjson().empty());
  recorder.set_enabled(true);
  recorder.record(obs::FlightEventKind::kAdmit, {}, {}, nullptr);
  EXPECT_EQ(split_lines(recorder.dump_ndjson()).size(), 1u);
}

TEST(Flight, RecordDefaultsRidToCurrentScope) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  {
    obs::RequestScope scope("0123456789abcdef");
    obs::flight_record(obs::FlightEventKind::kPickup, {}, nullptr, 1.5);
  }
  bool found = false;
  for (const std::string& line : split_lines(recorder.dump_ndjson())) {
    if (json_string_field(line, "kind") == "pickup" &&
        json_string_field(line, "rid") == "0123456789abcdef") {
      found = true;
    }
  }
  recorder.clear();
  EXPECT_TRUE(found);
}

TEST(Flight, SlowExemplarsKeepLargestPerHash) {
  obs::SlowExemplars exemplars(2);
  EXPECT_TRUE(exemplars.offer("hash-a", "aaaaaaaaaaaaaaaa", 10.0));
  EXPECT_TRUE(exemplars.offer("hash-b", "bbbbbbbbbbbbbbbb", 5.0));
  // Same hash, slower: re-ranks in place (no duplicate entry).
  EXPECT_TRUE(exemplars.offer("hash-b", "cccccccccccccccc", 20.0));
  // Same hash, faster: ignored.
  EXPECT_FALSE(exemplars.offer("hash-a", "dddddddddddddddd", 1.0));
  // New hash slower than the floor evicts the current minimum.
  EXPECT_TRUE(exemplars.offer("hash-c", "eeeeeeeeeeeeeeee", 15.0));
  // New hash faster than the floor is rejected at capacity.
  EXPECT_FALSE(exemplars.offer("hash-d", "ffffffffffffffff", 2.0));

  const auto snapshot = exemplars.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].source_hash, "hash-b");
  EXPECT_DOUBLE_EQ(snapshot[0].service_ms, 20.0);
  EXPECT_EQ(snapshot[0].rid, "cccccccccccccccc");
  EXPECT_EQ(snapshot[1].source_hash, "hash-c");
  EXPECT_TRUE(is_valid_json(exemplars.to_json())) << exemplars.to_json();
}

// --- unit-interval histogram layout (confidence telemetry) ---

TEST(Metrics, UnitLayoutHistogramResolvesConfidences) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram =
      registry.histogram("jst_test_confidence", obs::HistogramLayout::kUnit);
  EXPECT_EQ(histogram.layout(), obs::HistogramLayout::kUnit);
  // The latency layout would crush [0,1] into two buckets; the unit
  // layout must keep 0.1 and 0.9 well separated.
  for (int i = 0; i < 90; ++i) histogram.record(0.1);
  for (int i = 0; i < 10; ++i) histogram.record(0.9);
  EXPECT_LT(histogram.p50(), 0.2);
  EXPECT_GT(histogram.p95(), 0.8);
  EXPECT_LE(histogram.percentile(100.0), 0.9 + 1e-9);
  // Same name re-resolves to the same instrument, layout unchanged.
  EXPECT_EQ(&registry.histogram("jst_test_confidence"), &histogram);
  EXPECT_EQ(histogram.layout(), obs::HistogramLayout::kUnit);
}

// --- Prometheus conformance (HELP/TYPE headers, cumulative buckets) ---

TEST(Metrics, PrometheusConformanceHelpTypeAndCumulativeBuckets) {
  obs::MetricsRegistry registry;
  registry.counter("jst_pc_total").add(4);
  registry.set_help("jst_pc_total", "a counter with help");
  registry.gauge("jst_pc_depth").set(3.0);
  obs::Histogram& histogram = registry.histogram("jst_pc_ms");
  registry.set_help("jst_pc_ms", "a histogram with help");
  histogram.record(0.2);
  histogram.record(3.0);
  histogram.record(300.0);

  const std::string text = registry.to_prometheus();
  // Every family has # HELP immediately followed by # TYPE.
  EXPECT_NE(text.find("# HELP jst_pc_total a counter with help\n"
                      "# TYPE jst_pc_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP jst_pc_ms a histogram with help\n"
                      "# TYPE jst_pc_ms histogram\n"),
            std::string::npos)
      << text;
  // Un-helped families still carry a HELP line (conformant exporters
  // always pair HELP with TYPE).
  EXPECT_NE(text.find("# HELP jst_pc_depth "), std::string::npos) << text;

  // Parse-validate the histogram family: le= labels strictly increasing,
  // bucket counts cumulative (monotone), +Inf bucket equals _count.
  double previous_le = -1.0;
  std::uint64_t previous_count = 0;
  std::uint64_t inf_count = 0;
  bool saw_inf = false;
  for (const std::string& line : split_lines(text)) {
    if (line.rfind("jst_pc_ms_bucket{le=\"", 0) != 0) continue;
    const std::size_t open = line.find('"') + 1;
    const std::size_t close = line.find('"', open);
    const std::string le = line.substr(open, close - open);
    const std::uint64_t count = static_cast<std::uint64_t>(
        std::atoll(line.c_str() + line.rfind(' ') + 1));
    EXPECT_GE(count, previous_count) << line;
    previous_count = count;
    if (le == "+Inf") {
      saw_inf = true;
      inf_count = count;
    } else {
      const double bound = std::atof(le.c_str());
      EXPECT_GT(bound, previous_le) << line;
      previous_le = bound;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_count, 3u);
  EXPECT_NE(text.find("jst_pc_ms_count 3\n"), std::string::npos);
}

// --- prediction telemetry (recorded by the pipeline) ---

TEST(ObsSmoke, PredictionTelemetryCountsVerdictsAndConfidences) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto verdicts_total = [&] {
    return registry.counter("jst_predict_transformed_total").value() +
           registry.counter("jst_predict_regular_total").value();
  };
  obs::Histogram& confidence = registry.histogram(
      "jst_predict_identifier_obfuscation_confidence");

  const std::uint64_t verdicts_before = verdicts_total();
  const std::uint64_t confidences_before = confidence.count();

  const analysis::AnalyzerService service(smoke_analyzer());
  std::vector<std::string> sources = smoke_sources();  // last = parse error
  const std::size_t predicted = sources.size() - 1;
  analysis::BatchOptions options;
  options.threads = 1;
  service.analyze_batch(analysis::make_source_requests(sources), options);

  // One level-1 verdict and one per-technique confidence observation per
  // script that reached inference; the parse-error script records none.
  EXPECT_EQ(verdicts_total(), verdicts_before + predicted);
  EXPECT_EQ(confidence.count(), confidences_before + predicted);
  EXPECT_EQ(confidence.layout(), obs::HistogramLayout::kUnit);
  // Confidences are probabilities: the histogram never saw a value > 1.
  EXPECT_LE(confidence.max(), 1.0 + 1e-9);

  // The per-technique series exist for all ten techniques.
  const std::string json = registry.to_json();
  for (transform::Technique technique : transform::all_techniques()) {
    const std::string name(transform::technique_name(technique));
    EXPECT_NE(json.find("jst_predict_" + name + "_total"),
              std::string::npos)
        << name;
    EXPECT_NE(json.find("jst_predict_" + name + "_confidence"),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace jst
