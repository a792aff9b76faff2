// Analysis-as-a-service (DESIGN.md §13): the AnalyzeRequest/AnalyzeResponse
// API, its versioned NDJSON wire schema, and the jstraced daemon.
//
//  * Wire round-trips: request and response lines survive
//    serialize → parse with every field intact; unknown fields, bad
//    types, and newer format versions are rejected with diagnostics.
//  * Admission control: Server::should_shed is a pure function — the
//    hard cap and the queue-wait estimate shed deterministically.
//  * Socket integration: a live daemon serves concurrent bursts with
//    zero dropped connections, resolves content-hash references,
//    answers metrics/ping ops and HTTP-style scrapes, sheds overload
//    with explicit kOverloaded responses, and drains on shutdown
//    without abandoning admitted requests.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "analysis/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "server/client.h"
#include "server/server.h"
#include "support/json_reader.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

// Same corpus as test_frontend/test_compiled: 16 deterministic regular
// scripts plus one transformed variant per technique.
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

// Wall-clock timings differ run to run; everything else must not.
std::string strip_timing(const std::string& outcome_json) {
  static const std::regex kTiming("\"timing\":\\{[^}]*\\},?");
  return std::regex_replace(outcome_json, kTiming, "");
}

// A unique-per-test socket path under /tmp (sun_path is length-limited,
// so the build tree is not a safe prefix).
std::string test_socket_path(const char* tag) {
  return "/tmp/jstraced_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

// Splits NDJSON / JSONL into non-empty lines.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts `"key":"..."` from a single-line JSON event ("" when absent).
std::string json_string_field(const std::string& line,
                              const std::string& key) {
  const std::string needle = '"' + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string();
  const std::size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

// Extracts the numeric `"key":` value from a single-line JSON event.
double json_number_field(const std::string& line, const std::string& key) {
  const std::string needle = '"' + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0.0;
  return std::atof(line.c_str() + at + needle.size());
}

// --- wire schema: requests -------------------------------------------------

TEST(WireSchema, RequestRoundTripInlineSource) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "req-7");
  request.detail = analysis::OutputDetail::kSummary;
  ResourceLimits limits;
  limits.deadline_ms = 250.0;
  limits.max_tokens = 5000;
  request.limits = limits;

  const std::string line = analysis::wire::analyze_request_json(request);
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->id, "req-7");
  EXPECT_TRUE(parsed->has_source);
  EXPECT_EQ(parsed->source, "var x = 1;");
  EXPECT_EQ(parsed->detail, analysis::OutputDetail::kSummary);
  ASSERT_TRUE(parsed->limits.has_value());
  EXPECT_DOUBLE_EQ(parsed->limits->deadline_ms, 250.0);
  EXPECT_EQ(parsed->limits->max_tokens, 5000u);
  EXPECT_EQ(parsed->limits->max_ast_nodes, 0u);
}

TEST(WireSchema, RequestRoundTripHashReference) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_hash("00112233aabbccdd", "ref-1");
  const std::string line = analysis::wire::analyze_request_json(request);
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->has_source);
  EXPECT_EQ(parsed->source_hash, "00112233aabbccdd");
  EXPECT_EQ(parsed->detail, analysis::OutputDetail::kFull);
}

TEST(WireSchema, RequestRejectsUnknownFieldAndNewerVersion) {
  std::string error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":1,"source":"x","bogus":true})", &error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":999,"source":"x"})", &error)
                   .has_value());
  EXPECT_FALSE(
      analysis::wire::parse_analyze_request("not json at all", &error)
          .has_value());
}

TEST(WireSchema, RequestLimitsProductionThenOverride) {
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(
      R"({"source":"x","limits":{"production":true,"max_tokens":7}})",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->limits.has_value());
  const ResourceLimits production = ResourceLimits::production();
  EXPECT_EQ(parsed->limits->max_tokens, 7u);  // override wins
  EXPECT_EQ(parsed->limits->max_source_bytes, production.max_source_bytes);
  EXPECT_DOUBLE_EQ(parsed->limits->deadline_ms, production.deadline_ms);
}

// --- wire schema: request_id (v2) ------------------------------------------

TEST(WireSchema, RequestIdRoundTripsOnV2) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "rid-1");
  request.request_id = "0123456789abcdef";
  const std::string line = analysis::wire::analyze_request_json(request);
  EXPECT_NE(line.find("\"request_id\":\"0123456789abcdef\""),
            std::string::npos)
      << line;

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "0123456789abcdef");
  EXPECT_EQ(parsed->id, "rid-1");

  // Absent request_id parses as empty (the daemon mints one later).
  const auto bare = analysis::wire::parse_analyze_request(
      R"({"source":"x"})", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_TRUE(bare->request_id.empty());
}

TEST(WireSchema, RequestIdRejectedUnderPinnedV1) {
  std::string error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":1,"source":"x","request_id":"0123456789abcdef"})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("wire v2"), std::string::npos) << error;
  // An explicit v:2 pin accepts it.
  const auto parsed = analysis::wire::parse_analyze_request(
      R"({"v":2,"source":"x","request_id":"0123456789abcdef"})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "0123456789abcdef");
}

TEST(WireSchema, RequestIdRejectsMalformedShapes) {
  std::string error;
  for (const char* bad :
       {R"({"source":"x","request_id":""})",
        R"({"source":"x","request_id":"short"})",
        R"({"source":"x","request_id":"0123456789ABCDEF"})",
        R"({"source":"x","request_id":"0123456789abcdef0"})"}) {
    EXPECT_FALSE(
        analysis::wire::parse_analyze_request(bad, &error).has_value())
        << bad;
    EXPECT_NE(error.find("request_id"), std::string::npos) << error;
  }
}

TEST(WireSchema, ResponseCarriesRequestIdThroughService) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "echo-1");
  request.request_id = "feedfacefeedface";
  const analysis::AnalyzeResponse response = service.analyze(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.request_id, "feedfacefeedface");

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "feedfacefeedface");
}

// --- wire schema: responses ------------------------------------------------

TEST(WireSchema, ResponseRoundTripOk) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "ok-1");
  analysis::AnalyzeResponse response = service.analyze(request);
  ASSERT_TRUE(response.ok());
  response.queue_ms = 1.5;
  response.queue_depth = 3;

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->version, analysis::wire::kWireFormatVersion);
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->id, "ok-1");
  EXPECT_EQ(parsed->source_hash, analysis::content_hash(seed_corpus()[0]));
  EXPECT_DOUBLE_EQ(parsed->queue_ms, 1.5);
  EXPECT_EQ(parsed->queue_depth, 3u);
  EXPECT_EQ(parsed->outcome_status, to_string(response.outcome.status));
  ASSERT_TRUE(parsed->outcome.is_object());
  // The embedded outcome is the same bytes ScriptOutcome::to_json emits.
  const support::JsonValue* status = parsed->outcome.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->as_string(), to_string(response.outcome.status));
}

TEST(WireSchema, ResponseDetailLevels) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0]);

  request.detail = analysis::OutputDetail::kStatus;
  analysis::AnalyzeResponse status_response = service.analyze(request);
  const std::string status_line = status_response.to_json();
  EXPECT_EQ(status_line.find("\"outcome\":"), std::string::npos);
  EXPECT_NE(status_line.find("\"outcome_status\":"), std::string::npos);

  request.detail = analysis::OutputDetail::kSummary;
  const std::string summary_line = service.analyze(request).to_json();
  EXPECT_NE(summary_line.find("\"outcome\":"), std::string::npos);
  EXPECT_EQ(summary_line.find("\"report\":"), std::string::npos);

  request.detail = analysis::OutputDetail::kFull;
  const std::string full_line = service.analyze(request).to_json();
  EXPECT_NE(full_line.find("\"report\":"), std::string::npos);
}

TEST(WireSchema, ResponseErrorRoundTrip) {
  analysis::AnalyzeResponse response;
  response.status = analysis::ResponseStatus::kOverloaded;
  response.id = "shed-1";
  response.error = "overloaded: 9 in flight";
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, analysis::ResponseStatus::kOverloaded);
  EXPECT_EQ(parsed->error, "overloaded: 9 in flight");
  EXPECT_TRUE(parsed->outcome.is_null());
}

// The member to_json surfaces route through the wire schema — same
// bytes, one serializer.
TEST(WireSchema, ToJsonRoutesThroughWire) {
  const analysis::AnalyzerService service(shared_analyzer());
  const analysis::BatchResponse batch = service.analyze_batch(
      analysis::make_source_requests(seed_corpus()));
  for (const analysis::AnalyzeResponse& response : batch.responses) {
    EXPECT_EQ(response.outcome.to_json(),
              analysis::wire::script_outcome_json(response.outcome));
  }
  EXPECT_EQ(batch.stats.to_json(),
            analysis::wire::batch_stats_json(batch.stats));
}

// --- content hashing -------------------------------------------------------

TEST(ContentHash, StableFormat) {
  const std::string hash = analysis::content_hash("var x = 1;");
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(hash, analysis::content_hash("var x = 1;"));
  EXPECT_NE(hash, analysis::content_hash("var x = 2;"));
}

// --- JSON DOM serializer ---------------------------------------------------

// support::to_json is what Client::metrics_json/stats_json use to lift an
// embedded payload out of the op envelope — it must reproduce the parsed
// document (including the ±1e999 infinity idiom the metrics registry
// emits) and be its own fixpoint.
TEST(JsonRoundTrip, SerializerReproducesDocument) {
  const std::string text =
      R"({"b":true,"inf":1e999,"neg":-1e999,)"
      R"("list":[1,2.5,-0.1,"x\ny",null],)"
      R"("nested":{"count":12345,"frac":0.1}})";
  std::string error;
  const auto parsed = support::parse_json(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::string serialized = support::to_json(*parsed);

  const auto reparsed = support::parse_json(serialized, &error);
  ASSERT_TRUE(reparsed.has_value()) << error << ": " << serialized;
  EXPECT_EQ(support::to_json(*reparsed), serialized);  // fixpoint

  EXPECT_TRUE(std::isinf(reparsed->find("inf")->as_number()));
  EXPECT_GT(reparsed->find("inf")->as_number(), 0.0);
  EXPECT_TRUE(std::isinf(reparsed->find("neg")->as_number()));
  EXPECT_LT(reparsed->find("neg")->as_number(), 0.0);
  EXPECT_NE(serialized.find("1e999"), std::string::npos) << serialized;
  EXPECT_DOUBLE_EQ(reparsed->find("nested")->find("frac")->as_number(), 0.1);
  EXPECT_NE(serialized.find("\"frac\":0.1"), std::string::npos) << serialized;
  EXPECT_EQ(reparsed->find("nested")->find("count")->as_number(), 12345.0);
  EXPECT_NE(serialized.find("\"count\":12345"), std::string::npos)
      << serialized;
  EXPECT_EQ(reparsed->find("list")->as_array()[3].as_string(), "x\ny");
}

// --- admission control (pure function) ------------------------------------

TEST(AdmissionControl, HardCapSheds) {
  EXPECT_TRUE(server::Server::should_shed(4, 2, 0.0, 0.0, 4));
  EXPECT_TRUE(server::Server::should_shed(9, 2, 1.0, 1e9, 4));
  EXPECT_FALSE(server::Server::should_shed(3, 2, 0.0, 0.0, 4));
}

TEST(AdmissionControl, DeadlineEstimateSheds) {
  // 8 queued × 100 ms p95 / 2 workers = 400 ms estimated wait.
  EXPECT_TRUE(server::Server::should_shed(8, 2, 100.0, 399.0, 0));
  EXPECT_FALSE(server::Server::should_shed(8, 2, 100.0, 401.0, 0));
  // More workers absorb the same queue.
  EXPECT_FALSE(server::Server::should_shed(8, 8, 100.0, 399.0, 0));
}

TEST(AdmissionControl, NoDeadlineNeverShedsWithoutCap) {
  EXPECT_FALSE(server::Server::should_shed(100000, 1, 5000.0, 0.0, 0));
  EXPECT_FALSE(server::Server::should_shed(0, 1, 5000.0, 1.0, 0));
}

// Regression for stale admission (PR 7): before the windowed p95, one
// early slow burst poisoned the cumulative p95 for the life of the
// process, so should_shed kept rejecting fast traffic minutes later. The
// windowed estimate forgets the burst once it ages out of the window.
TEST(AdmissionControl, WindowedP95RecoversFromEarlySlowBurst) {
  obs::Histogram cumulative;          // the since-boot view (old behavior)
  obs::WindowedHistogram windowed(60);  // what admission_p95_ms consults

  // Second 0: a 200-request burst at 500 ms service time.
  for (int i = 0; i < 200; ++i) {
    cumulative.record(500.0);
    windowed.record_at(0, 500.0);
  }
  // Ten minutes later: the same count of 1 ms requests.
  for (int i = 0; i < 200; ++i) {
    cumulative.record(1.0);
    windowed.record_at(600, 1.0);
  }

  const double cumulative_p95 = cumulative.p95();
  const double windowed_p95 = windowed.snapshot_at(600).p95;
  EXPECT_GT(cumulative_p95, 100.0);  // still dominated by the burst
  EXPECT_LT(windowed_p95, 10.0);     // burst aged out of the window

  // 4 queued, 2 workers, 250 ms deadline: the cumulative estimate sheds
  // traffic the server could easily serve; the windowed one admits it.
  EXPECT_TRUE(server::Server::should_shed(4, 2, cumulative_p95, 250.0, 0));
  EXPECT_FALSE(server::Server::should_shed(4, 2, windowed_p95, 250.0, 0));
}

// --- socket integration ----------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(const char* tag, server::ServerConfig config) {
    config.socket_path = test_socket_path(tag);
    service_ = std::make_unique<analysis::AnalyzerService>(shared_analyzer());
    daemon_ = std::make_unique<server::Server>(*service_, std::move(config));
    daemon_->start();
  }

  // Postmortem artifact: when a serving test fails, dump the flight
  // recorder next to the test binary so CI can upload it (the workflow
  // attaches test_server_flight.ndjson on failure).
  void TearDown() override {
    if (::testing::Test::HasFailure()) {
      const char* path = std::getenv("JST_FLIGHT_ARTIFACT");
      obs::FlightRecorder::global().dump_to_file(
          path != nullptr ? path : "test_server_flight.ndjson");
    }
  }

  std::unique_ptr<analysis::AnalyzerService> service_;
  std::unique_ptr<server::Server> daemon_;
};

TEST_F(ServerFixture, BurstZeroDroppedConnections) {
  server::ServerConfig config;
  config.workers = 2;
  StartServer("burst", config);

  server::LoadOptions load;
  load.connections = 8;
  load.requests_per_connection = 8;
  load.detail = analysis::OutputDetail::kStatus;
  load.sources = seed_corpus();
  const server::LoadReport report =
      server::run_load(daemon_->socket_path(), load);

  EXPECT_EQ(report.transport_errors, 0u);
  EXPECT_EQ(report.sent, 64u);
  EXPECT_EQ(report.ok, 64u);
  EXPECT_EQ(report.shed, 0u);
  const server::ServerStats stats = daemon_->stats();
  EXPECT_EQ(stats.requests_served, 64u);
  EXPECT_EQ(stats.requests_shed, 0u);
}

TEST_F(ServerFixture, HashReferenceResolvesAfterInlineSubmission) {
  StartServer("hash", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  const std::string source = seed_corpus()[0];

  // Unknown hash first: explicit not_found, connection stays usable.
  const auto miss = client.call(
      analysis::AnalyzeRequest::for_hash(analysis::content_hash(source)));
  EXPECT_EQ(miss.status, analysis::ResponseStatus::kNotFound);

  const auto inline_response =
      client.call(analysis::AnalyzeRequest::for_source(source, "a"));
  ASSERT_TRUE(inline_response.ok());
  EXPECT_EQ(inline_response.source_hash, analysis::content_hash(source));

  const auto by_hash = client.call(
      analysis::AnalyzeRequest::for_hash(inline_response.source_hash, "b"));
  ASSERT_TRUE(by_hash.ok());
  EXPECT_EQ(by_hash.outcome_status, inline_response.outcome_status);
  EXPECT_EQ(by_hash.source_hash, inline_response.source_hash);
}

// A parseable script of exactly `size` bytes whose tail is comment
// padding — distinct tags give distinct content hashes.
std::string padded_source(char tag, std::size_t size) {
  std::string source = "var v = 1; //";
  source.resize(size, tag);
  return source;
}

// The registry is a byte-budgeted LRU: once the budget is exceeded the
// least-recently-used source is evicted (references miss with not_found),
// and resolving a reference refreshes the entry it hit.
TEST_F(ServerFixture, HashRegistryEvictsLeastRecentlyUsed) {
  server::ServerConfig config;
  config.hash_registry_bytes = 700;  // fits two 320-byte sources, not three
  StartServer("lru", config);
  server::Client client(daemon_->socket_path());

  const std::string a = padded_source('a', 320);
  const std::string b = padded_source('b', 320);
  const std::string c = padded_source('c', 320);

  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(a, "a")).ok());
  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(b, "b")).ok());

  // Touch A: it becomes most-recently-used, so registering C evicts B.
  ASSERT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(a)))
          .ok());
  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(c, "c")).ok());

  EXPECT_EQ(client
                .call(analysis::AnalyzeRequest::for_hash(
                    analysis::content_hash(b)))
                .status,
            analysis::ResponseStatus::kNotFound);
  EXPECT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(a)))
          .ok());
  EXPECT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(c)))
          .ok());
}

// A source bigger than the request's effective max_source_bytes is never
// registered: the registry cannot pin memory the pipeline would refuse
// to analyze.
TEST_F(ServerFixture, HashRegistrySkipsSourcesOverLimit) {
  server::ServerConfig config;
  config.default_limits.max_source_bytes = 128;
  StartServer("regcap", config);
  server::Client client(daemon_->socket_path());

  const std::string big = padded_source('g', 320);
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(big, "big")).ok());
  EXPECT_EQ(client
                .call(analysis::AnalyzeRequest::for_hash(
                    analysis::content_hash(big)))
                .status,
            analysis::ResponseStatus::kNotFound);

  const std::string small = padded_source('s', 64);
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(small, "small")).ok());
  EXPECT_TRUE(client
                  .call(analysis::AnalyzeRequest::for_hash(
                      analysis::content_hash(small)))
                  .ok());
}

TEST_F(ServerFixture, PingMetricsAndHttpScrape) {
  StartServer("ops", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  EXPECT_TRUE(client.ping());

  // A served request so the counters are non-trivial.
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(seed_corpus()[0]))
          .ok());
  const std::string metrics = client.metrics_json();
  EXPECT_NE(metrics.find("jst_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("jst_server_service_ms"), std::string::npos);

  // HTTP-style scrape on a fresh connection (the exchange closes it).
  server::Client scraper(daemon_->socket_path());
  const std::string head = scraper.call_raw("GET /metrics HTTP/1.0");
  EXPECT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
}

// One line per kind of invalid request, each on a fresh connection. Every
// kind is answered and counted once by the one refusal path:
// ServerStats::requests_invalid moves by one and nothing else moves — no
// admission, no shed, and no jst_server_* counter (none counts refusals).
// The connection survives every kind but the oversized line, after which
// the daemon closes it.
TEST_F(ServerFixture, MalformedLineAnswersInvalidRequest) {
  server::ServerConfig config;
  constexpr std::size_t kMaxSource = 4096;
  constexpr std::size_t kLineCap = 6 * kMaxSource + 64 * 1024;
  config.default_limits.max_source_bytes = kMaxSource;
  StartServer("bad", config);
  using analysis::ResponseStatus;
  struct Refusal {
    const char* kind;
    std::string line;
    ResponseStatus status;
    const char* id;  // the id the answer echoes
  };
  const std::vector<Refusal> refusals = {
      {"malformed JSON", "this is not json", ResponseStatus::kInvalidRequest,
       ""},
      {"unknown op", R"({"op":"bogus"})", ResponseStatus::kInvalidRequest, ""},
      {"bad request", R"({"v":1,"id":"r3","source":"x","bogus":true})",
       ResponseStatus::kInvalidRequest, "r3"},
      {"unknown source_hash",
       analysis::wire::analyze_request_json(
           analysis::AnalyzeRequest::for_hash("00112233aabbccdd", "r4")),
       ResponseStatus::kNotFound, "r4"},
      {"oversized line", std::string(kLineCap + 1, 'a'),
       ResponseStatus::kInvalidRequest, ""},
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto server_counters = [&registry] {
    return std::vector<std::uint64_t>{
        registry.counter("jst_server_requests_total").value(),
        registry.counter("jst_server_shed_total").value(),
        registry.counter("jst_server_connections_refused_total").value()};
  };
  for (const Refusal& refusal : refusals) {
    const server::ServerStats before = daemon_->stats();
    const std::vector<std::uint64_t> counters_before = server_counters();
    server::Client client(daemon_->socket_path());
    std::string error;
    const auto parsed = analysis::wire::parse_analyze_response(
        client.call_raw(refusal.line), &error);
    ASSERT_TRUE(parsed.has_value()) << refusal.kind << ": " << error;
    EXPECT_EQ(parsed->status, refusal.status) << refusal.kind;
    EXPECT_EQ(parsed->id, refusal.id) << refusal.kind;
    if (refusal.line.size() <= kLineCap) {
      EXPECT_TRUE(client.ping()) << refusal.kind;
    }
    const server::ServerStats after = daemon_->stats();
    EXPECT_EQ(after.requests_invalid, before.requests_invalid + 1)
        << refusal.kind;
    EXPECT_EQ(after.requests_admitted, before.requests_admitted)
        << refusal.kind;
    EXPECT_EQ(after.requests_served, before.requests_served) << refusal.kind;
    EXPECT_EQ(after.requests_shed, before.requests_shed) << refusal.kind;
    EXPECT_EQ(after.connections_refused, before.connections_refused)
        << refusal.kind;
    EXPECT_EQ(server_counters(), counters_before) << refusal.kind;
  }
}

// One "Vm...:" field of /proc/self/status in KiB (VmSize: virtual address
// space, VmRSS: resident set, VmHWM: peak resident set).
std::size_t status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(field.size())));
    }
  }
  return 0;
}

// Open file descriptors of this process (daemon and clients alike).
std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// Connects to `socket_path` and returns everything the daemon sends until
// it closes the connection (10 s receive timeout).
std::string read_until_closed(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "socket failed";
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return "connect failed";
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return received;
}

// A finished connection's reader thread is joined when the next one is
// accepted, so its stack is unmapped: address space stays flat across
// many short-lived connections instead of growing a stack per client.
// Connections refused over max_connections leave no descriptor behind.
// Every connection is opened after the previous one closed.
TEST_F(ServerFixture, FinishedConnectionsAreReaped) {
  StartServer("reap", server::ServerConfig{});
  const auto ping_and_close = [&] {
    server::Client client(daemon_->socket_path());
    EXPECT_TRUE(client.ping());
  };
  for (int i = 0; i < 8; ++i) ping_and_close();
  const std::size_t before_kib = status_kib("VmSize:");
  ASSERT_GT(before_kib, 0u);
  constexpr int kConnections = 1000;
  for (int i = 0; i < kConnections; ++i) ping_and_close();
  const std::size_t after_kib = status_kib("VmSize:");
  const std::size_t growth_kib =
      after_kib > before_kib ? after_kib - before_kib : 0;
  EXPECT_LT(growth_kib, 256u * 1024u)
      << "VmSize grew " << growth_kib / 1024 << " MiB over " << kConnections
      << " connections";
  EXPECT_EQ(daemon_->stats().connections_accepted, 8u + kConnections);

  // One held connection fills a cap of one; every further one is refused.
  server::ServerConfig capped;
  capped.max_connections = 1;
  StartServer("reapcap", capped);
  server::Client holder(daemon_->socket_path());
  ASSERT_TRUE(holder.ping());
  obs::Counter& refused = obs::MetricsRegistry::global().counter(
      "jst_server_connections_refused_total");
  const std::uint64_t refused_before = refused.value();
  const std::size_t fds_before = open_fd_count();
  constexpr std::size_t kRefused = 1000;
  for (std::size_t i = 0; i < kRefused; ++i) {
    const std::string received = read_until_closed(daemon_->socket_path());
    std::string error;
    const auto parsed = analysis::wire::parse_analyze_response(
        received.substr(0, received.find('\n')), &error);
    ASSERT_TRUE(parsed.has_value()) << i << ": " << error;
    ASSERT_EQ(parsed->status, analysis::ResponseStatus::kOverloaded) << i;
  }
  EXPECT_EQ(open_fd_count(), fds_before);
  EXPECT_EQ(daemon_->stats().connections_refused, kRefused);
  EXPECT_EQ(refused.value() - refused_before, kRefused);
  EXPECT_EQ(daemon_->stats().connections_accepted, 1u);
  EXPECT_TRUE(holder.ping());
}

// With max_connections = 4, four clients are served and a fifth
// connection gets one kOverloaded line and is closed; once a client
// leaves, a new one is served again.
TEST_F(ServerFixture, ConnectionCapRefusesOverflow) {
  server::ServerConfig config;
  config.max_connections = 4;
  StartServer("conncap", config);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& refused =
      registry.counter("jst_server_connections_refused_total");
  const std::uint64_t refused_before = refused.value();

  std::vector<std::unique_ptr<server::Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        std::make_unique<server::Client>(daemon_->socket_path()));
    ASSERT_TRUE(clients.back()->ping());  // its reader is running
  }
  EXPECT_EQ(daemon_->stats().connections_open, 4u);
  EXPECT_EQ(registry.gauge("jst_server_open_connections").value(), 4.0);

  const std::string received = read_until_closed(daemon_->socket_path());
  const std::vector<std::string> lines = split_lines(received);
  ASSERT_EQ(lines.size(), 1u) << received;
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(lines[0], &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, analysis::ResponseStatus::kOverloaded);
  EXPECT_EQ(daemon_->stats().connections_refused, 1u);
  EXPECT_EQ(refused.value() - refused_before, 1u);
  for (const auto& client : clients) EXPECT_TRUE(client->ping());

  // A client that leaves frees its slot once its reader has finished.
  clients.back()->close();
  clients.pop_back();
  for (int i = 0; i < 1000 && daemon_->stats().connections_open > 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon_->stats().connections_open, 3u);
  server::Client replacement(daemon_->socket_path());
  EXPECT_TRUE(replacement.ping());
  EXPECT_EQ(daemon_->stats().connections_refused, 1u);
}

// A request line may be at most 6 × max_source_bytes + 64 KiB long. A
// newline-free stream many times that is answered once with
// kInvalidRequest and the connection is closed, without the daemon
// buffering the stream: the process's peak RSS grows by less than the cap
// plus a margin.
TEST_F(ServerFixture, OverlongLineIsRefusedWithoutBuffering) {
  server::ServerConfig config;
  constexpr std::size_t kMaxSource = 4096;
  config.default_limits.max_source_bytes = kMaxSource;
  StartServer("overlong", config);
  constexpr std::size_t kCap = 6 * kMaxSource + 64 * 1024;
  constexpr std::size_t kMargin = std::size_t{8} << 20;
  // VmHWM only moves once RSS passes the old peak, so the stream covers
  // the gap between the two before it counts.
  const std::size_t hwm_before = status_kib("VmHWM:") * 1024;
  const std::size_t rss_before = status_kib("VmRSS:") * 1024;
  ASSERT_GT(hwm_before, 0u);
  const std::size_t stream_bytes =
      (hwm_before > rss_before ? hwm_before - rss_before : 0) + 4 * kMargin;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, daemon_->socket_path().c_str(),
               sizeof(address.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string chunk(64 * 1024, 'a');
  std::size_t sent = 0;
  while (sent < stream_bytes) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the daemon closed the connection
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t hwm_after = status_kib("VmHWM:") * 1024;
  EXPECT_LT(hwm_after - hwm_before, kCap + kMargin)
      << "peak RSS grew " << (hwm_after - hwm_before) / 1024 << " KiB";
  EXPECT_LT(sent, stream_bytes) << "the daemon read the whole stream";
  const std::vector<std::string> lines = split_lines(received);
  ASSERT_EQ(lines.size(), 1u) << received;
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(lines[0], &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, analysis::ResponseStatus::kInvalidRequest);
  EXPECT_EQ(daemon_->stats().requests_invalid, 1u);
}

// Opens a connection, writes `pieces` with one send() each (1 ms apart,
// so the daemon's recv() sees them separately) and returns the first
// response line.
std::string send_in_pieces(const std::string& socket_path,
                           const std::vector<std::string>& pieces) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "socket failed";
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return "connect failed";
  }
  for (const std::string& piece : pieces) {
    std::size_t sent = 0;
    while (sent < piece.size()) {
      const ssize_t n =
          ::send(fd, piece.data() + sent, piece.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response.substr(0, response.find('\n'));
}

// The comparable part of a response line: everything but timings.
std::string response_identity(const std::string& line) {
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(line, &error);
  if (!parsed.has_value()) return "unparsed: " + error;
  return std::string(analysis::to_string(parsed->status)) + " " + parsed->id +
         " " + parsed->source_hash + " " + parsed->outcome_status + " " +
         strip_timing(support::to_json(parsed->outcome));
}

// A request line longer than the daemon's 64 KiB read chunk gets the same
// response whether it is written whole, in many small pieces (the newline
// alone in the last one), or terminated by CRLF.
TEST_F(ServerFixture, PiecewiseAndCrlfRequestsMatchWholeOnes) {
  StartServer("pieces", server::ServerConfig{});
  const std::string source =
      seed_corpus()[0] + "\n//" + std::string(150 * 1024, 'p');
  const std::string line = analysis::wire::analyze_request_json(
      analysis::AnalyzeRequest::for_source(source, "long"));
  ASSERT_GT(line.size(), 128u * 1024);

  const std::string whole =
      send_in_pieces(daemon_->socket_path(), {line + "\n"});
  std::vector<std::string> pieces;
  for (std::size_t at = 0; at < line.size(); at += 4093) {
    pieces.push_back(line.substr(at, 4093));
  }
  pieces.push_back("\n");
  const std::string piecewise = send_in_pieces(daemon_->socket_path(), pieces);
  const std::string crlf =
      send_in_pieces(daemon_->socket_path(), {line + "\r\n"});

  const std::string expected = response_identity(whole);
  ASSERT_EQ(expected.rfind("ok long ", 0), 0u) << expected;
  EXPECT_EQ(response_identity(piecewise), expected);
  EXPECT_EQ(response_identity(crlf), expected);
}

// Deterministic overload: one worker with a 150 ms service floor and a
// hard cap of 2. Six requests fired from pre-connected clients: exactly
// two are admitted (the cap), four are answered kOverloaded immediately —
// the shed responses arrive long before the 150 ms floor can retire the
// admitted pair, so the split cannot race.
TEST_F(ServerFixture, OverloadShedsDeterministically) {
  server::ServerConfig config;
  config.workers = 1;
  config.max_queue_depth = 2;
  config.min_service_ms = 150.0;
  // Shed-burst forensics: the four sheds below cross this threshold, so
  // the server must auto-dump the flight recorder to this path.
  const std::string dump_path =
      "/tmp/jstraced_test_" + std::to_string(::getpid()) + "_burst.ndjson";
  config.shed_burst_dump_threshold = 2;
  config.flight_dump_path = dump_path;
  StartServer("overload", config);
  obs::Counter& shed_total =
      obs::MetricsRegistry::global().counter("jst_server_shed_total");
  const std::uint64_t shed_before = shed_total.value();

  constexpr std::size_t kClients = 6;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<server::Client>(daemon_->socket_path()));
  }

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> overloaded{0};
  std::vector<std::thread> threads;
  const std::string source = seed_corpus()[0];
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const auto response = clients[i]->call(
          analysis::AnalyzeRequest::for_source(source, std::to_string(i)));
      if (response.ok()) ++ok;
      if (response.status == analysis::ResponseStatus::kOverloaded) {
        ++overloaded;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(ok.load(), 2u);
  EXPECT_EQ(overloaded.load(), 4u);
  const server::ServerStats stats = daemon_->stats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.requests_shed, 4u);
  // The shed path counts each shed once in every sink.
  EXPECT_EQ(shed_total.value() - shed_before, 4u);
  EXPECT_NE(daemon_->stats_json().find("\"shed\":4"), std::string::npos)
      << daemon_->stats_json();

  // The shed burst crossed the threshold: the flight recorder was dumped
  // automatically, and the dump names the overload verdicts.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << dump_path;
  std::stringstream contents;
  contents << dump.rdbuf();
  EXPECT_NE(contents.str().find("\"kind\":\"shed\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"label\":\"overloaded\""),
            std::string::npos);
  std::remove(dump_path.c_str());
}

// Requests whose queue wait consumed the whole deadline are shed at
// pickup instead of analyzed late: with one worker, a 200 ms floor, and
// 100 ms deadlines, the first request (admitted into an idle server)
// completes and every queued follower is answered kOverloaded.
TEST_F(ServerFixture, DeadlineElapsedInQueueShedsAtPickup) {
  server::ServerConfig config;
  config.workers = 1;
  config.min_service_ms = 200.0;
  StartServer("latedl", config);
  obs::Counter& shed_total =
      obs::MetricsRegistry::global().counter("jst_server_shed_total");
  const std::uint64_t shed_before = shed_total.value();

  constexpr std::size_t kClients = 3;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<server::Client>(daemon_->socket_path()));
  }
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> overloaded{0};
  std::vector<std::thread> threads;
  const std::string source = seed_corpus()[0];
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      analysis::AnalyzeRequest request =
          analysis::AnalyzeRequest::for_source(source, std::to_string(i));
      ResourceLimits limits;
      limits.deadline_ms = 100.0;
      request.limits = limits;
      const auto response = clients[i]->call(request);
      if (response.ok()) ++ok;
      if (response.status == analysis::ResponseStatus::kOverloaded) {
        ++overloaded;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one request rode the idle lane; the rest waited ≥ 200 ms
  // against a 100 ms deadline and were shed (at admission by the wait
  // estimate once a p95 exists, or at pickup) — never analyzed late.
  EXPECT_EQ(ok.load(), 1u);
  EXPECT_EQ(overloaded.load(), kClients - 1);
  EXPECT_EQ(daemon_->stats().requests_shed, kClients - 1);
  EXPECT_EQ(shed_total.value() - shed_before, kClients - 1);
}

// A governed request that is admitted and served gets the outcome the
// in-process service gives the same request: the queue wait only shortens
// the deadline, and every other ceiling applies as sent (the tight token
// ceiling trips in both places).
TEST_F(ServerFixture, GovernedRequestMatchesInProcessOutcome) {
  StartServer("governed", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  ResourceLimits roomy = ResourceLimits::production();
  ResourceLimits tight = roomy;
  tight.max_tokens = 50;
  const std::vector<std::string> corpus = seed_corpus();
  for (const bool tripped : {false, true}) {
    for (std::size_t i = 0; i < 4; ++i) {
      analysis::AnalyzeRequest request =
          analysis::AnalyzeRequest::for_source(corpus[i], std::to_string(i));
      request.limits = tripped ? tight : roomy;
      const auto served = client.call(request);
      ASSERT_TRUE(served.ok()) << served.error;
      std::string error;
      const auto expected = analysis::wire::parse_analyze_response(
          service_->analyze(request).to_json(), &error);
      ASSERT_TRUE(expected.has_value()) << error;
      EXPECT_EQ(served.outcome_status, tripped ? "budget_tokens" : "ok");
      EXPECT_EQ(served.outcome_status, expected->outcome_status);
      EXPECT_EQ(strip_timing(support::to_json(served.outcome)),
                strip_timing(support::to_json(expected->outcome)));
    }
  }
  EXPECT_EQ(daemon_->stats().requests_shed, 0u);
}

// --- observability ops and request-id plumbing (DESIGN.md §14) -------------

TEST_F(ServerFixture, ServerMintsOrEchoesRequestId) {
  StartServer("rid", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  const std::string source = seed_corpus()[0];

  // No client-supplied id: the daemon mints a valid one.
  const auto minted =
      client.call(analysis::AnalyzeRequest::for_source(source, "m-1"));
  ASSERT_TRUE(minted.ok());
  EXPECT_TRUE(obs::is_valid_request_id(minted.request_id))
      << minted.request_id;

  // Client-supplied id (wire v2): echoed verbatim.
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(source, "m-2");
  request.request_id = "00c0ffee00c0ffee";
  const auto echoed = client.call(request);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.request_id, "00c0ffee00c0ffee");

  // Two mints never collide.
  const auto second =
      client.call(analysis::AnalyzeRequest::for_source(source, "m-3"));
  EXPECT_NE(second.request_id, minted.request_id);
}

TEST_F(ServerFixture, StatsOpReportsRecentWindow) {
  server::ServerConfig config;
  config.workers = 2;
  StartServer("statsop", config);
  server::Client client(daemon_->socket_path());
  const std::vector<std::string> corpus = seed_corpus();
  constexpr std::size_t kRequests = 20;  // past the default warm-up of 16
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .call(analysis::AnalyzeRequest::for_source(
                        corpus[i % corpus.size()], std::to_string(i)))
                    .ok());
  }

  const std::string stats = client.stats_json();
  std::string error;
  const auto document = support::parse_json(stats, &error);
  ASSERT_TRUE(document.has_value()) << error << ": " << stats;

  EXPECT_EQ(document->find("window_seconds")->as_number(), 60.0);
  EXPECT_TRUE(document->find("warm")->as_bool()) << stats;
  EXPECT_EQ(document->find("workers")->as_number(), 2.0);
  EXPECT_GE(document->find("admission_p95_ms")->as_number(), 0.0);

  const support::JsonValue* recent = document->find("recent");
  ASSERT_NE(recent, nullptr);
  EXPECT_EQ(recent->find("requests")->as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(recent->find("served")->as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(recent->find("shed")->as_number(), 0.0);
  EXPECT_GT(recent->find("qps")->as_number(), 0.0);
  EXPECT_LE(recent->find("service_p50_ms")->as_number(),
            recent->find("service_p95_ms")->as_number());
  EXPECT_LE(recent->find("service_p95_ms")->as_number(),
            recent->find("service_p99_ms")->as_number());

  // Cumulative section and the slowest-exemplar table exist; exemplars
  // reference real source hashes with valid request ids.
  ASSERT_NE(document->find("cumulative"), nullptr);
  const support::JsonValue* slowest = document->find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_TRUE(slowest->is_array());
  EXPECT_FALSE(slowest->as_array().empty());
  // In-process accessor matches the wire surface's shape.
  EXPECT_NE(daemon_->stats_json().find("\"recent\":"), std::string::npos);
}

TEST_F(ServerFixture, FlightOpReturnsEventArray) {
  obs::FlightRecorder::global().clear();
  StartServer("flightop", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(seed_corpus()[0]))
          .ok());

  const std::string line = client.call_raw("{\"op\":\"flight\"}");
  std::string error;
  const auto document = support::parse_json(line, &error);
  ASSERT_TRUE(document.has_value()) << error << ": " << line;
  EXPECT_EQ(document->find("status")->as_string(), "ok");
  const support::JsonValue* events = document->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->as_array().empty());
  // The served request left its admit and respond breadcrumbs.
  EXPECT_NE(line.find("\"kind\":\"admit\""), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"respond\""), std::string::npos);
}

// The PR-7 acceptance criterion: one request's full lifecycle — admission
// verdict, queue pickup, pipeline stages, respond — reconstructs from the
// trace JSONL and the flight-recorder dump joined on request_id.
TEST_F(ServerFixture, LifecycleReconstructsFromTraceAndFlightJoin) {
  obs::FlightRecorder::global().clear();
  server::ServerConfig config;
  config.workers = 1;
  StartServer("lifecycle", config);

  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  obs::set_trace_sink(&sink);

  const std::string rid = "abcdef0123456789";
  server::Client client(daemon_->socket_path());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "lc-1");
  request.request_id = rid;
  const auto response = client.call(request);
  // Drain before detaching the sink so no server-side span is mid-write.
  daemon_->shutdown();
  obs::set_trace_sink(nullptr);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.request_id, rid);

  // Flight side of the join: admit → pickup → stages → respond, in
  // timestamp order, all carrying the request id.
  double admit_ts = -1.0, pickup_ts = -1.0, respond_ts = -1.0;
  std::size_t stage_events = 0;
  for (const std::string& line :
       split_lines(obs::FlightRecorder::global().dump_ndjson())) {
    if (json_string_field(line, "rid") != rid) continue;
    const std::string kind = json_string_field(line, "kind");
    const double ts = json_number_field(line, "ts_us");
    if (kind == "admit") admit_ts = ts;
    if (kind == "pickup") pickup_ts = ts;
    if (kind == "respond") respond_ts = ts;
    if (kind == "stage") ++stage_events;
  }
  ASSERT_GE(admit_ts, 0.0) << "no admit event for " << rid;
  ASSERT_GE(pickup_ts, 0.0) << "no pickup event for " << rid;
  ASSERT_GE(respond_ts, 0.0) << "no respond event for " << rid;
  EXPECT_LE(admit_ts, pickup_ts);
  EXPECT_LE(pickup_ts, respond_ts);
  EXPECT_GE(stage_events, 3u);  // static_analysis, features, inference

  // Trace side of the join: the pipeline spans carry the same rid.
  std::size_t rid_spans = 0;
  bool saw_script = false, saw_inference = false;
  for (const std::string& line : split_lines(trace_out.str())) {
    if (json_string_field(line, "rid") != rid) continue;
    ++rid_spans;
    const std::string name = json_string_field(line, "name");
    if (name == "script") saw_script = true;
    if (name == "inference") saw_inference = true;
  }
  EXPECT_GE(rid_spans, 4u);
  EXPECT_TRUE(saw_script);
  EXPECT_TRUE(saw_inference);
}

TEST_F(ServerFixture, DrainAnswersAdmittedRequests) {
  server::ServerConfig config;
  config.workers = 1;
  config.min_service_ms = 150.0;
  StartServer("drain", config);

  server::Client client(daemon_->socket_path());
  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0]);
  std::atomic<bool> answered{false};
  std::thread caller([&] {
    const auto response = client.call(request);
    EXPECT_TRUE(response.ok());
    answered = true;
  });
  // Drain mid-service: wait for the admission (the 150 ms service floor
  // keeps the request in flight), not a fixed sleep a slow build outruns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon_->stats().requests_admitted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon_->shutdown();
  caller.join();
  EXPECT_TRUE(answered.load());

  // The socket file is gone and new connections are refused.
  EXPECT_THROW(server::Client{daemon_->socket_path()}, std::runtime_error);
}

}  // namespace
}  // namespace jst
