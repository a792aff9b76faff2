#include "analysis/service.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/result_cache.h"
#include "analysis/wire.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "support/clock.h"
#include "support/error.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace jst::analysis {
namespace {

// Batch-level telemetry (DESIGN.md §9); per-script stage histograms are
// recorded inside analyze_outcome.
struct BatchMetrics {
  obs::Counter& batches =
      obs::MetricsRegistry::global().counter("jst_batches_total");
  obs::Counter& scripts =
      obs::MetricsRegistry::global().counter("jst_batch_scripts_total");
  obs::Histogram& wall_ms =
      obs::MetricsRegistry::global().histogram("jst_batch_wall_ms");
};

BatchMetrics& batch_metrics() {
  static BatchMetrics* metrics = new BatchMetrics();  // outlives statics
  return *metrics;
}

// Folds the analyzed responses into BatchStats. Only kOk responses carry
// an outcome that went through the pipeline; rejected requests
// contribute to no counter (BatchStats doc).
BatchStats aggregate_stats(std::span<const AnalyzeResponse> responses,
                           double wall_ms, std::size_t threads) {
  BatchStats stats;
  stats.threads = std::max<std::size_t>(threads, 1);
  stats.wall_ms = wall_ms;
  std::vector<double> script_ms;
  script_ms.reserve(responses.size());
  for (const AnalyzeResponse& response : responses) {
    if (!response.ok()) continue;
    const ScriptOutcome& outcome = response.outcome;
    ++stats.total;
    switch (outcome.status) {
      case ScriptStatus::kOk: ++stats.ok; break;
      case ScriptStatus::kParseError: ++stats.parse_errors; break;
      case ScriptStatus::kIneligibleSize: ++stats.ineligible_size; break;
      case ScriptStatus::kIneligibleAst: ++stats.ineligible_ast; break;
      case ScriptStatus::kBudgetTokens: ++stats.budget_tokens; break;
      case ScriptStatus::kBudgetAstNodes: ++stats.budget_ast_nodes; break;
      case ScriptStatus::kBudgetDepth: ++stats.budget_depth; break;
      case ScriptStatus::kBudgetDataflow: ++stats.budget_dataflow; break;
      case ScriptStatus::kDeadlineExceeded: ++stats.deadline_exceeded; break;
      case ScriptStatus::kDegraded: ++stats.degraded; break;
    }
    stats.static_analysis_ms += outcome.timing.static_analysis_ms;
    stats.features_ms += outcome.timing.features_ms;
    stats.inference_ms += outcome.timing.inference_ms;
    stats.total_script_ms += outcome.timing.total_ms;
    script_ms.push_back(outcome.timing.total_ms);
  }
  stats.p50_script_ms = stats::percentile(script_ms, 50.0);
  stats.p95_script_ms = stats::percentile(script_ms, 95.0);
  stats.p99_script_ms = stats::percentile(script_ms, 99.0);
  stats.max_script_ms = stats::max(script_ms);
  if (stats.wall_ms > 0.0) {
    stats.scripts_per_second =
        1000.0 * static_cast<double>(stats.total) / stats.wall_ms;
  }
  // Stage accounting invariant (see BatchStats): the stages partition each
  // script's total. A fresh outcome's stage times add up to its total up
  // to rounding; the 5% slack (plus 50 µs per script) is for cached
  // outcomes from record files written before the stage stamps, which
  // still carry the clock reads that fell between stages.
  assert(stats.stage_ms_sum() <=
             stats.total_script_ms + 1e-6 * static_cast<double>(stats.total) &&
         stats.total_script_ms - stats.stage_ms_sum() <=
             0.05 * stats.total_script_ms +
                 0.05 * static_cast<double>(stats.total));
  return stats;
}

// Bitwise equality, so limits that print differently in
// limits_fingerprint (0.0 and -0.0 deadlines) never share a memo entry.
bool same_limits(const ResourceLimits& a, const ResourceLimits& b) {
  return a.max_source_bytes == b.max_source_bytes &&
         a.max_tokens == b.max_tokens && a.max_ast_nodes == b.max_ast_nodes &&
         a.max_ast_depth == b.max_ast_depth &&
         a.max_dataflow_edges == b.max_dataflow_edges &&
         std::bit_cast<std::uint64_t>(a.deadline_ms) ==
             std::bit_cast<std::uint64_t>(b.deadline_ms);
}

std::atomic<std::uint64_t> next_service_id{1};

}  // namespace

struct AnalyzerService::CacheContext {
  std::uint64_t service_id = 0;  // 0 = empty; service ids start at 1
  ResourceLimits limits;
  std::string text;        // ResultCache::key_context(model, limits)
  std::uint64_t word = 0;  // FNV-1a of text: CacheKey::context
};

std::string_view to_string(OutputDetail detail) {
  switch (detail) {
    case OutputDetail::kStatus: return "status";
    case OutputDetail::kSummary: return "summary";
    case OutputDetail::kFull: return "full";
  }
  return "full";
}

std::string_view to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kInvalidRequest: return "invalid_request";
    case ResponseStatus::kNotFound: return "not_found";
    case ResponseStatus::kOverloaded: return "overloaded";
    case ResponseStatus::kDraining: return "draining";
  }
  return "invalid_request";
}

std::string_view to_string(CacheState state) {
  switch (state) {
    case CacheState::kNone: return "none";
    case CacheState::kHit: return "hit";
    case CacheState::kMiss: return "miss";
    case CacheState::kBypass: return "bypass";
    case CacheState::kStale: return "stale";
  }
  return "none";
}

std::string content_hash(std::string_view source) {
  return content_hash_hex(strings::fnv1a(source));
}

std::string content_hash_hex(std::uint64_t digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i, digest >>= 4) hex[i] = kDigits[digest & 0xf];
  return hex;
}

bool parse_content_hash(std::string_view hex, std::uint64_t& digest) {
  if (hex.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : hex) {
    int nibble = 0;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(nibble);
  }
  digest = value;
  return true;
}

AnalyzeRequest AnalyzeRequest::for_source(std::string source, std::string id) {
  AnalyzeRequest request;
  request.id = std::move(id);
  request.source = std::move(source);
  request.has_source = true;
  return request;
}

AnalyzeRequest AnalyzeRequest::for_hash(std::string source_hash,
                                        std::string id) {
  AnalyzeRequest request;
  request.id = std::move(id);
  request.source_hash = std::move(source_hash);
  return request;
}

std::vector<AnalyzeRequest> make_source_requests(
    std::span<const std::string> sources, CacheMode cache_mode) {
  std::vector<AnalyzeRequest> requests;
  requests.reserve(sources.size());
  for (const std::string& source : sources) {
    AnalyzeRequest request = AnalyzeRequest::for_source(source);
    request.cache_mode = cache_mode;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string AnalyzeResponse::to_json() const {
  return wire::analyze_response_json(*this);
}

std::string BatchStats::to_json() const {
  return wire::batch_stats_json(*this);
}

AnalyzerService::AnalyzerService(const TransformationAnalyzer& analyzer,
                                 ResultCache* cache)
    : analyzer_(&analyzer),
      cache_(cache),
      id_(next_service_id.fetch_add(1, std::memory_order_relaxed)) {
  if (!analyzer.trained()) {
    throw ModelError("AnalyzerService: analyzer is not trained");
  }
  if (cache_ != nullptr) {
    // One serialization pass pins the model_version cache-key component:
    // any retrain or options change alters the stream and so the key.
    std::ostringstream serialized;
    analyzer_->save(serialized);
    model_fingerprint_ = content_hash(serialized.str());
  }
}

const AnalyzerService::CacheContext& AnalyzerService::cache_context(
    const ResourceLimits& limits) const {
  static thread_local CacheContext memo;
  if (memo.service_id != id_ || !same_limits(memo.limits, limits)) {
    memo.service_id = id_;
    memo.limits = limits;
    memo.text = ResultCache::key_context(model_fingerprint_, limits);
    memo.word = strings::fnv1a(memo.text);
  }
  return memo;
}

AnalyzeResponse AnalyzerService::analyze_with_scratch(
    const AnalyzeRequest& request, const ResourceLimits& default_limits,
    std::uint64_t source_digest, ScriptScratch& scratch) const {
  // Install the request's trace-correlation id for everything below —
  // validation included, so even a rejection's spans are attributable.
  obs::RequestScope request_scope(request.request_id);
  AnalyzeResponse response;
  response.id = request.id;
  response.request_id = request.request_id;
  response.detail = request.detail;
  if (!request.has_source) {
    if (request.source_hash.empty()) {
      response.status = ResponseStatus::kInvalidRequest;
      response.error = "request carries neither source nor source_hash";
    } else {
      // Resolution needs a registry of previously seen sources; that
      // lives in the daemon (server/server.h), which substitutes the
      // resolved source before calling the service.
      response.status = ResponseStatus::kNotFound;
      response.source_hash = request.source_hash;
      response.error =
          "source_hash reference requires a resolver; submit the source "
          "inline first";
    }
    return response;
  }
  response.source_hash = content_hash_hex(source_digest);
  if (!request.source_hash.empty() &&
      request.source_hash != response.source_hash) {
    response.status = ResponseStatus::kInvalidRequest;
    response.error = "source_hash does not match the inline source (" +
                     request.source_hash + " vs " + response.source_hash + ")";
    return response;
  }
  const ResourceLimits& limits =
      request.limits.has_value() ? *request.limits : default_limits;

  // Cache consult (DESIGN.md §15). The key covers everything the outcome
  // is a function of — content, model, limits, wire schema — so a hit is
  // bit-identical to recomputation and the pipeline is skipped outright.
  // One clock pair times the whole consult: on a hit, its reading is both
  // cache_lookup_ms (and so service_ms) and the jst_cache_hit_ms sample.
  bool store_after_analysis = false;
  if (cache_ != nullptr) {
    const auto lookup_started = support::Clock::now();
    switch (request.cache_mode) {
      case CacheMode::kBypass:
        cache_->note_bypass();
        response.cache = CacheState::kBypass;
        break;
      case CacheMode::kRefresh: {
        const CacheKey key{source_digest, cache_context(limits).word};
        response.cache = cache_->contains(key) ? CacheState::kStale
                                               : CacheState::kMiss;
        response.cache_lookup_ms = support::ms_since(lookup_started);
        store_after_analysis = true;
        break;
      }
      case CacheMode::kDefault: {
        const CacheKey key{source_digest, cache_context(limits).word};
        if (cache_->lookup(key, response.outcome)) {
          // The cached outcome carries the original analysis timings;
          // the actual serving cost of this hit is the lookup alone.
          response.cache_lookup_ms = support::ms_since(lookup_started);
          cache_->record_hit_ms(response.cache_lookup_ms);
          response.status = ResponseStatus::kOk;
          response.cache = CacheState::kHit;
          response.service_ms = response.cache_lookup_ms;
          return response;
        }
        response.cache_lookup_ms = support::ms_since(lookup_started);
        response.cache = CacheState::kMiss;
        store_after_analysis = true;
        break;
      }
    }
  }

  response.outcome = analyzer_->analyze_outcome(request.source, limits,
                                                scratch);
  response.status = ResponseStatus::kOk;
  response.service_ms = response.outcome.timing.total_ms;
  if (store_after_analysis) {
    // The record file keeps make_key's text spelling of the key. store()
    // drops uncacheable (degraded / budget-tripped) outcomes.
    cache_->store(response.source_hash + '|' + cache_context(limits).text,
                  response.outcome);
  }
  return response;
}

AnalyzeResponse AnalyzerService::analyze(
    const AnalyzeRequest& request, const ResourceLimits& default_limits) const {
  return analyze(request, default_limits,
                 request.has_source ? strings::fnv1a(request.source) : 0);
}

AnalyzeResponse AnalyzerService::analyze(const AnalyzeRequest& request,
                                         const ResourceLimits& default_limits,
                                         std::uint64_t source_digest) const {
  // Per-thread scratch, shared with every other single-request call this
  // thread makes (same reuse discipline as the batch workers).
  static thread_local ScriptScratch scratch;
  return analyze_with_scratch(request, default_limits, source_digest,
                              scratch);
}

BatchResponse AnalyzerService::analyze_batch(
    std::span<const AnalyzeRequest> requests,
    const BatchOptions& options) const {
  BatchResponse result;
  result.responses.resize(requests.size());
  const std::size_t threads = support::resolve_threads(options.threads);

  JST_SPAN("batch");
  const auto start = support::Clock::now();
  support::run_parallel(threads, requests.size(), [&](std::size_t i) {
    // One scratch per worker thread, reused for every script the worker
    // analyzes (in this batch and all later ones): feature extraction and
    // inference run allocation-free once the buffers have warmed up.
    static thread_local ScriptScratch scratch;
    const AnalyzeRequest& request = requests[i];
    result.responses[i] = analyze_with_scratch(
        request, options.limits,
        request.has_source ? strings::fnv1a(request.source) : 0, scratch);
  });
  const double wall_ms = support::ms_since(start);
  result.stats = aggregate_stats(result.responses, wall_ms, threads);

  BatchMetrics& metrics = batch_metrics();
  metrics.batches.add(1);
  metrics.scripts.add(result.stats.total);
  metrics.wall_ms.record(result.stats.wall_ms);
  return result;
}

}  // namespace jst::analysis
