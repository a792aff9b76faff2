#include "layers.h"

#include <array>
#include <cstring>
#include <string>

#include "analysis/service.h"
#include "analysis/wire.h"
#include "features/analysis_pipeline.h"
#include "features/feature_extractor.h"
#include "lexer/lexer.h"
#include "parser/parser.h"
#include "support/error.h"

namespace perfbench {
namespace {

using jst::analysis::ScriptOutcome;
using jst::analysis::ScriptScratch;
using jst::analysis::ScriptStatus;

constexpr std::array<const char*, 6> kLayers = {
    "lexer", "parser", "cfg", "dataflow", "features", "ml"};

struct Composed {
  ScriptStatus status = ScriptStatus::kParseError;
  jst::analysis::Level1Detector::Prediction level1;
  std::vector<double> confidence;
  std::vector<jst::transform::Technique> techniques;
  std::size_t tokens = 0;
  std::size_t nodes = 0;
  std::size_t cfg_edges = 0;
  std::size_t dataflow_edges = 0;
};

// The layers of analyze_outcome (ungoverned), one span per layer call.
Composed run_layers(const jst::analysis::TransformationAnalyzer& analyzer,
                    std::string_view source, std::uint32_t request,
                    ScriptScratch& scratch, SpanRecorder& spans) {
  const jst::features::FeatureConfig& config =
      analyzer.options().detector.features;
  Composed composed;
  SpanRecorder::Scope layers(spans, "layers", request);
  try {
    // parse_program's pooled contract: rewind the arena and the atom
    // table, copy the source in, then lex and parse inside the arena.
    scratch.arena.reset();
    scratch.atoms.clear();
    jst::ScriptAnalysis analysis;
    analysis.parse.ast = jst::Ast(&scratch.arena, &scratch.atoms);
    const std::string_view stable = scratch.arena.alloc_string(source);
    jst::Lexer lexer(stable, scratch.arena);
    jst::support::ArenaVec<jst::Token> tokens(scratch.arena);
    {
      SpanRecorder::Scope span(spans, "lexer", request);
      jst::TokenStats& stats = analysis.parse.token_stats;
      while (true) {
        const jst::Token token = lexer.next();
        if (token.type == jst::TokenType::kEndOfFile) break;
        if (token.type == jst::TokenType::kPunctuator) ++stats.punctuators;
        stats.raw_bytes += static_cast<double>(token.raw.size());
        stats.max_line_length =
            std::max(stats.max_line_length, token.column + token.raw.size());
        tokens.push_back(token);
      }
      stats.count = tokens.size();
    }
    analysis.parse.comment_count = lexer.comment_count();
    analysis.parse.comment_bytes = lexer.comment_bytes();
    analysis.parse.source_bytes = source.size();
    analysis.parse.source_lines = lexer.line();
    analysis.parse.tokens =
        std::span<const jst::Token>(tokens.data(), tokens.size());
    composed.tokens = tokens.size();
    {
      SpanRecorder::Scope span(spans, "parser", request);
      jst::Parser parser(analysis.parse.tokens, analysis.parse.ast);
      analysis.parse.ast.set_root(parser.parse_program_body());
      analysis.parse.ast.finalize();
    }
    composed.nodes = analysis.parse.ast.node_count();
    if (config.analysis.build_cfg) {
      SpanRecorder::Scope span(spans, "cfg", request);
      analysis.control_flow = jst::build_control_flow(
          analysis.parse.ast, nullptr, &scratch.extract.cfg);
    }
    composed.cfg_edges = analysis.control_flow.edge_count();
    if (config.analysis.build_dataflow) {
      SpanRecorder::Scope span(spans, "dataflow", request);
      jst::DataFlowOptions options;
      options.node_budget = config.analysis.dataflow_node_budget;
      options.scratch = &scratch.extract.dataflow;
      analysis.data_flow = jst::build_data_flow(analysis.parse.ast, options);
    }
    composed.dataflow_edges = analysis.data_flow.edge_count();

    if (!jst::size_eligible(source)) {
      composed.status = ScriptStatus::kIneligibleSize;
    } else if (!jst::ast_eligible(analysis,
                                  &scratch.extract.eligibility_stack)) {
      composed.status = ScriptStatus::kIneligibleAst;
    } else {
      composed.status = ScriptStatus::kOk;
    }

    const std::vector<float>* row = nullptr;
    {
      SpanRecorder::Scope span(spans, "features", request);
      row = &jst::features::extract_into(analysis, config, scratch.extract);
    }
    {
      SpanRecorder::Scope span(spans, "ml", request);
      composed.level1 = analyzer.level1().predict(*row, scratch.predict);
      analyzer.level2().predict_proba(*row, scratch.predict,
                                      composed.confidence);
      if (composed.level1.transformed()) {
        composed.techniques =
            analyzer.level2().predict_techniques(*row, scratch.predict);
      }
    }
  } catch (const jst::ParseError&) {
    composed = Composed{};
  }
  return composed;
}

bool same_result(const Composed& composed, const ScriptOutcome& outcome) {
  if (composed.status != outcome.status) return false;
  if (!outcome.has_predictions()) return composed.confidence.empty();
  const auto& level1 = outcome.report.level1;
  return composed.level1.p_regular == level1.p_regular &&
         composed.level1.p_minified == level1.p_minified &&
         composed.level1.p_obfuscated == level1.p_obfuscated &&
         composed.confidence == outcome.report.technique_confidence &&
         composed.techniques == outcome.report.techniques;
}

}  // namespace

void trace_layers(const jst::analysis::TransformationAnalyzer& analyzer,
                  std::span<const Script> scripts, SpanRecorder& spans,
                  Report& report) {
  PhaseTally& tally = report.phase("trace");
  ScriptScratch scratch;
  // Warm the pooled scratch first so neither traced execution pays for
  // growing it.
  for (const Script& script : scripts) {
    analyzer.analyze_outcome(script.source, {}, scratch);
  }

  std::vector<ScriptOutcome> outcomes(scripts.size());
  std::vector<double> analysis_ms;
  analysis_ms.reserve(scripts.size());
  std::array<std::array<double, kPopulationCount>, kLayers.size()> self{};
  double layers_total_ms = 0.0;
  std::size_t tokens = 0, nodes = 0, cfg_edges = 0, dataflow_edges = 0;
  double bytes = 0.0;
  const std::size_t first_span = spans.spans().size();
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    const Script& script = scripts[i];
    const auto request = static_cast<std::uint32_t>(i);
    const auto run_analysis = [&] {
      SpanRecorder::Scope span(spans, "analysis", request);
      outcomes[i] = analyzer.analyze_outcome(script.source, {}, scratch);
      return span.index();
    };
    // Alternate which execution runs first so neither one always finds
    // the script's bytes already in cache.
    std::int32_t analysis_span = -1;
    if (i % 2 == 0) analysis_span = run_analysis();
    const auto layers_span = static_cast<std::int32_t>(spans.spans().size());
    const Composed composed =
        run_layers(analyzer, script.source, request, scratch, spans);
    if (i % 2 == 1) analysis_span = run_analysis();
    ++tally.attempted;
    ++tally.ok;
    if (!same_result(composed, outcomes[i])) ++tally.digest_mismatches;
    analysis_ms.push_back(spans.duration_ms(analysis_span));
    layers_total_ms += spans.duration_ms(layers_span);
    tokens += composed.tokens;
    nodes += composed.nodes;
    cfg_edges += composed.cfg_edges;
    dataflow_edges += composed.dataflow_edges;
    bytes += static_cast<double>(script.source.size());
  }

  // Self time per layer, in total and per population.
  const std::vector<double> self_ms = spans.self_ms();
  const std::vector<Span>& all = spans.spans();
  for (std::size_t s = first_span; s < all.size(); ++s) {
    for (std::size_t layer = 0; layer < kLayers.size(); ++layer) {
      if (std::strcmp(all[s].name, kLayers[layer]) == 0) {
        const auto population =
            static_cast<std::size_t>(scripts[all[s].request].population);
        self[layer][population] += self_ms[s];
      }
    }
  }

  double covered_ms = 0.0;
  Metrics& m = report.per_layer;
  std::array<double, kLayers.size()> layer_total{};
  for (std::size_t layer = 0; layer < kLayers.size(); ++layer) {
    for (std::size_t p = 0; p < kPopulationCount; ++p) {
      layer_total[layer] += self[layer][p];
    }
    covered_ms += layer_total[layer];
  }
  m.set("lexer.self_ms", layer_total[0], "ms");
  m.set("lexer.tokens", static_cast<double>(tokens), "count");
  m.set("lexer.mb_per_s",
        layer_total[0] > 0 ? bytes / 1e6 / (layer_total[0] / 1e3) : 0.0,
        "MB/s");
  m.set("parser.self_ms", layer_total[1], "ms");
  m.set("parser.nodes", static_cast<double>(nodes), "count");
  m.set("cfg.self_ms", layer_total[2], "ms");
  m.set("cfg.edges", static_cast<double>(cfg_edges), "count");
  m.set("dataflow.self_ms", layer_total[3], "ms");
  m.set("dataflow.edges", static_cast<double>(dataflow_edges), "count");
  m.set("features.self_ms", layer_total[4], "ms");
  m.set("ml.self_ms", layer_total[5], "ms");
  for (std::size_t layer = 0; layer < kLayers.size(); ++layer) {
    for (std::size_t p = 0; p < kPopulationCount; ++p) {
      m.set(std::string(kLayers[layer]) + ".self_ms." +
                population_name(static_cast<Population>(p)),
            self[layer][p], "ms");
    }
  }
  double analysis_total_ms = 0.0;
  for (const double ms : analysis_ms) analysis_total_ms += ms;
  m.set("pipeline.script_p50_ms", percentile(analysis_ms, 50), "ms");
  m.set("pipeline.script_p90_ms", percentile(analysis_ms, 90), "ms");
  m.set("pipeline.unaccounted_share",
        analysis_total_ms > 0 ? 1.0 - covered_ms / analysis_total_ms : 0.0,
        "share");
  m.set("scratch.peak_mb",
        static_cast<double>(scratch.capacity_bytes()) / (1024.0 * 1024.0),
        "MiB");
  m.set("trace.overhead_share",
        analysis_total_ms > 0 ? layers_total_ms / analysis_total_ms - 1.0
                              : 0.0,
        "share");

  // Wire codecs at the daemon's status detail, and the content hash every
  // request pays, timed per script.
  double encode_request = 0, decode_request = 0, encode_response = 0,
         decode_response = 0, hash = 0;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    const auto request_id = static_cast<std::uint32_t>(i);
    const auto timed = [&](const char* name, double& total_us, auto&& call) {
      std::int32_t index = -1;
      {
        SpanRecorder::Scope span(spans, name, request_id);
        call();
        index = span.index();
      }
      total_us += spans.duration_ms(index) * 1000.0;
    };
    jst::analysis::AnalyzeRequest request =
        jst::analysis::AnalyzeRequest::for_source(scripts[i].source,
                                                  std::to_string(i));
    request.detail = jst::analysis::OutputDetail::kStatus;
    std::string line;
    std::string error;
    std::optional<jst::analysis::AnalyzeRequest> decoded;
    jst::analysis::AnalyzeResponse response;
    std::string response_line;
    std::optional<jst::analysis::wire::ParsedResponse> parsed;
    timed("wire.encode_request", encode_request, [&] {
      line = jst::analysis::wire::analyze_request_json(request);
    });
    timed("wire.decode_request", decode_request, [&] {
      decoded = jst::analysis::wire::parse_analyze_request(line, &error);
    });
    timed("cache.content_hash", hash, [&] {
      response.source_hash = jst::analysis::content_hash(scripts[i].source);
    });
    response.status = jst::analysis::ResponseStatus::kOk;
    response.id = request.id;
    response.outcome = outcomes[i];
    response.detail = jst::analysis::OutputDetail::kStatus;
    timed("wire.encode_response", encode_response, [&] {
      response_line = jst::analysis::wire::analyze_response_json(response);
    });
    timed("wire.decode_response", decode_response, [&] {
      parsed = jst::analysis::wire::parse_analyze_response(response_line,
                                                           &error);
    });
    ++tally.attempted;
    ++tally.ok;
    if (!decoded.has_value() || decoded->source != scripts[i].source ||
        !parsed.has_value() || parsed->id != request.id ||
        parsed->outcome_status != to_string(outcomes[i].status)) {
      ++tally.digest_mismatches;
    }
  }
  const double count = scripts.empty() ? 1.0 : scripts.size();
  m.set("wire.encode_request_us", encode_request / count, "us");
  m.set("wire.decode_request_us", decode_request / count, "us");
  m.set("wire.encode_response_us", encode_response / count, "us");
  m.set("wire.decode_response_us", decode_response / count, "us");
  m.set("cache.content_hash_us", hash / count, "us");
}

void zero_fill_per_layer(Report& report) {
  static const char* const kOptional[] = {
      "server.queue_ms_p90",   "server.unattributed_ms_p50",
      "server.service_ms_p50", "server.shed",
      "generator.lag_ms_p90",  "cache.hit_ratio",
      "cache.lookup_us",       "cache.store_us",
      "cache.stores",          "cache.record_file_mb"};
  static const char* const kUnits[] = {"ms",    "ms", "ms", "count", "ms",
                                       "share", "us", "us", "count", "MiB"};
  for (std::size_t i = 0; i < std::size(kOptional); ++i) {
    if (!report.per_layer.has(kOptional[i])) {
      report.per_layer.set(kOptional[i], 0.0, kUnits[i]);
    }
  }
}

}  // namespace perfbench
