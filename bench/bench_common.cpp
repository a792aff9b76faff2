#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/json_writer.h"

namespace jst::bench {

double scale() {
  static const double kScale = [] {
    const char* env = std::getenv("JSTRACED_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::atof(env);
    return value > 0.0 ? value : 1.0;
  }();
  return kScale;
}

std::size_t scaled(std::size_t base) {
  const auto value = static_cast<std::size_t>(
      static_cast<double>(base) * scale());
  return value > 0 ? value : 1;
}

const analysis::TransformationAnalyzer& analyzer() {
  static const analysis::TransformationAnalyzer* kAnalyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = scaled(160);
    options.per_technique_count = scaled(32);
    options.seed = 0xbadc0ffee;
    options.detector.forest.tree_count = 32;
    options.detector.features.ngram.hash_dim = 384;
    std::fprintf(stderr,
                 "[bench] training detectors (regular=%zu, per-technique=%zu, "
                 "trees=%zu)...\n",
                 options.training_regular_count, options.per_technique_count,
                 options.detector.forest.tree_count);
    auto* instance = new analysis::TransformationAnalyzer(options);
    instance->train();
    std::fprintf(stderr, "[bench] training done\n");
    return instance;
  }();
  return *kAnalyzer;
}

std::vector<std::string> held_out_regular(std::size_t count,
                                          std::uint64_t seed) {
  analysis::CorpusSpec spec;
  spec.regular_count = count;
  spec.seed = seed ^ 0x5eedc0de12345ULL;
  return analysis::generate_regular_corpus(spec);
}

std::string write_bench_json(std::string_view bench,
                             std::span<const BenchRecord> records) {
  std::string path;
  if (const char* dir = std::getenv("JSTRACED_BENCH_OUT")) {
    path = dir;
    if (!path.empty() && path.back() != '/') path += '/';
  }
  path += "BENCH_" + std::string(bench) + ".json";

  JsonWriter writer;
  writer.begin_object();
  writer.key("bench"); writer.value(bench);
  writer.key("scale"); writer.value(scale());
  writer.key("results");
  writer.begin_array();
  for (const BenchRecord& record : records) {
    writer.begin_object();
    writer.key("config"); writer.value(record.config);
    writer.key("threads"); writer.value(record.threads);
    writer.key("scripts"); writer.value(record.scripts);
    writer.key("wall_ms"); writer.value(record.wall_ms);
    writer.key("scripts_per_second"); writer.value(record.scripts_per_second);
    if (record.cache_hit_rate >= 0.0) {
      writer.key("cache_hit_rate"); writer.value(record.cache_hit_rate);
    }
    if (record.bytes > 0) {
      writer.key("bytes"); writer.value(record.bytes);
      writer.key("mb_per_second"); writer.value(record.mb_per_second);
    }
    if (record.tokens > 0) {
      writer.key("tokens"); writer.value(record.tokens);
      writer.key("tokens_per_second"); writer.value(record.tokens_per_second);
      writer.key("parse_ms"); writer.value(record.parse_ms);
      writer.key("peak_arena_bytes"); writer.value(record.peak_arena_bytes);
      writer.key("frontend_ns_per_byte");
      writer.value(record.frontend_ns_per_byte);
    }
    if (record.latency_p50_ms > 0.0) {
      writer.key("latency_p50_ms"); writer.value(record.latency_p50_ms);
      writer.key("latency_p95_ms"); writer.value(record.latency_p95_ms);
      writer.key("latency_p99_ms"); writer.value(record.latency_p99_ms);
      writer.key("shed_rate"); writer.value(record.shed_rate);
      writer.key("offered_qps"); writer.value(record.offered_qps);
    }
    if (!record.stats_json.empty()) {
      writer.key("stats"); writer.raw(record.stats_json);
    }
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return std::string();
  }
  out << writer.str() << '\n';
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  return path;
}

void print_header(std::string_view title, std::string_view paper_ref) {
  std::printf("\n=============================================================\n");
  std::printf("%.*s\n", static_cast<int>(title.size()), title.data());
  std::printf("reproduces: %.*s   [scale=%.1f]\n",
              static_cast<int>(paper_ref.size()), paper_ref.data(), scale());
  std::printf("-------------------------------------------------------------\n");
  std::printf("%-44s %10s %10s\n", "metric", "paper", "measured");
}

void print_row(std::string_view metric, double paper_value,
               double measured_value, std::string_view unit) {
  std::printf("%-44.*s %9.2f%.*s %9.2f%.*s\n",
              static_cast<int>(metric.size()), metric.data(), paper_value,
              static_cast<int>(unit.size()), unit.data(), measured_value,
              static_cast<int>(unit.size()), unit.data());
}

void print_note(std::string_view text) {
  std::printf("  note: %.*s\n", static_cast<int>(text.size()), text.data());
}

void print_series_header(std::string_view x_label,
                         std::string_view series_names) {
  std::printf("%-12.*s %s\n", static_cast<int>(x_label.size()), x_label.data(),
              std::string(series_names).c_str());
}

void print_footer() {
  std::printf("-------------------------------------------------------------\n");
}

PopulationMeasurement measure_population(const analysis::PopulationSpec& spec,
                                         std::size_t count,
                                         std::uint64_t seed) {
  const analysis::AnalyzerService service(analyzer());
  const auto samples = analysis::simulate_population(spec, count, seed);
  std::vector<std::string> sources;
  sources.reserve(samples.size());
  for (const analysis::Sample& sample : samples) {
    sources.push_back(sample.source);
  }
  const analysis::BatchResponse batch =
      service.analyze_batch(analysis::make_source_requests(sources));

  PopulationMeasurement out;
  out.technique_confidence.assign(transform::kTechniqueCount, 0.0);
  std::size_t transformed = 0;
  for (const analysis::AnalyzeResponse& response : batch.responses) {
    const analysis::ScriptOutcome& outcome = response.outcome;
    if (outcome.parse_failed()) continue;
    const analysis::ScriptReport& report = outcome.report;
    ++out.script_count;
    if (report.level1.transformed()) {
      ++transformed;
      for (std::size_t i = 0; i < report.technique_confidence.size(); ++i) {
        out.technique_confidence[i] += report.technique_confidence[i];
      }
    }
    if (report.level1.minified()) out.minified_rate += 1.0;
    if (report.level1.obfuscated()) out.obfuscated_rate += 1.0;
  }
  if (out.script_count > 0) {
    out.transformed_rate =
        static_cast<double>(transformed) / static_cast<double>(out.script_count);
    out.minified_rate /= static_cast<double>(out.script_count);
    out.obfuscated_rate /= static_cast<double>(out.script_count);
  }
  if (transformed > 0) {
    for (double& confidence : out.technique_confidence) {
      confidence /= static_cast<double>(transformed);
    }
  }
  return out;
}

}  // namespace jst::bench
