// Engineering microbenchmarks: throughput of every pipeline stage
// (tokenize, parse, CFG, data flow, feature extraction, level-1/level-2
// inference, and each transformer), plus the batch engine's scaling axis:
//
//   $ ./bench_pipeline_throughput                 # sweeps 1/2/4 threads
//   $ ./bench_pipeline_throughput --threads 8     # pins the batch width
//   $ ./bench_pipeline_throughput --obs-overhead  # sinks on vs off, <=2%?
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "bench_common.h"
#include "cfg/cfg.h"
#include "corpus/generator.h"
#include "dataflow/dataflow.h"
#include "features/feature_extractor.h"
#include "lexer/lexer.h"
#include "obs/flight_recorder.h"
#include "parser/parser.h"
#include "transform/transform.h"

namespace {

using namespace jst;

const std::string& sample_source() {
  static const std::string kSource = [] {
    corpus::ProgramGenerator generator(0xbe9c4);
    corpus::GeneratorOptions options;
    options.min_bytes = 8 * 1024;
    return generator.generate(options);
  }();
  return kSource;
}

void BM_Tokenize(benchmark::State& state) {
  support::Arena arena;
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(Lexer::tokenize(sample_source(), arena));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample_source().size()));
}
BENCHMARK(BM_Tokenize);

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_program(sample_source()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample_source().size()));
}
BENCHMARK(BM_Parse);

void BM_ControlFlow(benchmark::State& state) {
  const ParseResult parsed = parse_program(sample_source());
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_control_flow(parsed.ast));
  }
}
BENCHMARK(BM_ControlFlow);

void BM_DataFlow(benchmark::State& state) {
  const ParseResult parsed = parse_program(sample_source());
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_data_flow(parsed.ast));
  }
}
BENCHMARK(BM_DataFlow);

void BM_FullFeatureExtraction(benchmark::State& state) {
  features::FeatureConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::extract_from_source(sample_source(), config));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample_source().size()));
}
BENCHMARK(BM_FullFeatureExtraction);

// Post-parse microbenchmarks on one analyzed script: single-pass
// feature extraction, and compiled-forest inference (both detector
// levels per iteration).
void BM_FusedExtraction(benchmark::State& state) {
  features::FeatureConfig config;
  const ScriptAnalysis analysis =
      analyze_script(sample_source(), config.analysis);
  features::ExtractScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::extract_into(analysis, config, scratch).data());
  }
}
BENCHMARK(BM_FusedExtraction);

void BM_CompiledInference(benchmark::State& state) {
  const auto& model = jst::bench::analyzer();
  const features::FeatureConfig& config = model.options().detector.features;
  const ScriptAnalysis analysis =
      analyze_script(sample_source(), config.analysis);
  features::ExtractScratch extract_scratch;
  const std::vector<float> row =
      features::extract_into(analysis, config, extract_scratch);
  ml::PredictScratch scratch;
  std::vector<double> proba;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.level1().predict(row, scratch));
    model.level2().predict_proba(row, scratch, proba);
    benchmark::DoNotOptimize(proba.data());
  }
}
BENCHMARK(BM_CompiledInference);

void BM_AnalyzeEndToEnd(benchmark::State& state) {
  const auto& model = jst::bench::analyzer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.analyze(sample_source()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sample_source().size()));
}
BENCHMARK(BM_AnalyzeEndToEnd);

void BM_Minify(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::minify(sample_source()));
  }
}
BENCHMARK(BM_Minify);

void BM_ObfuscateIdentifiers(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        transform::obfuscate_identifiers(sample_source(), rng));
  }
}
BENCHMARK(BM_ObfuscateIdentifiers);

void BM_FlattenControlFlow(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        transform::flatten_control_flow(sample_source(), rng));
  }
}
BENCHMARK(BM_FlattenControlFlow);

void BM_Pack(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::pack(sample_source(), rng));
  }
}
BENCHMARK(BM_Pack);

void BM_JsFuckEncode(benchmark::State& state) {
  const std::string small = "alert('covered');";
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform::no_alnum_transform(small));
  }
}
BENCHMARK(BM_JsFuckEncode);

// Per-config BatchStats of the last BM_AnalyzeBatch iteration, exported
// to BENCH_pipeline.json after the run (keyed by config string, emitted
// in key order: limits=off rows before limits=on per thread count).
std::map<std::string, jst::bench::BenchRecord>& batch_records() {
  static std::map<std::string, jst::bench::BenchRecord> records;
  return records;
}

// Batch analysis over a held-out corpus; state.range(0) = thread lanes,
// state.range(1) = resource governance (0 = limits off, 1 = production
// limits — none trip on this corpus, so the delta between paired rows is
// pure budget-guard overhead; the target is <2%). Registered from main()
// so a --threads override can pin the thread axis.
void BM_AnalyzeBatch(benchmark::State& state) {
  static const std::vector<std::string> kCorpus =
      jst::bench::held_out_regular(48, 0xba7c4);
  static const std::vector<analysis::AnalyzeRequest> kRequests =
      analysis::make_source_requests(kCorpus);
  const analysis::AnalyzerService service(jst::bench::analyzer());
  const bool governed = state.range(1) != 0;
  analysis::BatchOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  if (governed) options.limits = ResourceLimits::production();

  std::size_t total_bytes = 0;
  for (const std::string& source : kCorpus) total_bytes += source.size();

  analysis::BatchStats last_stats;
  for (auto _ : state) {
    const analysis::BatchResponse result =
        service.analyze_batch(kRequests, options);
    benchmark::DoNotOptimize(result.stats.ok);
    last_stats = result.stats;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCorpus.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total_bytes));
  state.counters["scripts_per_sec"] = last_stats.scripts_per_second;
  state.counters["p99_script_ms"] = last_stats.p99_script_ms;

  jst::bench::BenchRecord record;
  record.config = "threads=" + std::to_string(last_stats.threads) +
                  ",limits=" + (governed ? "on" : "off");
  record.threads = last_stats.threads;
  record.scripts = kCorpus.size();
  record.wall_ms = last_stats.wall_ms;
  record.scripts_per_second = last_stats.scripts_per_second;
  record.stats_json = last_stats.to_json();
  batch_records()[record.config] = std::move(record);
}

// Observability-overhead smoke (--obs-overhead): the serial batch wall
// with the flight recorder enabled (the serving default) vs disabled,
// best of `reps` each. The budget is 2% — the instrumented path must not
// tax the batch engine, which never carries a request id and therefore
// only pays the per-script thread-local gate plus the always-on metric
// adds. Exit 1 when the budget is exceeded; CI runs this non-gating.
int run_obs_overhead(int reps) {
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start)
        .count();
  };
  const std::vector<std::string> corpus =
      jst::bench::held_out_regular(48, 0xba7c4);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(corpus);
  const analysis::AnalyzerService service(jst::bench::analyzer());
  analysis::BatchOptions options;
  options.threads = 1;

  const auto best_wall = [&](bool sinks_on) {
    obs::FlightRecorder::global().set_enabled(sinks_on);
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = clock::now();
      const analysis::BatchResponse result =
          service.analyze_batch(requests, options);
      benchmark::DoNotOptimize(result.stats.ok);
      best = std::min(best, ms_since(start));
    }
    return best;
  };

  // One untimed warm-up batch so model lazies, pooled arenas, and page
  // faults are paid before either timed configuration.
  benchmark::DoNotOptimize(service.analyze_batch(requests, options).stats.ok);
  const double off_ms = best_wall(/*sinks_on=*/false);
  const double on_ms = best_wall(/*sinks_on=*/true);
  obs::FlightRecorder::global().set_enabled(true);

  const double delta_pct =
      off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
  const bool within_budget = delta_pct <= 2.0;
  std::printf(
      "obs-overhead (best of %d, serial, %zu scripts): sinks off %.3f ms, "
      "sinks on %.3f ms, delta %+.2f%% (budget 2%%) -> %s\n",
      reps, corpus.size(), off_ms, on_ms, delta_pct,
      within_budget ? "OK" : "OVER BUDGET");
  return within_budget ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract our own flags before google-benchmark parses argv.
  long pinned_threads = 0;
  bool obs_overhead = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      pinned_threads = std::atol(argv[++i]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      pinned_threads = std::atol(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--obs-overhead") == 0) {
      obs_overhead = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  auto* batch = benchmark::RegisterBenchmark("BM_AnalyzeBatch",
                                             BM_AnalyzeBatch);
  batch->Unit(benchmark::kMillisecond)->UseRealTime();
  // Every thread config runs limits-off then limits-on so the paired rows
  // in BENCH_pipeline.json expose the budget-guard overhead directly.
  if (pinned_threads > 0) {
    batch->Args({pinned_threads, 0})->Args({pinned_threads, 1});
  } else {
    for (long threads : {1L, 2L, 4L}) {
      batch->Args({threads, 0})->Args({threads, 1});
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // --obs-overhead is a standalone pass/fail probe: no sweep, no JSON.
  if (obs_overhead) {
    const int status = run_obs_overhead(/*reps=*/5);
    benchmark::Shutdown();
    return status;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Record the perf trajectory machine-readably (one row per
  // threads×limits config that actually ran; empty when
  // --benchmark_filter skipped the batch axis).
  std::vector<jst::bench::BenchRecord> records;
  for (auto& [config, record] : batch_records()) {
    records.push_back(std::move(record));
  }
  if (!records.empty()) jst::bench::write_bench_json("pipeline", records);
  return 0;
}
