// Shared infrastructure for the study benches: one trained analyzer per
// process (scale via JSTRACED_BENCH_SCALE), and formatting helpers that
// print each reproduced number next to the paper's reported value.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"

namespace jst::bench {

// Scale factor: 1 = quick defaults (minutes for the full suite).
// JSTRACED_BENCH_SCALE=4 approaches paper-protocol sizes.
double scale();

// Scaled count helper.
std::size_t scaled(std::size_t base);

// Builds and trains the shared analyzer (cached per process).
const analysis::TransformationAnalyzer& analyzer();

// Fresh regular corpus disjoint from training (seeded differently).
std::vector<std::string> held_out_regular(std::size_t count,
                                          std::uint64_t seed);

// --- output helpers ---

void print_header(std::string_view title, std::string_view paper_ref);
void print_row(std::string_view metric, double paper_value,
               double measured_value, std::string_view unit = "%");
void print_note(std::string_view text);
void print_series_header(std::string_view x_label,
                         std::string_view series_names);
void print_footer();

// --- machine-readable results (BENCH_*.json) ---

// One measured configuration of a bench (e.g. one thread count of the
// batch throughput sweep).
struct BenchRecord {
  std::string config;  // human label, e.g. "threads=4"
  std::size_t threads = 1;
  std::size_t scripts = 0;  // scripts per batch for this config
  double wall_ms = 0.0;     // batch wall time for this config
  double scripts_per_second = 0.0;
  std::string stats_json;  // optional BatchStats::to_json() payload
  // Optional serving-path measurements (bench_server_latency): client-
  // observed round-trip percentiles, shed fraction, and the sustained
  // request rate the closed-loop clients achieved. Emitted only when a
  // latency distribution was measured (latency_p50_ms > 0).
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double shed_rate = 0.0;
  double offered_qps = 0.0;
  // Optional result-cache measurement (bench_cache): fraction of the
  // batch served from the cache for this config. Negative = not
  // measured (a measured cold pass is a legitimate 0.0).
  double cache_hit_rate = -1.0;
  // Optional byte-throughput measurement (bench_lexer): total input
  // bytes processed per pass and the resulting rate. Emitted only when
  // bytes > 0.
  std::size_t bytes = 0;
  double mb_per_second = 0.0;
  // Optional token and parse measurements (bench_lexer): tokens per
  // pass and their rate over the tokenize-only pass, the parse-only time,
  // the pooled front-end arena's peak bytes, and the whole front end's
  // (tokenize + parse) nanoseconds per input byte. Emitted only when
  // tokens > 0.
  std::size_t tokens = 0;
  double tokens_per_second = 0.0;
  double parse_ms = 0.0;
  std::size_t peak_arena_bytes = 0;
  double frontend_ns_per_byte = 0.0;
};

// Writes `BENCH_<bench>.json` — {"bench":…,"scale":…,"results":[…]} —
// into $JSTRACED_BENCH_OUT (default: the working directory) so the perf
// trajectory is recorded machine-readably across PRs. Returns the path
// written, or an empty string on I/O failure (reported to stderr).
std::string write_bench_json(std::string_view bench,
                             std::span<const BenchRecord> records);

// Measured transformed-rate of a simulated population under the trained
// level-1 detector.
struct PopulationMeasurement {
  double transformed_rate = 0.0;
  double minified_rate = 0.0;
  double obfuscated_rate = 0.0;
  // Average level-2 confidence per technique over transformed scripts.
  std::vector<double> technique_confidence;
  std::size_t script_count = 0;
};

PopulationMeasurement measure_population(const analysis::PopulationSpec& spec,
                                         std::size_t count,
                                         std::uint64_t seed);

}  // namespace jst::bench
