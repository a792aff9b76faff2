// Population-synthesis throughput (DESIGN.md §18): how fast the §IV
// inputs are built, apart from analyzing them. Times
//  - simulate_population for each §IV population spec, and
//  - evolve_snapshot month by month along an Alexa and an npm crawl at
//    the paper-like persistence of 0.7,
// each at 1 lane and at N lanes (the pool's default width), best of
// kPasses. Rates are snapshot slots per second: an evolved month counts
// every slot, kept or refreshed, as the caller asks for all of them.
//
// Lanes are set through JST_THREADS, which the pool reads on every call.
// Every N-lane draw must equal its 1-lane draw; the bench exits nonzero
// otherwise. Rows go to BENCH_corpus.json (bench/README.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/longitudinal.h"
#include "analysis/wild.h"
#include "bench_common.h"
#include "support/thread_pool.h"

namespace {

using namespace jst;

constexpr int kPasses = 3;
constexpr std::size_t kEvolveMonths = 6;
constexpr double kPersistence = 0.7;

void set_lanes(std::size_t lanes) {
  setenv("JST_THREADS", std::to_string(lanes).c_str(), 1);
}

// Best-of-kPasses wall time of `draw`, and the value of its last pass.
template <typename Draw>
auto best_of(double& best_ms, Draw&& draw) {
  best_ms = 0.0;
  decltype(draw()) value;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto started = std::chrono::steady_clock::now();
    value = draw();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    if (pass == 0 || ms < best_ms) best_ms = ms;
  }
  return value;
}

bench::BenchRecord record(std::string config, std::size_t lanes,
                          std::size_t scripts, std::size_t bytes,
                          double wall_ms) {
  bench::BenchRecord row;
  row.config = std::move(config);
  row.threads = lanes;
  row.scripts = scripts;
  row.wall_ms = wall_ms;
  row.scripts_per_second =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(scripts) / wall_ms : 0.0;
  row.bytes = bytes;
  row.mb_per_second =
      wall_ms > 0.0 ? static_cast<double>(bytes) / 1e3 / wall_ms : 0.0;
  return row;
}

std::size_t total_bytes(const std::vector<std::string>& sources) {
  std::size_t bytes = 0;
  for (const std::string& source : sources) bytes += source.size();
  return bytes;
}

std::vector<std::string> sources_of(const std::vector<analysis::Sample>& s) {
  std::vector<std::string> sources;
  sources.reserve(s.size());
  for (const analysis::Sample& sample : s) sources.push_back(sample.source);
  return sources;
}

}  // namespace

int main() {
  const std::size_t wide = support::ThreadPool::default_parallelism();
  std::vector<std::size_t> lane_counts = {1};
  if (wide > 1) lane_counts.push_back(wide);

  const std::size_t population_count = bench::scaled(400);
  const std::size_t snapshot_count = bench::scaled(600);
  struct Named {
    const char* name;
    analysis::PopulationSpec spec;
  };
  const std::vector<Named> populations = {
      {"alexa", analysis::alexa_spec()}, {"npm", analysis::npm_spec()},
      {"dnc", analysis::dnc_spec()},     {"hynek", analysis::hynek_spec()},
      {"bsi", analysis::bsi_spec()}};

  std::vector<bench::BenchRecord> rows;
  bool ok = true;
  // The 1-lane draws, which every N-lane draw must reproduce.
  std::vector<std::vector<std::string>> reference;

  for (const std::size_t lanes : lane_counts) {
    set_lanes(lanes);
    std::size_t draw = 0;
    for (const Named& population : populations) {
      double ms = 0.0;
      const std::vector<std::string> sources = best_of(ms, [&] {
        return sources_of(analysis::simulate_population(
            population.spec, population_count, 0xc0de));
      });
      rows.push_back(record(std::string("simulate,population=") +
                                population.name,
                            lanes, sources.size(), total_bytes(sources), ms));
      if (lanes == 1) reference.push_back(sources);
      else ok = ok && sources == reference[draw];
      ++draw;
    }
    for (const bool npm : {false, true}) {
      const auto month_spec = npm ? analysis::npm_month_spec
                                  : analysis::alexa_month_spec;
      std::vector<std::string> snapshot = sources_of(
          analysis::simulate_population(month_spec(0), snapshot_count, 0x5eed));
      for (std::size_t month = 1; month <= kEvolveMonths; ++month) {
        double ms = 0.0;
        snapshot = best_of(ms, [&] {
          return analysis::evolve_snapshot(snapshot, month_spec(month),
                                           kPersistence, 0x5eed + month);
        });
        rows.push_back(record(std::string("evolve,population=") +
                                  (npm ? "npm" : "alexa") +
                                  ",month=" + std::to_string(month),
                              lanes, snapshot.size(), total_bytes(snapshot),
                              ms));
        if (lanes == 1) reference.push_back(snapshot);
        else ok = ok && snapshot == reference[draw];
        ++draw;
      }
    }
  }

  bench::print_header("population synthesis throughput",
                      "paper SIV: Alexa/npm crawls and malware feeds");
  for (const bench::BenchRecord& row : rows) {
    bench::print_row(row.config + ",lanes=" + std::to_string(row.threads) +
                         " (scripts/s)",
                     0.0, row.scripts_per_second, "");
  }
  bench::print_note("evolve rows count every slot of the month, kept or "
                    "refreshed, at persistence 0.7");
  bench::print_footer();
  if (!ok) {
    std::fprintf(stderr,
                 "bench_corpus: FAIL an N-lane draw differs from its 1-lane "
                 "draw\n");
  }
  bench::write_bench_json("corpus", rows);
  return ok ? 0 : 1;
}
