// Result-cache effectiveness (DESIGN.md §15): the same held-out batch
// analyzed twice through one AnalyzerService + ResultCache. The cold
// pass misses and stores every script; the warm pass must be answered
// entirely from the cache (hit count == batch size — verified, nonzero
// exit on violation) and lands a wall-clock speedup that BENCH_cache.json
// records as the cold/warm pair. Outcomes are checked byte-identical
// between the passes, timing included, because a hit replays the stored
// bytes.
//
// It then times the hit as the service pays for it: every warm key is
// requested once more right after a pipeline run on another script, which
// evicts the CPU caches the way a miss does between two hits of a
// recrawl, so each probe starts cold. A hit's cache_lookup_ms is its
// whole service time; the "cold_hit" record keeps its median and p95.
//
// Flags: --cache-dir/--cache-bytes/--cache-mode (support/cache_flags.h)
// select the disk tier / budget; default is a memory-only cache. With
// --cache-dir, a second run of this bench starts warm from disk — its
// "cold" pass then measures the disk tier, not the pipeline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/result_cache.h"
#include "analysis/service.h"
#include "bench_common.h"
#include "support/cache_flags.h"
#include "support/stats.h"

namespace {

struct PassResult {
  double wall_ms = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  jst::analysis::BatchResponse batch;
};

PassResult run_pass(const jst::analysis::AnalyzerService& service,
                    jst::analysis::ResultCache& cache,
                    const std::vector<jst::analysis::AnalyzeRequest>& requests) {
  const jst::analysis::ResultCache::Counters before = cache.counters();
  const auto started = std::chrono::steady_clock::now();
  PassResult pass;
  pass.batch = service.analyze_batch(requests);
  pass.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  const jst::analysis::ResultCache::Counters after = cache.counters();
  pass.hits = after.hits - before.hits;
  pass.misses = after.misses - before.misses;
  return pass;
}

// Rounds over the warm keys for the cold-probe hit figure: 5 × 48 keys
// leaves 12 samples above the p95 at the default scale.
constexpr std::size_t kColdHitRounds = 5;

// cache_lookup_ms of each warm request, each preceded by a cacheless
// analysis of a different script; empty if any request missed.
std::vector<double> cold_hit_ms(
    const jst::analysis::AnalyzerService& service,
    const std::vector<jst::analysis::AnalyzeRequest>& requests,
    const std::vector<std::string>& fillers) {
  const jst::analysis::AnalyzerService cacheless(jst::bench::analyzer());
  std::vector<double> samples;
  for (std::size_t round = 0; round < kColdHitRounds; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      cacheless.analyze(jst::analysis::AnalyzeRequest::for_source(
          fillers[(i + round) % fillers.size()]));
      const jst::analysis::AnalyzeResponse hit = service.analyze(requests[i]);
      if (hit.cache != jst::analysis::CacheState::kHit) return {};
      samples.push_back(hit.cache_lookup_ms);
    }
  }
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jst;

  support::CacheOptions cache_options;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (support::consume_cache_flag(argc, argv, i, cache_options, error)) {
      if (!error.empty()) {
        std::fprintf(stderr, "bench_cache: %s\n", error.c_str());
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: bench_cache %s\n",
                  std::string(support::cache_flags_usage()).c_str());
      return 0;
    }
    std::fprintf(stderr, "bench_cache: unknown flag %s\n", argv[i]);
    return 2;
  }
  if (cache_options.mode == CacheMode::kBypass) {
    std::fprintf(stderr,
                 "bench_cache: --cache-mode bypass defeats the bench\n");
    return 2;
  }

  const std::size_t count = bench::scaled(48);
  const std::vector<std::string> corpus =
      bench::held_out_regular(count, 0xba7c4);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(corpus, cache_options.mode);

  analysis::ResultCache::Config config;
  config.dir = cache_options.dir;
  config.max_bytes = cache_options.effective_bytes();
  analysis::ResultCache cache(config);
  if (!cache.load_error().empty()) {
    std::fprintf(stderr, "bench_cache: %s\n", cache.load_error().c_str());
  }
  const analysis::AnalyzerService service(bench::analyzer(), &cache);

  const PassResult cold = run_pass(service, cache, requests);
  const PassResult warm = run_pass(service, cache, requests);
  const std::vector<double> hit_ms = cold_hit_ms(
      service, requests, bench::held_out_regular(count, 0xf111e7));
  const double hit_p50_ms = stats::percentile(hit_ms, 50.0);
  const double hit_p95_ms = stats::percentile(hit_ms, 95.0);

  bench::print_header("result cache: repeat-batch speedup",
                      "paper SIV crawl: majority of scripts repeat across "
                      "snapshots");
  bench::print_row("cold pass wall (ms)", 0.0, cold.wall_ms, "");
  bench::print_row("warm pass wall (ms)", 0.0, warm.wall_ms, "");
  const double speedup =
      warm.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms : 0.0;
  bench::print_row("warm speedup (x)", 0.0, speedup, "");
  bench::print_row("warm hit rate", 100.0,
                   100.0 * static_cast<double>(warm.hits) /
                       static_cast<double>(requests.size()));
  bench::print_row("cold-probe hit p50 (us)", 0.0, hit_p50_ms * 1000.0, "");
  bench::print_row("cold-probe hit p95 (us)", 0.0, hit_p95_ms * 1000.0, "");
  bench::print_note("cold pass misses+stores every script; warm pass must "
                    "be served entirely from the cache");
  bench::print_note("cold-probe hits: each warm key requested after a "
                    "pipeline run on another script");
  bench::print_footer();

  // The acceptance gates: every warm request is a hit, and the replayed
  // outcomes are byte-identical to the cold pass (timing included).
  bool ok = true;
  if (warm.hits != requests.size() || warm.misses != 0) {
    std::fprintf(stderr,
                 "bench_cache: FAIL warm pass hits=%llu misses=%llu over "
                 "%zu requests (expected all hits)\n",
                 static_cast<unsigned long long>(warm.hits),
                 static_cast<unsigned long long>(warm.misses),
                 requests.size());
    ok = false;
  }
  if (hit_ms.size() != kColdHitRounds * requests.size()) {
    std::fprintf(stderr, "bench_cache: FAIL a cold-probe request missed\n");
    ok = false;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (warm.batch.responses[i].outcome.to_json() !=
        cold.batch.responses[i].outcome.to_json()) {
      std::fprintf(stderr,
                   "bench_cache: FAIL outcome %zu differs between passes\n",
                   i);
      ok = false;
      break;
    }
  }

  bench::BenchRecord cold_record;
  cold_record.config = "cold";
  cold_record.threads = cold.batch.stats.threads;
  cold_record.scripts = requests.size();
  cold_record.wall_ms = cold.wall_ms;
  cold_record.scripts_per_second =
      cold.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(requests.size()) / cold.wall_ms
          : 0.0;
  cold_record.cache_hit_rate =
      static_cast<double>(cold.hits) / static_cast<double>(requests.size());
  cold_record.stats_json = cold.batch.stats.to_json();

  bench::BenchRecord warm_record;
  warm_record.config = "warm";
  warm_record.threads = warm.batch.stats.threads;
  warm_record.scripts = requests.size();
  warm_record.wall_ms = warm.wall_ms;
  warm_record.scripts_per_second =
      warm.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(requests.size()) / warm.wall_ms
          : 0.0;
  warm_record.cache_hit_rate =
      static_cast<double>(warm.hits) / static_cast<double>(requests.size());
  warm_record.stats_json = warm.batch.stats.to_json();

  bench::BenchRecord hit_record;
  hit_record.config = "cold_hit";
  hit_record.threads = 1;
  hit_record.scripts = hit_ms.size();
  hit_record.latency_p50_ms = hit_p50_ms;
  hit_record.latency_p95_ms = hit_p95_ms;
  hit_record.cache_hit_rate = 1.0;

  const bench::BenchRecord records[] = {cold_record, warm_record, hit_record};
  bench::write_bench_json("cache", records);
  return ok ? 0 : 1;
}
