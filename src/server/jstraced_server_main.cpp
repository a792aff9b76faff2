// jstraced-server: the analysis daemon (DESIGN.md §13).
//
//   $ ./jstraced-server --socket /tmp/jstraced.sock
//   $ ./jstraced-server --socket /tmp/jstraced.sock --workers 4
//         --production-limits --deadline-ms 5000
//
// Trains the detectors at startup (--training-regular / --per-technique
// size the synthetic corpus) or restores a saved model with --model FILE,
// then serves AnalyzeRequests over the Unix socket until SIGTERM/SIGINT,
// which triggers a graceful drain: stop accepting, answer every admitted
// request, shed the rest with kDraining, remove the socket file.
//
// SIGUSR1 dumps the flight recorder (recent admit/shed verdicts, stage
// timings, slowest exemplars) as NDJSON to --flight-out (default
// jstraced_flight.ndjson next to the cwd) without interrupting serving;
// the same data is reachable live via {"op":"flight"} on the socket.
//
// The limits flags (support/limits_flags.h) set the *default* per-request
// ResourceLimits; any request may carry its own override. The cache flags
// (support/cache_flags.h) attach a content-addressed ResultCache
// (DESIGN.md §15): --cache-dir and/or --cache-bytes enable it,
// --cache-mode sets the default discipline for requests that don't name
// one (an explicit per-request cache_mode always wins).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/pipeline.h"
#include "analysis/result_cache.h"
#include "analysis/service.h"
#include "server/server.h"
#include "support/cache_flags.h"
#include "support/limits_flags.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: jstraced-server --socket PATH [--workers N] "
               "[--max-queue-depth N] [--max-connections N] "
               "[--min-service-ms X] [--model FILE] "
               "[--training-regular N] [--per-technique N] "
               "[--window-seconds N] [--flight-out FILE] %s %s\n",
               jst::support::cache_flags_usage(),
               jst::support::limits_flags_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jst;

  server::ServerConfig config;
  std::string model_path;
  support::CacheOptions cache_options;
  analysis::PipelineOptions pipeline_options;
  pipeline_options.training_regular_count = 100;
  pipeline_options.per_technique_count = 20;

  for (int i = 1; i < argc; ++i) {
    std::string limits_error;
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      config.socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-queue-depth") == 0 &&
               i + 1 < argc) {
      config.max_queue_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-connections") == 0 &&
               i + 1 < argc) {
      config.max_connections = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--min-service-ms") == 0 && i + 1 < argc) {
      config.min_service_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--window-seconds") == 0 && i + 1 < argc) {
      config.window_seconds = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--flight-out") == 0 && i + 1 < argc) {
      config.flight_dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_path = argv[++i];
    } else if (std::strcmp(argv[i], "--training-regular") == 0 &&
               i + 1 < argc) {
      pipeline_options.training_regular_count =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--per-technique") == 0 && i + 1 < argc) {
      pipeline_options.per_technique_count =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (support::consume_cache_flag(argc, argv, i, cache_options,
                                           limits_error) ||
               support::consume_limits_flag(argc, argv, i,
                                            config.default_limits,
                                            limits_error)) {
      if (!limits_error.empty()) {
        std::fprintf(stderr, "jstraced-server: %s\n", limits_error.c_str());
        return 2;
      }
    } else {
      usage();
      return 2;
    }
  }
  if (config.socket_path.empty()) {
    usage();
    return 2;
  }
  if (config.flight_dump_path.empty()) {
    config.flight_dump_path = "jstraced_flight.ndjson";
  }

  // Block the handled signals in every thread (workers inherit the mask)
  // so they can be collected synchronously with sigwait below instead of
  // in an async handler. SIGUSR1 is collected on the same loop: it dumps
  // the flight recorder and resumes waiting.
  sigset_t handled_signals;
  sigemptyset(&handled_signals);
  sigaddset(&handled_signals, SIGTERM);
  sigaddset(&handled_signals, SIGINT);
  sigaddset(&handled_signals, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &handled_signals, nullptr);

  analysis::TransformationAnalyzer analyzer(pipeline_options);
  if (!model_path.empty()) {
    std::ifstream in(model_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "jstraced-server: cannot open model %s\n",
                   model_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[jstraced] loading model from %s\n",
                 model_path.c_str());
    analyzer.load(in);
  } else {
    std::fprintf(stderr,
                 "[jstraced] training detectors (%zu regular, %zu per "
                 "technique)...\n",
                 pipeline_options.training_regular_count,
                 pipeline_options.per_technique_count);
    analyzer.train();
  }

  // The cache is attached only when asked for; --cache-mode bypass keeps
  // it detached even then (responses then carry no cache metadata at
  // all, matching a cacheless daemon byte-for-byte).
  std::unique_ptr<analysis::ResultCache> cache;
  if (cache_options.enabled() && cache_options.mode != CacheMode::kBypass) {
    analysis::ResultCache::Config cache_config;
    cache_config.dir = cache_options.dir;
    cache_config.max_bytes = cache_options.effective_bytes();
    cache = std::make_unique<analysis::ResultCache>(cache_config);
    if (!cache->load_error().empty()) {
      std::fprintf(stderr, "[jstraced] cache: %s\n",
                   cache->load_error().c_str());
    }
    config.default_cache_mode = cache_options.mode;
    std::fprintf(stderr, "[jstraced] result cache: %zu MiB memory tier%s%s\n",
                 cache_config.max_bytes >> 20,
                 cache_config.dir.empty() ? "" : ", persisted under ",
                 cache_config.dir.c_str());
  }
  const analysis::AnalyzerService service(analyzer, cache.get());

  try {
    server::Server daemon(service, config);
    daemon.start();
    // The readiness line: scripts wait for it before connecting.
    std::fprintf(stderr, "[jstraced] listening on %s (workers=%zu)\n",
                 daemon.socket_path().c_str(), daemon.workers());
    std::fflush(stderr);

    int signal_number = 0;
    for (;;) {
      sigwait(&handled_signals, &signal_number);
      if (signal_number != SIGUSR1) break;
      // Synchronous context (sigwait, not a handler), so the full dump
      // path — locks, allocation, file I/O — is safe here.
      const bool dumped = jst::obs::FlightRecorder::global().dump_to_file(
          config.flight_dump_path);
      std::fprintf(stderr, "[jstraced] SIGUSR1: flight recorder %s %s\n",
                   dumped ? "dumped to" : "dump FAILED for",
                   config.flight_dump_path.c_str());
      std::fflush(stderr);
    }
    std::fprintf(stderr, "[jstraced] signal %d: draining...\n",
                 signal_number);
    daemon.shutdown();
    const server::ServerStats stats = daemon.stats();
    std::fprintf(stderr,
                 "[jstraced] drained: %llu connections (%llu refused), "
                 "%llu admitted, %llu served, %llu shed, %llu invalid\n",
                 static_cast<unsigned long long>(stats.connections_accepted),
                 static_cast<unsigned long long>(stats.connections_refused),
                 static_cast<unsigned long long>(stats.requests_admitted),
                 static_cast<unsigned long long>(stats.requests_served),
                 static_cast<unsigned long long>(stats.requests_shed),
                 static_cast<unsigned long long>(stats.requests_invalid));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jstraced-server: %s\n", error.what());
    return 1;
  }
  return 0;
}
