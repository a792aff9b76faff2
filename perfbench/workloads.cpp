#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>

#include "analysis/longitudinal.h"
#include "analysis/result_cache.h"
#include "analysis/service.h"
#include "corpus.h"
#include "daemon.h"
#include "layers.h"

namespace perfbench {
namespace {

using jst::analysis::AnalyzeRequest;
using jst::analysis::AnalyzerService;
using jst::analysis::BatchOptions;
using jst::analysis::BatchResponse;
using jst::analysis::CacheState;
using jst::analysis::ResultCache;
using jst::analysis::TransformationAnalyzer;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- batch_wild_mix -------------------------------------------------------
// All five §IV populations. The malware feeds carry a fixed heavy-tail
// quota (8 + 4 scripts over 64 KiB in 3800, ~13 and ~7 per 1000 of their
// feeds), so every seed's pass holds the same amount of tail, and enough
// of it that no single straggler sets an N-lane pass's length.
constexpr Quota kWildMix[] = {
    {Population::kAlexa, 1000, 0}, {Population::kNpm, 1000, 0},
    {Population::kDnc, 592, 8},    {Population::kHynek, 596, 4},
    {Population::kBsi, 600, 0},
};
// Timed passes per second of --seconds, per lane setting.
constexpr double kBatchPassesPerSecond1Lane = 0.2;
constexpr double kBatchPassesPerSecondNLanes = 0.45;

// ---- daemon_open_loop -----------------------------------------------------
constexpr Quota kDaemonMix[] = {
    {Population::kAlexa, 600, 0},
    {Population::kNpm, 600, 0},
};
// The fixed offered rate is a constant of the workload, never derived
// from capacity measured at run time, so a slower change cannot lower its
// own load. It is low (~1/15 of the N-lane throughput): on a shared
// virtual machine, wake-up stalls of a few milliseconds swamp the round
// trips once the daemon is busier (see README.md).
constexpr double kOfferedRate = 500.0;       // requests per second
constexpr double kWarmupRate = 1500.0;       // requests per second
constexpr std::size_t kMaxConnections = 2;   // generator connections
constexpr double kWindowSeconds = 0.25;      // medians over windows
// Shares of --seconds. The timed phases run interleaved in rounds of
// about kRoundSeconds each, so every metric samples the whole run.
constexpr double kFixedRateShare = 0.4;      // N-lane daemon, fixed rate
constexpr double kSaturationShare = 0.2;     // N-lane daemon, saturated
constexpr double kSaturationShare1Lane = 0.3;  // 1-lane daemon, saturated
constexpr double kRoundSeconds = 5.0;
constexpr std::size_t kInFlightPerLane = 16;  // saturation backlog bound

// ---- snapshot_recrawl -----------------------------------------------------
constexpr std::size_t kRecrawlAlexa = 1200;
constexpr std::size_t kRecrawlNpm = 800;
constexpr double kPersistence = 0.7;
constexpr std::size_t kRecrawlMonths = 12;  // timed months per replay
// Replays of the month chain, each on a fresh cache, per second of
// --seconds: every replay re-fills its cache untimed from month 0.
constexpr double kRecrawlReplaysPerSecond1Lane = 0.15;
constexpr double kRecrawlReplaysPerSecondNLanes = 0.35;

std::size_t scaled_count(double per_second, double seconds,
                         std::size_t minimum) {
  return std::max<std::size_t>(
      minimum, static_cast<std::size_t>(std::lround(per_second * seconds)));
}

std::vector<std::string> sources_of(const std::vector<Script>& scripts) {
  std::vector<std::string> sources;
  sources.reserve(scripts.size());
  for (const Script& script : scripts) sources.push_back(script.source);
  return sources;
}

// Times one analyze_batch call.
BatchResponse timed_batch(const AnalyzerService& service,
                          const std::vector<AnalyzeRequest>& requests,
                          std::size_t threads, double& wall_ms) {
  BatchOptions options;
  options.threads = threads;
  const Clock::time_point start = Clock::now();
  BatchResponse batch = service.analyze_batch(requests, options);
  wall_ms = ms_between(start, Clock::now());
  return batch;
}

// Counts responses into a phase tally (a non-kOk response is a rejection:
// in-process there is no admission control to shed).
void tally_responses(const BatchResponse& batch, PhaseTally& tally) {
  for (const auto& response : batch.responses) {
    ++tally.attempted;
    if (response.ok()) {
      ++tally.ok;
    } else {
      ++tally.rejected;
    }
  }
}

double idle_share(const jst::analysis::BatchStats& stats) {
  const double capacity = stats.wall_ms * static_cast<double>(stats.threads);
  return capacity > 0 ? 1.0 - stats.total_script_ms / capacity : 0.0;
}

std::string digest_of(const std::vector<std::string>& records) {
  Digest digest;
  for (const std::string& record : records) digest.add(record);
  return digest.hex();
}

void write_spans(const RunOptions& options, const SpanRecorder& spans,
                 Report& report) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path =
      options.trace_dir + "/" + options.workload + ".spans.ndjson";
  if (!spans.write_ndjson(path)) report.fail("cannot write " + path);
}

}  // namespace

// ---------------------------------------------------------------------------

Report run_batch_wild_mix(const RunOptions& options, SpanRecorder& spans) {
  Report report;
  TransformationAnalyzer analyzer(training_options());
  load_model(analyzer, options.model_path);
  const AnalyzerService service(analyzer);

  const std::vector<Script> corpus = stratified_mix(kWildMix, options.seed);
  const std::size_t n = corpus.size();
  // Two request vectors, permuted into each other by moves, so re-ordering
  // between passes allocates nothing.
  std::vector<AnalyzeRequest> requests =
      jst::analysis::make_source_requests(sources_of(corpus));
  std::vector<AnalyzeRequest> spare(n);
  std::vector<std::uint32_t> script_at(n);
  for (std::size_t i = 0; i < n; ++i) script_at[i] = static_cast<std::uint32_t>(i);
  std::uint64_t pass_seed = options.seed * 7919 + 1;
  const auto reorder = [&] {
    const std::vector<std::uint32_t> order = permutation(n, pass_seed++);
    std::vector<std::uint32_t> next_script(n);
    for (std::size_t j = 0; j < n; ++j) {
      spare[j] = std::move(requests[order[j]]);
      next_script[j] = script_at[order[j]];
    }
    requests.swap(spare);
    script_at.swap(next_script);
  };

  std::vector<std::string> reference(n);
  // Checks a pass against the reference outcomes (untimed JSON per
  // script) and returns the digest of the pass in corpus order.
  const auto check = [&](const BatchResponse& batch, PhaseTally& tally) {
    std::vector<std::string> by_script(n);
    for (std::size_t j = 0; j < n; ++j) {
      by_script[script_at[j]] =
          untimed_outcome_json(batch.responses[j].outcome);
    }
    Digest digest;
    for (std::size_t i = 0; i < n; ++i) {
      if (reference[i].empty()) reference[i] = by_script[i];
      if (by_script[i] != reference[i]) ++tally.digest_mismatches;
      digest.add(by_script[i]);
    }
    return digest.hex();
  };

  // Warm-up: one cold 1-lane pass (the reference), a tail pass, and one
  // N-lane pass. The tail pass lists each heavy script once per lane,
  // back to back: lanes claim indices as they free up and a heavy script
  // keeps its lane busy for 100+ ms, so every lane gets every heavy script
  // once and grows its pooled scratch to the tail's footprint before
  // timing starts.
  const long faults_before_warmup = minor_faults_self();
  double wall_ms = 0.0;
  {
    PhaseTally& tally = report.phase("warmup");
    BatchResponse batch = timed_batch(service, requests, 1, wall_ms);
    tally_responses(batch, tally);
    report.digests["reference"] = check(batch, tally);
    std::vector<AnalyzeRequest> tail;
    for (const Script& script : corpus) {
      if (script.source.size() <= kHeavyBytes) continue;
      for (std::size_t lane = 0; lane < options.lanes; ++lane) {
        tail.push_back(AnalyzeRequest::for_source(script.source));
      }
    }
    tally_responses(timed_batch(service, tail, options.lanes, wall_ms), tally);
    batch = timed_batch(service, requests, options.lanes, wall_ms);
    tally_responses(batch, tally);
    check(batch, tally);
  }
  const long warmup_faults = minor_faults_self() - faults_before_warmup;
  reorder();
  report.setup_s = seconds_since(options.process_start);

  const long faults_before_timed = minor_faults_self();
  std::vector<double> wall_1lane, wall_nlanes, service_ms, idle;
  Digest digest_1lane, digest_nlanes;
  const std::size_t passes_1lane =
      scaled_count(kBatchPassesPerSecond1Lane, options.seconds, 2);
  const std::size_t passes_nlanes =
      scaled_count(kBatchPassesPerSecondNLanes, options.seconds, 3);
  const auto pass_1lane = [&](std::size_t pass) {
    const long faults = minor_faults_self();
    const BatchResponse batch = timed_batch(service, requests, 1, wall_ms);
    std::fprintf(stderr, "[batch] 1-lane pass %zu: %.1f ms, %ld faults\n",
                 pass, wall_ms, minor_faults_self() - faults);
    wall_1lane.push_back(wall_ms);
    PhaseTally& tally = report.phase("1lane");
    tally_responses(batch, tally);
    for (const auto& response : batch.responses) {
      service_ms.push_back(response.service_ms);
    }
    digest_1lane.add(check(batch, tally));
    reorder();
  };
  const auto pass_nlanes = [&](std::size_t pass) {
    const long faults = minor_faults_self();
    const BatchResponse batch =
        timed_batch(service, requests, options.lanes, wall_ms);
    std::fprintf(stderr, "[batch] %zu-lane pass %zu: %.1f ms, %ld faults\n",
                 options.lanes, pass, wall_ms, minor_faults_self() - faults);
    wall_nlanes.push_back(wall_ms);
    idle.push_back(idle_share(batch.stats));
    PhaseTally& tally = report.phase("nlanes");
    tally_responses(batch, tally);
    digest_nlanes.add(check(batch, tally));
    reorder();
  };
  // The two lane settings take turns in proportion to their pass counts,
  // so each samples the whole run: the machine's speed drifts over
  // seconds (README.md).
  for (std::size_t done_1 = 0, done_n = 0;
       done_1 < passes_1lane || done_n < passes_nlanes;) {
    if (done_n == passes_nlanes ||
        (done_1 < passes_1lane &&
         done_1 * passes_nlanes <= done_n * passes_1lane)) {
      pass_1lane(done_1++);
    } else {
      pass_nlanes(done_n++);
    }
  }
  const long timed_faults = minor_faults_self() - faults_before_timed;
  report.digests["1lane_passes"] = digest_1lane.hex();
  report.digests["nlanes_passes"] = digest_nlanes.hex();

  Metrics& e2e = report.end_to_end;
  e2e.set("scripts_per_s_1lane", n / (median(wall_1lane) / 1000.0), "1/s");
  e2e.set("scripts_per_s", n / (median(wall_nlanes) / 1000.0), "1/s");
  e2e.set("rtt_p50_ms", percentile(service_ms, 50), "ms");
  e2e.set("rtt_p90_ms", percentile(service_ms, 90), "ms");
  e2e.set("peak_rss_mb", peak_rss_mb_self(), "MiB");
  Metrics& layer = report.per_layer;
  layer.set("pool.idle_share", median(idle), "share");
  layer.set("warmup.minor_faults", static_cast<double>(warmup_faults),
            "count");
  layer.set("timed.minor_faults", static_cast<double>(timed_faults), "count");

  if (options.trace) {
    trace_layers(analyzer, corpus, spans, report);
    write_spans(options, spans, report);
  }
  return report;
}

// ---------------------------------------------------------------------------

namespace {

// Tallies one generator phase and checks each answer against the
// expected outcome of its script.
void tally_records(const std::vector<RequestRecord>& records,
                   const std::vector<std::string>& expected,
                   PhaseTally& tally) {
  for (const RequestRecord& record : records) {
    ++tally.attempted;
    if (record.received_ns == 0) {
      ++tally.transport_errors;
    } else if (record.shed) {
      ++tally.shed;
    } else if (record.rejected) {
      ++tally.rejected;
    } else {
      ++tally.ok;
      if (record.outcome != expected[record.script]) {
        ++tally.digest_mismatches;
      }
    }
  }
}

// Consecutive windows of `seconds` by due time, each as its records'
// round trips (+inf for a failed request) - the unit the robust rtt and
// throughput figures take medians over, so one scheduling stall of the
// machine moves one window, not the run.
std::vector<std::vector<double>> rtt_windows(
    const std::vector<RequestRecord>& records, double seconds) {
  std::vector<std::vector<double>> windows;
  if (records.empty()) return windows;
  const auto width = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t first = records.front().due_ns;
  for (const RequestRecord& record : records) {
    const auto index =
        static_cast<std::size_t>((record.due_ns - first) / width);
    if (windows.size() <= index) windows.resize(index + 1);
    windows[index].push_back(record.ok && record.received_ns != 0
                                 ? record.rtt_ms()
                                 : kInf);
  }
  return windows;
}

// Median over windows of each window's p-th percentile round trip.
double windowed_rtt(const std::vector<RequestRecord>& records, double p) {
  std::vector<double> per_window;
  for (const auto& window : rtt_windows(records, kWindowSeconds)) {
    if (!window.empty()) per_window.push_back(percentile(window, p));
  }
  return median(per_window);
}

// Appends the completions per second in each window of receive times
// (the spacing of the window's first and last answer) to `rates`; the
// first window, while the backlog builds, is skipped.
void saturated_rates(const std::vector<RequestRecord>& records,
                     std::vector<double>& rates) {
  std::vector<std::int64_t> received;
  for (const RequestRecord& record : records) {
    if (record.ok && record.received_ns != 0) {
      received.push_back(record.received_ns);
    }
  }
  if (received.empty()) return;
  std::sort(received.begin(), received.end());
  const auto width = static_cast<std::int64_t>(kWindowSeconds * 1e9);
  std::size_t first = 0;
  for (std::int64_t window_end = received.front() + 2 * width;
       window_end <= received.back(); window_end += width) {
    while (first < received.size() && received[first] < window_end - width) {
      ++first;
    }
    std::size_t last = first;
    while (last + 1 < received.size() && received[last + 1] < window_end) {
      ++last;
    }
    if (last > first) {
      rates.push_back(static_cast<double>(last - first) /
                      (static_cast<double>(received[last] - received[first]) /
                       1e9));
    }
  }
}

}  // namespace

Report run_daemon_open_loop(const RunOptions& options, SpanRecorder& spans) {
  Report report;
  TransformationAnalyzer analyzer(training_options());
  load_model(analyzer, options.model_path);
  const AnalyzerService service(analyzer);

  const std::vector<Script> corpus = stratified_mix(kDaemonMix, options.seed);
  const std::vector<std::string> sources = sources_of(corpus);
  const std::size_t n = corpus.size();

  // In-process reference outcomes for the daemons' answers.
  std::vector<std::string> expected_full(n), expected_status(n);
  {
    double wall_ms = 0.0;
    const BatchResponse batch = timed_batch(
        service, jst::analysis::make_source_requests(sources), options.lanes,
        wall_ms);
    tally_responses(batch, report.phase("reference"));
    Digest digest;
    for (std::size_t i = 0; i < n; ++i) {
      expected_full[i] = untimed_outcome_json(batch.responses[i].outcome);
      expected_status[i] =
          std::string(to_string(batch.responses[i].outcome.status));
      digest.add(expected_full[i]);
    }
    report.digests["reference"] = digest.hex();
  }
  const RequestLines full_lines = encode_requests(sources, true);
  const RequestLines status_lines = encode_requests(sources, false);

  // Two daemons serving the same model: nproc worker lanes, and one.
  const std::string socket = options.work_dir + "/n.sock";
  const std::string socket_1lane = options.work_dir + "/1.sock";
  DaemonProcess daemon(options.server_path, socket, options.model_path,
                       options.lanes, options.work_dir + "/n.log");
  DaemonProcess daemon_1lane(options.server_path, socket_1lane,
                             options.model_path, 1,
                             options.work_dir + "/1.log");
  daemon.wait_ready(60.0);
  daemon_1lane.wait_ready(60.0);
  std::uint64_t schedule_seed = options.seed * 104729 + 17;

  // Warm-up: the whole corpus once through each daemon, full detail,
  // every answer checked against the in-process reference outcome.
  const long faults_before_warmup = minor_faults_of(daemon.pid());
  for (const auto& [name, path] :
       {std::pair<std::string, std::string>{"daemon_full_detail", socket},
        {"daemon_1lane_full_detail", socket_1lane}}) {
    const std::vector<std::uint32_t> order = permutation(n, schedule_seed++);
    std::vector<std::int64_t> offsets =
        poisson_offsets(kWarmupRate, 2.0 * n / kWarmupRate, schedule_seed++);
    offsets.resize(std::min(offsets.size(), n));
    const std::vector<std::uint32_t> scripts(order.begin(),
                                             order.begin() + offsets.size());
    const auto records = run_open_loop(path, full_lines, scripts, offsets,
                                       kMaxConnections, true);
    tally_records(records, expected_full, report.phase("warmup"));
    std::vector<std::string> answered(n);
    for (const RequestRecord& record : records) {
      answered[record.script] = record.outcome;
    }
    Digest digest;
    for (const std::string& outcome : answered) digest.add(outcome);
    report.digests[name] = digest.hex();
  }
  const long warmup_faults =
      minor_faults_of(daemon.pid()) - faults_before_warmup;
  report.setup_s = seconds_since(options.process_start);

  // The timed phases run interleaved in rounds: a stretch at the fixed
  // offered rate on the N-lane daemon, then saturation on each daemon.
  // The machine's speed drifts over seconds (README.md), so a phase run
  // as one block would measure the stretch it fell in; spread over the
  // run, the medians over windows sample all of it.
  const std::size_t rounds = scaled_count(1.0 / kRoundSeconds,
                                          options.seconds, 2);
  const double round_s = options.seconds / static_cast<double>(rounds);
  const long faults_before_timed = minor_faults_of(daemon.pid());
  const std::vector<std::uint32_t> stream = permutation(n, schedule_seed++);
  // Each phase continues the stream where its previous stretch stopped.
  const auto stream_from = [&](std::size_t position, std::size_t count) {
    std::vector<std::uint32_t> scripts(count);
    for (std::size_t k = 0; k < count; ++k) {
      scripts[k] = stream[(position + k) % n];
    }
    return scripts;
  };
  std::vector<RequestRecord> fixed;
  double fixed_span_ms = 0.0;
  const auto fixed_rate = [&] {
    const std::vector<std::int64_t> offsets = poisson_offsets(
        kOfferedRate, kFixedRateShare * round_s, schedule_seed++);
    // The generator's thread plus these keep every CPU awake while the
    // daemon is mostly idle between requests.
    const IdleSpinners spinners(options.lanes - 1);
    const auto records =
        run_open_loop(socket, status_lines, stream_from(fixed.size(),
                                                        offsets.size()),
                      offsets, kMaxConnections, false);
    tally_records(records, expected_status, report.phase("fixed_rate"));
    if (!records.empty()) {
      fixed_span_ms +=
          static_cast<double>(records.back().due_ns - records.front().due_ns) /
          1e6;
    }
    fixed.insert(fixed.end(), records.begin(), records.end());
  };
  std::size_t saturated_sent = 0;
  std::vector<double> rates, rates_1lane;
  const auto saturated = [&](const std::string& path, std::size_t lanes,
                             double share, const char* phase,
                             std::vector<double>& window_rates) {
    const auto records = run_saturated(
        path, status_lines, stream_from(saturated_sent, n), kMaxConnections,
        kInFlightPerLane * lanes, share * round_s);
    saturated_sent += records.size();
    tally_records(records, expected_status, report.phase(phase));
    saturated_rates(records, window_rates);
  };

  double daemon_peak_mb = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    fixed_rate();
    // Peak memory of serving the fixed rate, before saturation piles up
    // a backlog of request bodies.
    if (round == 0) daemon_peak_mb = peak_rss_mb_of(daemon.pid());
    saturated(socket, options.lanes, kSaturationShare, "saturated", rates);
    saturated(socket_1lane, 1, kSaturationShare1Lane, "saturated_1lane",
              rates_1lane);
  }
  const long timed_faults = minor_faults_of(daemon.pid()) - faults_before_timed;
  const double capacity = median(rates);
  const double capacity_1lane = median(rates_1lane);

  for (DaemonProcess* process : {&daemon, &daemon_1lane}) {
    const int status = process->stop();
    if (status != 0) {
      report.fail("jstraced-server exited with status " +
                  std::to_string(status));
    }
  }

  Metrics& e2e = report.end_to_end;
  e2e.set("scripts_per_s_1lane", capacity_1lane, "1/s");
  e2e.set("scripts_per_s", capacity, "1/s");
  e2e.set("rtt_p50_ms", windowed_rtt(fixed, 50), "ms");
  e2e.set("rtt_p90_ms", windowed_rtt(fixed, 90), "ms");
  e2e.set("peak_rss_mb", daemon_peak_mb, "MiB");

  // Server-side breakdown of the fixed-rate phase.
  std::vector<double> queue, service_ms, unattributed, lag;
  double busy_ms = 0.0;
  std::size_t shed = 0;
  for (const RequestRecord& record : fixed) {
    if (record.shed) ++shed;
    if (!record.ok || record.received_ns == 0) continue;
    queue.push_back(record.queue_ms);
    service_ms.push_back(record.service_ms);
    unattributed.push_back(record.rtt_ms() - record.queue_ms -
                           record.service_ms);
    lag.push_back(static_cast<double>(record.sent_ns - record.due_ns) / 1e6);
    busy_ms += record.service_ms;
  }
  Metrics& layer = report.per_layer;
  layer.set("server.queue_ms_p90", percentile(queue, 90), "ms");
  layer.set("server.unattributed_ms_p50", percentile(unattributed, 50), "ms");
  layer.set("server.service_ms_p50", percentile(service_ms, 50), "ms");
  layer.set("server.shed", static_cast<double>(shed), "count");
  layer.set("generator.lag_ms_p90", percentile(lag, 90), "ms");
  layer.set("pool.idle_share",
            fixed_span_ms > 0
                ? 1.0 - busy_ms / (fixed_span_ms *
                                   static_cast<double>(options.lanes))
                : 0.0,
            "share");
  layer.set("warmup.minor_faults", static_cast<double>(warmup_faults),
            "count");
  layer.set("timed.minor_faults", static_cast<double>(timed_faults), "count");

  if (options.trace) {
    trace_layers(analyzer, corpus, spans, report);
    write_spans(options, spans, report);
  }
  return report;
}

// ---------------------------------------------------------------------------

namespace {

// One replay of the month chain on a fresh cache-attached service.
// Month 0 fills the cache untimed; months 1.. are timed. Every answer is
// checked: a hit must equal the outcome first computed for that content
// (kept in `computed`, shared across replays), and with `verify_misses`
// each month's misses must equal its new-content count.
class Replay {
 public:
  Replay(const TransformationAnalyzer& analyzer, const std::string& cache_dir,
         std::size_t threads, bool verify_misses, std::string phase_name,
         Report& report)
      : threads_(threads),
        verify_misses_(verify_misses),
        phase_name_(std::move(phase_name)) {
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    ResultCache::Config config;
    config.dir = cache_dir;
    cache_ = std::make_unique<ResultCache>(config);
    if (!cache_->load_error().empty()) {
      report.fail("cache: " + cache_->load_error());
    }
    service_ = std::make_unique<AnalyzerService>(analyzer, cache_.get());
    before_ = cache_->counters();
  }

  void run_month(const RecrawlChain& chain, std::size_t month,
                 std::vector<std::string>& computed, Report& report) {
    std::vector<AnalyzeRequest> requests;
    requests.reserve(chain.months[month].size());
    for (const std::uint32_t slot : chain.months[month]) {
      requests.push_back(AnalyzeRequest::for_source(chain.pool[slot]));
    }
    if (month == 1) timed_start_ = cache_->counters();
    double wall_ms = 0.0;
    const long faults_before = minor_faults_self();
    const BatchResponse batch =
        timed_batch(*service_, requests, threads_, wall_ms);
    (month == 0 ? warmup_faults : timed_faults) +=
        minor_faults_self() - faults_before;
    const ResultCache::Counters after = cache_->counters();
    PhaseTally& tally = report.phase(month == 0 ? phase_name_ + "_month0"
                                                : phase_name_);
    tally_responses(batch, tally);
    if (verify_misses_ &&
        after.misses - before_.misses != chain.new_content[month]) {
      report.fail(phase_name_ + ": month " + std::to_string(month) +
                  " had " + std::to_string(after.misses - before_.misses) +
                  " cache misses for " +
                  std::to_string(chain.new_content[month]) +
                  " new-content scripts");
    }
    before_ = after;
    Digest digest;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const auto& response = batch.responses[j];
      const std::string outcome = untimed_outcome_json(response.outcome);
      std::string& known = computed[chain.months[month][j]];
      if (known.empty()) {
        // A hit for content never computed in this run cannot be right.
        if (response.cache == CacheState::kHit) ++tally.digest_mismatches;
        known = outcome;
      } else if (known != outcome) {
        ++tally.digest_mismatches;
      }
      digest.add(outcome);
      if (month > 0) service_ms.push_back(response.service_ms);
    }
    month_digests.push_back(digest.hex());
    if (month > 0) {
      timed_scripts += requests.size();
      timed_wall_ms += wall_ms;
      // BatchStats sums the original analysis time of cache hits, so the
      // lanes' busy time is taken from service_ms (lookup-only on a hit).
      double busy_ms = 0.0;
      for (const auto& response : batch.responses) {
        busy_ms += response.service_ms;
      }
      idle.push_back(1.0 - busy_ms / (wall_ms * threads_));
    }
  }

  // Cache counters over the timed months.
  ResultCache::Counters timed_counters() const {
    const ResultCache::Counters end = cache_->counters();
    ResultCache::Counters timed;
    timed.hits = end.hits - timed_start_.hits;
    timed.misses = end.misses - timed_start_.misses;
    timed.stores = end.stores - timed_start_.stores;
    return timed;
  }

  double record_file_mb() const {
    std::error_code error;
    const auto bytes = std::filesystem::file_size(cache_->path(), error);
    return error ? 0.0 : static_cast<double>(bytes) / kMiB;
  }

  std::size_t timed_scripts = 0;  // over the timed months
  double timed_wall_ms = 0.0;
  std::vector<double> service_ms;  // per request, timed months
  std::vector<double> idle;        // pool idle share, timed months
  std::vector<std::string> month_digests;
  long warmup_faults = 0;  // month 0
  long timed_faults = 0;   // months 1..

 private:
  std::size_t threads_;
  bool verify_misses_;
  std::string phase_name_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<AnalyzerService> service_;
  ResultCache::Counters before_{};
  ResultCache::Counters timed_start_{};
};

// Traced replay of the cache layer over the chain on one lane: spans
// around content_hash, make_key, lookup and store, the pipeline run on
// each miss. Sets the mean lookup and store times.
void trace_cache(const TransformationAnalyzer& analyzer,
                 const RecrawlChain& chain, const std::string& cache_dir,
                 const std::vector<std::string>& computed,
                 SpanRecorder& spans, Report& report) {
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  ResultCache::Config config;
  config.dir = cache_dir;
  ResultCache cache(config);
  const AnalyzerService service(analyzer, &cache);
  const std::string& model = service.model_fingerprint();
  const jst::ResourceLimits limits;
  jst::analysis::ScriptScratch scratch;
  PhaseTally& tally = report.phase("trace_cache");
  double lookup_ms = 0.0, store_ms = 0.0;
  std::size_t lookups = 0, stores = 0;
  std::uint32_t request = 0;
  for (const auto& month : chain.months) {
    for (const std::uint32_t slot : month) {
      const std::string& source = chain.pool[slot];
      ++request;
      std::string hash, key;
      {
        SpanRecorder::Scope span(spans, "cache.content_hash", request);
        hash = jst::analysis::content_hash(source);
      }
      {
        SpanRecorder::Scope span(spans, "cache.make_key", request);
        key = ResultCache::make_key(hash, model, limits);
      }
      std::optional<jst::analysis::ScriptOutcome> outcome;
      std::int32_t index = -1;
      {
        SpanRecorder::Scope span(spans, "cache.lookup", request);
        outcome = cache.lookup(key);
        index = span.index();
      }
      lookup_ms += spans.duration_ms(index);
      ++lookups;
      if (!outcome.has_value()) {
        {
          SpanRecorder::Scope span(spans, "analysis", request);
          outcome = analyzer.analyze_outcome(source, limits, scratch);
        }
        if (ResultCache::cacheable(*outcome)) {
          {
            SpanRecorder::Scope span(spans, "cache.store", request);
            cache.store(key, *outcome);
            index = span.index();
          }
          store_ms += spans.duration_ms(index);
          ++stores;
        }
      }
      ++tally.attempted;
      ++tally.ok;
      if (untimed_outcome_json(*outcome) != computed[slot]) {
        ++tally.digest_mismatches;
      }
    }
  }
  ResultCache::Counters counters;
  {
    SpanRecorder::Scope span(spans, "cache.counters", 0);
    counters = cache.counters();
  }
  Metrics& layer = report.per_layer;
  layer.set("cache.lookup_us", lookups ? lookup_ms * 1000.0 / lookups : 0.0,
            "us");
  layer.set("cache.store_us", stores ? store_ms * 1000.0 / stores : 0.0, "us");
  if (counters.hits + counters.misses != lookups) {
    report.fail("trace_cache: counters disagree with the lookups made");
  }
}

}  // namespace

Report run_snapshot_recrawl(const RunOptions& options, SpanRecorder& spans) {
  Report report;
  TransformationAnalyzer analyzer(training_options());
  load_model(analyzer, options.model_path);

  const RecrawlChain chain = recrawl_chain(
      kRecrawlAlexa, kRecrawlNpm, kRecrawlMonths + 1, kPersistence,
      options.seed);
  std::vector<std::string> computed(chain.pool.size());

  // Replays on 1 lane (each checking the miss invariant) and on N lanes,
  // run month by month side by side: each replay's timed months are
  // spread over the whole run, since the machine's speed drifts over
  // seconds (README.md). Every replay's months must match the first
  // replay's, month by month.
  const std::size_t replays_1lane =
      scaled_count(kRecrawlReplaysPerSecond1Lane, options.seconds, 1);
  const std::size_t replays_nlanes =
      scaled_count(kRecrawlReplaysPerSecondNLanes, options.seconds, 1);
  std::vector<std::unique_ptr<Replay>> replays;
  for (std::size_t r = 0; r < replays_1lane + replays_nlanes; ++r) {
    const bool single = r < replays_1lane;
    replays.push_back(std::make_unique<Replay>(
        analyzer, options.work_dir + "/cache-" + std::to_string(r),
        single ? 1 : options.lanes, single, single ? "1lane" : "nlanes",
        report));
  }
  for (std::size_t month = 0; month < chain.months.size(); ++month) {
    if (month == 1) report.setup_s = seconds_since(options.process_start);
    for (const auto& replay : replays) {
      replay->run_month(chain, month, computed, report);
    }
  }
  const Replay& first = *replays.front();
  std::vector<double> rates_1lane, rates_nlanes, service_ms, idle;
  long timed_faults = 0;
  for (std::size_t r = 0; r < replays.size(); ++r) {
    const Replay& replay = *replays[r];
    const bool single = r < replays_1lane;
    if (replay.month_digests != first.month_digests) {
      ++report.phase(single ? "1lane" : "nlanes").digest_mismatches;
    }
    const double rate = replay.timed_scripts / (replay.timed_wall_ms / 1e3);
    (single ? rates_1lane : rates_nlanes).push_back(rate);
    if (single) {
      service_ms.insert(service_ms.end(), replay.service_ms.begin(),
                        replay.service_ms.end());
    } else {
      idle.insert(idle.end(), replay.idle.begin(), replay.idle.end());
    }
    timed_faults += replay.timed_faults;
  }
  report.digests["1lane_months"] = digest_of(first.month_digests);
  report.digests["nlanes_months"] =
      digest_of(replays[replays_1lane]->month_digests);

  Metrics& e2e = report.end_to_end;
  e2e.set("scripts_per_s_1lane", median(rates_1lane), "1/s");
  e2e.set("scripts_per_s", median(rates_nlanes), "1/s");
  e2e.set("rtt_p50_ms", percentile(service_ms, 50), "ms");
  e2e.set("rtt_p90_ms", percentile(service_ms, 90), "ms");
  e2e.set("peak_rss_mb", peak_rss_mb_self(), "MiB");

  Metrics& layer = report.per_layer;
  const ResultCache::Counters counters = first.timed_counters();
  layer.set("cache.hit_ratio",
            counters.hits + counters.misses > 0
                ? static_cast<double>(counters.hits) /
                      static_cast<double>(counters.hits + counters.misses)
                : 0.0,
            "share");
  layer.set("cache.stores", static_cast<double>(counters.stores), "count");
  layer.set("cache.record_file_mb", first.record_file_mb(), "MiB");
  layer.set("pool.idle_share", median(idle), "share");
  layer.set("warmup.minor_faults",
            static_cast<double>(first.warmup_faults), "count");
  layer.set("timed.minor_faults", static_cast<double>(timed_faults),
            "count");

  if (options.trace) {
    trace_cache(analyzer, chain, options.work_dir + "/cache-trace", computed,
                spans, report);
    std::vector<Script> month0;
    for (const std::uint32_t slot : chain.months[0]) {
      month0.push_back({chain.pool[slot], chain.pool_population[slot]});
    }
    trace_layers(analyzer, month0, spans, report);
    write_spans(options, spans, report);
  }
  return report;
}

}  // namespace perfbench
