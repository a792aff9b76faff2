// Shared plumbing for the jstbench driver: clocks, robust statistics,
// process counters (faults, peak RSS), outcome digests, and the metric /
// failure-tally records every workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// Minor page faults of this process / of another process (-1 when the
// process's stat file cannot be read).
long minor_faults_self();
long minor_faults_of(pid_t pid);
// Peak resident set (VmHWM) in MiB, of this process / of another one.
double peak_rss_mb_self();
double peak_rss_mb_of(pid_t pid);

// Streaming FNV-1a 64 over a sequence of records.
class Digest {
 public:
  void add(std::string_view record);
  std::string hex() const;

 private:
  std::uint64_t state_ = 14695981039346656037ULL;
};

// The outcome as full-detail wire JSON with every timing field zeroed:
// equal strings mean equal outcomes however and wherever they were
// computed (1 lane, N lanes, the daemon, or the result cache).
std::string untimed_outcome_json(jst::analysis::ScriptOutcome outcome);

// Metric name -> (value, unit), emitted in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Failure accounting for one phase of one workload. Every request or
// script the phase attempted lands in exactly one of ok / shed /
// rejected / transport_errors; digest_mismatches counts outputs that
// disagreed with the reference (they are also counted in ok).
struct PhaseTally {
  std::string phase;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;              // kOverloaded / kDraining
  std::uint64_t rejected = 0;          // kInvalidRequest / kNotFound
  std::uint64_t transport_errors = 0;  // lost or unreadable responses
  std::uint64_t digest_mismatches = 0;

  std::uint64_t failed() const {
    return shed + rejected + transport_errors + digest_mismatches;
  }
  std::string json() const;
};

// Everything one workload run reports back to main().
struct Report {
  Metrics end_to_end;
  Metrics per_layer;
  std::deque<PhaseTally> phases;  // stable references for phase()
  std::map<std::string, std::string> digests;  // printed for diagnosis
  std::vector<std::string> errors;             // failed correctness checks
  double setup_s = 0.0;  // process start -> first timed request

  PhaseTally& phase(const std::string& name);
  void fail(const std::string& message) { errors.push_back(message); }
};

// Options shared by every workload (see main.cpp for the flags).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string server_path;
  std::string work_dir;   // per-run scratch directory inside the checkout
  std::string trace_dir;  // where the traced run writes its spans
  std::size_t lanes = 1;  // nproc: width of the multi-lane passes
  Clock::time_point process_start;
};

// Loads the analyzer saved by `jstbench train`.
void load_model(jst::analysis::TransformationAnalyzer& analyzer,
                const std::string& path);

// The benchmark's fixed training scale (the daemon's defaults).
jst::analysis::PipelineOptions training_options();

}  // namespace perfbench
