// jstbench: the benchmark's driver binary, run by perfbench/run.py.
//
//   jstbench train --out MODEL
//       Trains the detectors at the benchmark's fixed scale, saves the
//       model, and prints {"train_s": ...}.
//   jstbench run --workload NAME --seed N --seconds S --trace 0|1
//                --model MODEL --server JSTRACED_SERVER --work-dir DIR
//                --trace-dir DIR --lanes N
//       Runs one workload and prints one JSON line with its metrics,
//       per-phase failure tallies, digests and correctness errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/pipeline.h"
#include "common.h"
#include "corpus.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int train(const std::string& out_path) {
  const Clock::time_point start = Clock::now();
  jst::analysis::TransformationAnalyzer analyzer(training_options());
  analyzer.train();
  std::ofstream out(out_path, std::ios::binary);
  analyzer.save(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "jstbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("{\"train_s\":%.17g}\n", seconds_since(start));
  return 0;
}

int run(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  SpanRecorder spans;
  Report report;
  if (options.workload == "batch_wild_mix") {
    report = run_batch_wild_mix(options, spans);
  } else if (options.workload == "daemon_open_loop") {
    report = run_daemon_open_loop(options, spans);
  } else if (options.workload == "snapshot_recrawl") {
    report = run_snapshot_recrawl(options, spans);
  } else {
    std::fprintf(stderr, "jstbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.trace) zero_fill_per_layer(report);

  std::uint64_t attempted = 0, failed = 0;
  std::string phases = "[";
  for (const PhaseTally& tally : report.phases) {
    attempted += tally.attempted;
    failed += tally.failed();
    if (phases.size() > 1) phases += ",";
    phases += tally.json();
  }
  phases += "]";
  std::string digests = "{";
  for (const auto& [name, digest] : report.digests) {
    if (digests.size() > 1) digests += ",";
    digests += json_string(name) + ":" + json_string(digest);
  }
  digests += "}";
  std::string errors = "[";
  for (const std::string& error : report.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_string(error);
  }
  errors += "]";
  const bool correct = report.errors.empty() && failed == 0;

  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"setup_inproc_s\":%.17g,\"end_to_end\":%s,\"per_layer\":%s,"
      "\"phases\":%s,\"digests\":%s,\"errors\":%s,"
      "\"env\":{\"nproc\":%zu,\"cpu_model\":%s,\"build_type\":%s,"
      "\"generator_retries\":%zu}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), report.setup_s,
      report.end_to_end.json().c_str(), report.per_layer.json().c_str(),
      phases.c_str(), digests.c_str(), errors.c_str(), options.lanes,
      json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), generator_retries());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.process_start = Clock::now();
  if (argc >= 2 && std::strcmp(argv[1], "train") == 0) {
    if (argc == 4 && std::strcmp(argv[2], "--out") == 0) return train(argv[3]);
    std::fprintf(stderr, "usage: jstbench train --out MODEL\n");
    return 2;
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
    std::fprintf(stderr, "usage: jstbench train|run ...\n");
    return 2;
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--model") {
      options.model_path = value;
    } else if (flag == "--server") {
      options.server_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--lanes") {
      options.lanes = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "jstbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || options.model_path.empty() ||
      options.work_dir.empty() || options.trace_dir.empty() ||
      options.lanes == 0 ||
      options.seconds <= 0) {
    std::fprintf(stderr, "jstbench: missing or invalid run flags\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jstbench: %s\n", error.what());
    return 3;
  }
}
