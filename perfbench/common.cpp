#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/wire.h"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

long minor_faults_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

long minor_faults_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return -1;
  // Field 2 (comm) may hold spaces; fields resume after the last ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  // After comm: state(3) ppid pgrp session tty_nr tpgid flags minflt(10).
  for (int index = 3; index <= 10 && fields >> field; ++index) {
    if (index == 10) return std::stol(field);
  }
  return -1;
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb_self() { return vm_hwm_mb("/proc/self/status"); }

double peak_rss_mb_of(pid_t pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

void Digest::add(std::string_view record) {
  for (const char c : record) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ULL;
  }
  state_ ^= '\n';
  state_ *= 1099511628211ULL;
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

std::string untimed_outcome_json(jst::analysis::ScriptOutcome outcome) {
  outcome.timing = jst::analysis::StageTimings{};
  return jst::analysis::wire::script_outcome_json(outcome);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Metrics::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Metrics::json() const {
  std::string out = "{";
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + number + ",\"unit\":\"" + unit +
           "\"}";
  }
  return out + "}";
}

std::string PhaseTally::json() const {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"phase\":\"%s\",\"attempted\":%llu,\"ok\":%llu,"
                "\"shed\":%llu,\"rejected\":%llu,\"transport_errors\":%llu,"
                "\"digest_mismatches\":%llu}",
                phase.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(transport_errors),
                static_cast<unsigned long long>(digest_mismatches));
  return buffer;
}

PhaseTally& Report::phase(const std::string& name) {
  for (PhaseTally& tally : phases) {
    if (tally.phase == name) return tally;
  }
  phases.push_back(PhaseTally{});
  phases.back().phase = name;
  return phases.back();
}

void load_model(jst::analysis::TransformationAnalyzer& analyzer,
                const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open model " + path);
  analyzer.load(in);
}

jst::analysis::PipelineOptions training_options() {
  jst::analysis::PipelineOptions options;
  options.training_regular_count = 100;
  options.per_technique_count = 20;
  return options;
}

}  // namespace perfbench
