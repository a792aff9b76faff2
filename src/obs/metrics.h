// Dependency-free observability: a process-wide metrics registry.
//
// Three instrument kinds, each safe for concurrent recording from any
// number of threads:
//  - Counter: monotonic 64-bit total (relaxed atomic add);
//  - Gauge: a settable level with add/sub, for queue depths and widths;
//  - Histogram: fixed log-spaced buckets (milliseconds by convention)
//    with atomic per-bucket counts; p50/p95/p99 are extracted by linear
//    interpolation inside the owning bucket, clamped to the observed max.
//
// Telemetry is observational only: recording never takes a lock, never
// allocates after the instrument exists, and never feeds back into
// analysis outcomes — batch results stay bit-identical whether or not
// anything reads the registry. This module sits *below* jst_support
// (the thread pool reports into it), so it depends on nothing but the
// standard library.
//
// Naming scheme (see DESIGN.md §9): `jst_<area>_<quantity>[_<unit>]`,
// with `_total` for counters and `_ms` for millisecond histograms, e.g.
// `jst_batch_scripts_total`, `jst_pool_queue_depth`, `jst_script_total_ms`.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace jst::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void sub(double delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Bucket layouts for histograms. kLatencyMs is the default: log-spaced
// from 10 µs to 10 s (in ms), covering everything from a single lexer
// pass to a full forest training run. kUnit is linear over [0, 1] for
// classifier confidence scores, where log-ms bounds would dump every
// observation into two buckets.
enum class HistogramLayout { kLatencyMs, kUnit };

// Fixed-bucket histogram (bounds chosen by layout, +Inf overflow last).
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 20;
  // Upper bound (inclusive) of each bucket; the last is +Inf.
  static const std::array<double, kBucketCount>& layout_bounds(
      HistogramLayout layout);

  explicit Histogram(HistogramLayout layout = HistogramLayout::kLatencyMs)
      : layout_(layout) {}

  HistogramLayout layout() const { return layout_; }
  const std::array<double, kBucketCount>& bounds() const {
    return layout_bounds(layout_);
  }

  void record(double value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Percentile estimate (p in [0, 100]) from the bucket counts: linear
  // interpolation within the bucket holding the target rank, clamped to
  // the observed max. Monotone in p by construction (p50 ≤ p95 ≤ p99).
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }

  void reset();

 private:
  HistogramLayout layout_;
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// Shared percentile rule (p in [0, 100]): linear interpolation within the
// bucket holding the target rank, clamped to `observed_max`. Used by the
// cumulative Histogram above and by the sliding-window snapshots in
// window.h, so windowed and since-boot percentiles are always comparable.
double percentile_from_buckets(
    const std::array<double, Histogram::kBucketCount>& bounds,
    const std::array<std::uint64_t, Histogram::kBucketCount>& buckets,
    std::uint64_t total, double observed_max, double p);

// Thread-safe name → instrument registry. Registration takes a mutex once
// per instrument; recording through the returned reference is lock-free.
// References stay valid for the registry's lifetime (instruments are
// never removed; reset() zeroes them in place).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `layout` is honored on first registration; later lookups of the same
  // name return the existing instrument regardless of the layout asked.
  Histogram& histogram(std::string_view name,
                       HistogramLayout layout = HistogramLayout::kLatencyMs);

  // Attaches a `# HELP` line to a metric for the Prometheus exposition.
  // Metrics without explicit help get a generated placeholder, so every
  // exported family is HELP+TYPE conformant either way.
  void set_help(std::string_view name, std::string_view help);

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  // p50,p95,p99,buckets:[[le,count],...]}}} — one self-contained document.
  std::string to_json() const;
  // Prometheus text exposition format: `# HELP` + `# TYPE` per family
  // (counter / gauge / histogram), histograms as cumulative
  // `_bucket{le="..."}` series plus `_sum` / `_count`.
  std::string to_prometheus() const;

  // Zeroes every registered instrument (references stay valid). Used by
  // tests and by batch drivers that want per-run snapshots.
  void reset();

  // Process-wide registry. Intentionally leaked so instruments outlive
  // static-destruction-time work (e.g. the global thread pool draining).
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace jst::obs
