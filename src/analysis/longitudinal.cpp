#include "analysis/longitudinal.h"

#include <algorithm>
#include <cstdio>

#include "support/strings.h"
#include "support/thread_pool.h"

namespace jst::analysis {
namespace {

using transform::Technique;

double lerp(double a, double b, double t) { return a + (b - a) * t; }

}  // namespace

std::string month_label(std::size_t month_index) {
  const std::size_t absolute = 2015 * 12 + 4 + month_index;  // 2015-05
  const std::size_t year = absolute / 12;
  const std::size_t month = absolute % 12 + 1;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04zu-%02zu", year, month);
  return buf;
}

PopulationSpec alexa_month_spec(std::size_t month_index) {
  const double t =
      static_cast<double>(month_index) / static_cast<double>(kMonthCount - 1);
  PopulationSpec spec = alexa_spec();
  spec.name = "Alexa Top 2k " + month_label(month_index);
  // Figure 6: steady rise of the transformed share (Top 2k).
  spec.transformed_rate = lerp(0.56, 0.70, t);
  // Figure 7 drifts.
  const double simple = lerp(0.3874, 0.4702, t);
  const double advanced = lerp(0.4377, 0.40, t);
  const double id_obf = lerp(0.0823, 0.0621, t);
  const double other = std::max(1.0 - simple - advanced - id_obf, 0.02);
  spec.configs = {
      {{Technique::kMinificationSimple}, simple},
      {{Technique::kMinificationAdvanced}, advanced},
      {{Technique::kMinificationSimple, Technique::kIdentifierObfuscation},
       id_obf},
      {{Technique::kStringObfuscation, Technique::kMinificationSimple},
       other * 0.5},
      {{Technique::kGlobalArray, Technique::kIdentifierObfuscation},
       other * 0.25},
      {{Technique::kDeadCodeInjection, Technique::kMinificationSimple},
       other * 0.25},
  };
  return spec;
}

PopulationSpec npm_month_spec(std::size_t month_index) {
  PopulationSpec spec = npm_spec();
  spec.name = "npm Top 2k " + month_label(month_index);
  // Deterministic per-month jitter standing in for package churn.
  Rng jitter(0x6e706dULL * 1315423911ULL + month_index);
  double base_rate = 0.0;
  double relative_noise = 0.0;
  if (month_index < 12) {
    base_rate = 0.074;       // 2015-05 .. 2016-04
    relative_noise = 0.2422;  // only ~76.7% of packages persist month-on-month
  } else if (month_index < 49) {
    base_rate = 0.1795;      // 2016-05 .. 2019-05
    relative_noise = 0.059;   // ~93% common packages
  } else {
    base_rate = 0.1517;      // 2019-06 .. 2020-09
    relative_noise = 0.08;    // 87.48% common packages
  }
  const double noisy =
      base_rate * (1.0 + relative_noise * jitter.normal(0.0, 1.0));
  spec.transformed_rate = std::clamp(noisy, 0.01, 0.5);
  // Figure 8: mix roughly constant (58.62 / 34.28 / 9.71).
  spec.configs = {
      {{Technique::kMinificationSimple}, 0.5862},
      {{Technique::kMinificationAdvanced}, 0.3428},
      {{Technique::kMinificationSimple, Technique::kIdentifierObfuscation},
       0.0971 * 0.7},
      {{Technique::kIdentifierObfuscation}, 0.0971 * 0.3},
      {{Technique::kStringObfuscation, Technique::kMinificationSimple}, 0.02},
  };
  return spec;
}

PopulationSpec malware_month_spec(const PopulationSpec& base,
                                  std::size_t month_index) {
  PopulationSpec spec = base;
  spec.name = base.name + " " + month_label(month_index);
  Rng wave(strings::fnv1a(base.name) ^ (month_index * 0x9e3779b9ULL));
  // A monthly wave: the transformed rate swings, and one configuration
  // dominates (syntactically identical instances broadcast per victim).
  spec.transformed_rate =
      std::clamp(base.transformed_rate * wave.uniform(0.55, 1.35), 0.05, 0.98);
  if (!spec.configs.empty()) {
    const std::size_t dominant = wave.index(spec.configs.size());
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
      spec.configs[i].weight *= wave.uniform(0.4, 1.2);
    }
    spec.configs[dominant].weight += wave.uniform(1.0, 2.5);
  }
  return spec;
}

std::vector<std::string> evolve_snapshot(
    const std::vector<std::string>& previous, const PopulationSpec& spec,
    double persistence, std::uint64_t seed) {
  // The churn coins come first; only the slots they refresh are then
  // simulated, each from the seed simulate_population(spec,
  // previous.size(), seed) gives that slot. So slot i's refresh script
  // does not depend on which other slots persisted — the diff between two
  // persistence values touches only the slots whose coin flip changed.
  Rng churn(seed ^ strings::fnv1a(spec.name) ^ 0x5eedf00dULL);
  std::vector<std::size_t> refreshed;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (!churn.bernoulli(persistence)) refreshed.push_back(i);
  }
  const std::vector<std::uint64_t> seeds =
      population_seeds(previous.size(), seed);
  std::vector<Sample> fresh(refreshed.size());
  support::run_parallel(0, refreshed.size(), [&](std::size_t k) {
    fresh[k] = simulate_script(spec, seeds[refreshed[k]]);
  });

  std::vector<std::string> next;
  next.reserve(previous.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    // Copies, so every string is exactly sized.
    if (k < refreshed.size() && refreshed[k] == i) {
      next.push_back(fresh[k++].source);
    } else {
      next.push_back(previous[i]);
    }
  }
  return next;
}

}  // namespace jst::analysis
