#include "corpus.h"

#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "analysis/longitudinal.h"
#include "analysis/wild.h"
#include "support/error.h"
#include "support/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t kChunk = 300;
constexpr std::size_t kMaxChunks = 64;

// Some (spec, count, seed) draws make simulate_population throw: a
// generated base script that does not parse, met when a transform
// re-parses it ("unterminated template literal"). Such a draw is skipped
// and the next derived seed is used; the skips are counted and printed,
// so the defect stays visible.
template <typename Draw>
auto draw_with_retries(const char* what, std::uint64_t seed,
                       std::size_t& retries, Draw&& draw) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    try {
      return draw(seed + attempt * 0x632be59bd9b4e019ULL);
    } catch (const jst::ParseError& error) {
      if (attempt == 8) throw;
      ++retries;
      std::fprintf(stderr, "[corpus] %s draw %llu failed (%s); redrawn\n",
                   what, static_cast<unsigned long long>(attempt),
                   error.what());
    }
  }
}

jst::analysis::PopulationSpec spec_of(Population population) {
  switch (population) {
    case Population::kAlexa: return jst::analysis::alexa_spec();
    case Population::kNpm: return jst::analysis::npm_spec();
    case Population::kDnc: return jst::analysis::dnc_spec();
    case Population::kHynek: return jst::analysis::hynek_spec();
    case Population::kBsi: return jst::analysis::bsi_spec();
  }
  return jst::analysis::alexa_spec();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  jst::Rng rng(seed * 0x9e3779b97f4a7c15ULL + a * 0x100000001b3ULL + b);
  return rng.next();
}

}  // namespace

std::size_t& generator_retries() {
  static std::size_t retries = 0;
  return retries;
}

const char* population_name(Population population) {
  switch (population) {
    case Population::kAlexa: return "alexa";
    case Population::kNpm: return "npm";
    case Population::kDnc: return "dnc";
    case Population::kHynek: return "hynek";
    case Population::kBsi: return "bsi";
  }
  return "unknown";
}

std::vector<std::uint32_t> permutation(std::size_t count, std::uint64_t seed) {
  std::vector<std::uint32_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  jst::Rng rng(seed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  return order;
}

std::vector<Script> stratified_mix(std::span<const Quota> quotas,
                                   std::uint64_t seed) {
  std::vector<Script> scripts;
  for (const Quota& quota : quotas) {
    const jst::analysis::PopulationSpec spec = spec_of(quota.population);
    std::size_t light = 0;
    std::size_t heavy = 0;
    for (std::size_t chunk = 0; light < quota.light || heavy < quota.heavy;
         ++chunk) {
      if (chunk == kMaxChunks) {
        throw std::runtime_error(std::string("cannot fill the quota of ") +
                                 population_name(quota.population));
      }
      const auto samples = draw_with_retries(
          population_name(quota.population),
          mix_seed(seed, static_cast<std::uint64_t>(quota.population), chunk),
          generator_retries(), [&](std::uint64_t draw_seed) {
            return jst::analysis::simulate_population(spec, kChunk,
                                                      draw_seed);
          });
      for (const auto& sample : samples) {
        std::size_t& taken =
            sample.source.size() > kHeavyBytes ? heavy : light;
        const std::size_t limit =
            sample.source.size() > kHeavyBytes ? quota.heavy : quota.light;
        if (taken == limit) continue;
        ++taken;
        scripts.push_back({sample.source, quota.population});
      }
    }
  }
  std::vector<Script> shuffled;
  shuffled.reserve(scripts.size());
  for (const std::uint32_t i : permutation(scripts.size(), seed)) {
    shuffled.push_back(std::move(scripts[i]));
  }
  return shuffled;
}

RecrawlChain recrawl_chain(std::size_t alexa_scripts, std::size_t npm_scripts,
                           std::size_t month_count, double persistence,
                           std::uint64_t seed) {
  if (month_count == 0 || month_count > jst::analysis::kMonthCount) {
    throw std::runtime_error("recrawl_chain: month count out of range");
  }
  RecrawlChain chain;
  std::unordered_map<std::string, std::uint32_t> index;
  std::unordered_set<std::uint32_t> seen;

  const auto sources_of = [](const std::vector<jst::analysis::Sample>& s) {
    std::vector<std::string> sources;
    sources.reserve(s.size());
    for (const auto& sample : s) sources.push_back(sample.source);
    return sources;
  };
  std::vector<std::string> alexa = draw_with_retries(
      "alexa month 0", mix_seed(seed, 100, 0), generator_retries(),
      [&](std::uint64_t draw_seed) {
        return sources_of(jst::analysis::simulate_population(
            jst::analysis::alexa_month_spec(0), alexa_scripts, draw_seed));
      });
  std::vector<std::string> npm = draw_with_retries(
      "npm month 0", mix_seed(seed, 101, 0), generator_retries(),
      [&](std::uint64_t draw_seed) {
        return sources_of(jst::analysis::simulate_population(
            jst::analysis::npm_month_spec(0), npm_scripts, draw_seed));
      });

  for (std::size_t month = 0; month < month_count; ++month) {
    if (month > 0) {
      alexa = draw_with_retries(
          "alexa month", mix_seed(seed, 100, month), generator_retries(),
          [&](std::uint64_t draw_seed) {
            return jst::analysis::evolve_snapshot(
                alexa, jst::analysis::alexa_month_spec(month), persistence,
                draw_seed);
          });
      npm = draw_with_retries(
          "npm month", mix_seed(seed, 101, month), generator_retries(),
          [&](std::uint64_t draw_seed) {
            return jst::analysis::evolve_snapshot(
                npm, jst::analysis::npm_month_spec(month), persistence,
                draw_seed);
          });
    }
    std::vector<std::uint32_t> slots;
    slots.reserve(alexa.size() + npm.size());
    std::size_t fresh = 0;
    const auto add = [&](const std::string& source, Population population) {
      auto [it, inserted] = index.try_emplace(
          source, static_cast<std::uint32_t>(chain.pool.size()));
      if (inserted) {
        chain.pool.push_back(source);
        chain.pool_population.push_back(population);
      }
      if (seen.insert(it->second).second) ++fresh;
      slots.push_back(it->second);
    };
    for (const std::string& source : alexa) add(source, Population::kAlexa);
    for (const std::string& source : npm) add(source, Population::kNpm);
    // Interleave the two crawls so a month is one mixed request stream.
    std::vector<std::uint32_t> month_slots;
    month_slots.reserve(slots.size());
    for (const std::uint32_t i :
         permutation(slots.size(), mix_seed(seed, 102, month))) {
      month_slots.push_back(slots[i]);
    }
    chain.months.push_back(std::move(month_slots));
    chain.new_content.push_back(fresh);
  }
  return chain;
}

}  // namespace perfbench
