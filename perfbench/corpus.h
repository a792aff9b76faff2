// Seeded workload inputs built from the §IV population simulators.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class Population : std::uint8_t { kAlexa, kNpm, kDnc, kHynek, kBsi };
inline constexpr std::size_t kPopulationCount = 5;
const char* population_name(Population population);

// Scripts above this size are the heavy tail: no-alnum and packer
// payloads from the malware feeds that take 100-250 ms each.
inline constexpr std::size_t kHeavyBytes = 64 * 1024;

struct Script {
  std::string source;
  Population population = Population::kAlexa;
};

// How many scripts one population contributes, split by the heavy-tail
// threshold. Quotas are fixed by the workload, so every seed yields the
// same number of heavy scripts (stratified sampling): the seed changes
// which scripts, never how much of the mix is tail.
struct Quota {
  Population population;
  std::size_t light = 0;
  std::size_t heavy = 0;
};

// Population draws that threw and were redrawn with the next derived
// seed, since process start (see corpus.cpp).
std::size_t& generator_retries();

// Draws each population's quota from simulate_population in seeded
// chunks and shuffles the union with the same seed.
std::vector<Script> stratified_mix(std::span<const Quota> quotas,
                                   std::uint64_t seed);

// A seeded permutation of [0, count).
std::vector<std::uint32_t> permutation(std::size_t count, std::uint64_t seed);

// Consecutive monthly snapshots of an Alexa + npm crawl. Distinct script
// bodies live once in `pool`; each month lists pool indices, and
// `new_content[m]` counts the distinct bodies month m is the first to
// contain (month 0: all of them).
struct RecrawlChain {
  std::vector<std::string> pool;
  std::vector<Population> pool_population;
  std::vector<std::vector<std::uint32_t>> months;
  std::vector<std::size_t> new_content;
};

RecrawlChain recrawl_chain(std::size_t alexa_scripts, std::size_t npm_scripts,
                           std::size_t month_count, double persistence,
                           std::uint64_t seed);

}  // namespace perfbench
