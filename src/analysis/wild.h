// "In the wild" population simulators (§IV).
//
// We cannot ship the paper's crawled corpora (Alexa Top 10k scripts, npm
// Top 10k packages, DNC/Hynek/BSI malware feeds), so each population is
// modeled by (a) a base-script flavor, (b) a script-level transformed
// rate, and (c) a weighted mix of tool configurations — all parameterized
// from the statistics the paper reports. Running the detectors over a
// simulated population therefore exercises the full measurement pipeline
// and reproduces the shape of every §IV figure.
#pragma once

#include <string>
#include <vector>

#include "analysis/dataset.h"

namespace jst::analysis {

struct ConfigWeight {
  std::vector<transform::Technique> techniques;
  double weight = 1.0;
};

struct PopulationSpec {
  std::string name;
  // Probability that a script is transformed at all.
  double transformed_rate = 0.5;
  // Tool-configuration mix among transformed scripts.
  std::vector<ConfigWeight> configs;
  // Base-script flavor: 0 generic, 1 browser, 2 node.
  int flavor = 0;
  // Malware-flavored bases (loader motifs: eval, ActiveX, long payload
  // strings, document.write(unescape(...))).
  bool malware = false;
  // Scripts whose *first part* is regular and second part transformed
  // (the paper observes this for Alexa; npm files are fully transformed).
  double partial_transform_rate = 0.0;
};

// Populations as measured in September 2020 (§IV-B) and 2015-2017 (§IV-C).
PopulationSpec alexa_spec();
PopulationSpec npm_spec();
PopulationSpec dnc_spec();
PopulationSpec hynek_spec();
PopulationSpec bsi_spec();

// Generates one population sample set: slot i is
// simulate_script(spec, population_seeds(script_count, seed)[i]).
std::vector<Sample> simulate_population(const PopulationSpec& spec,
                                        std::size_t script_count,
                                        std::uint64_t seed);

// The per-slot seeds of simulate_population: the first `script_count`
// draws of Rng(seed), one per slot, in slot order.
std::vector<std::uint64_t> population_seeds(std::size_t script_count,
                                            std::uint64_t seed);

// One population script, built from its slot seed alone, so a caller that
// keeps only some slots of a population (evolve_snapshot's refreshed
// slots) builds just those.
Sample simulate_script(const PopulationSpec& spec, std::uint64_t script_seed);

// Rank effect (§IV-B1): Alexa-style populations get more transformed with
// popularity. Returns the spec for a given rank bucket (0 = Top 1k).
PopulationSpec alexa_rank_bucket_spec(std::size_t bucket_index);
// npm buckets: Top-1k packages are *less* likely to be transformed
// (§IV-B2, factor 2.4-4.4x) and balance basic/advanced minification.
PopulationSpec npm_rank_bucket_spec(std::size_t bucket_index);

// Malware-flavored base script generator (exposed for tests).
std::string generate_malware_base(Rng& rng);

}  // namespace jst::analysis
