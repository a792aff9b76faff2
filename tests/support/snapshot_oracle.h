// Test oracle for evolve_snapshot (DESIGN.md §15).
//
// Production draws the churn coins first and simulates only the slots
// they refresh, each from the seed simulate_population would give that
// slot. The evolution here is the full-draw form it replaced, kept
// verbatim: simulate a whole replacement month, then keep slot i of it
// wherever slot i's persistence coin fails. The two must agree string
// for string, since a slot's script depends only on its own seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/wild.h"
#include "support/rng.h"
#include "support/strings.h"

namespace jst::oracle {

inline std::vector<std::string> full_draw_evolve_snapshot(
    const std::vector<std::string>& previous,
    const analysis::PopulationSpec& spec, double persistence,
    std::uint64_t seed) {
  const std::vector<analysis::Sample> fresh =
      analysis::simulate_population(spec, previous.size(), seed);
  Rng churn(seed ^ strings::fnv1a(spec.name) ^ 0x5eedf00dULL);
  std::vector<std::string> next;
  next.reserve(previous.size());
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (churn.bernoulli(persistence)) {
      next.push_back(previous[i]);
    } else {
      next.push_back(fresh[i].source);
    }
  }
  return next;
}

}  // namespace jst::oracle
