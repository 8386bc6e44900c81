#include "map_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ntom/infer/bayes_map.hpp"

namespace ntom::testing_oracle {

bool explains_observation(const topology& t, const interval_observation& obs,
                          const bitvec& solution) {
  if (!solution.is_subset_of(obs.candidate_links)) return false;
  bool all_covered = true;
  obs.congested_paths.for_each([&](std::size_t p) {
    if (!t.get_path(static_cast<path_id>(p)).link_set().intersects(solution)) {
      all_covered = false;
    }
  });
  return all_covered;
}

bitvec map_exact_independent(const topology& t, const interval_observation& obs,
                             const std::vector<double>& congestion_prob,
                             std::size_t max_candidates) {
  const std::vector<std::size_t> cand = obs.candidate_links.to_indices();
  bitvec best(t.num_links());
  if (cand.size() > max_candidates) return best;

  double best_score = -std::numeric_limits<double>::infinity();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << cand.size());
       ++mask) {
    bitvec sol(t.num_links());
    double score = 0.0;
    for (std::size_t i = 0; i < cand.size(); ++i) {
      const double p = std::clamp(congestion_prob[cand[i]],
                                  map_probability_floor,
                                  1.0 - map_probability_floor);
      if (mask & (std::uint64_t{1} << i)) {
        sol.set(cand[i]);
        score += std::log(p);
      } else {
        score += std::log(1.0 - p);
      }
    }
    if (score > best_score && explains_observation(t, obs, sol)) {
      best_score = score;
      best = sol;
    }
  }
  return best;
}

}  // namespace ntom::testing_oracle
