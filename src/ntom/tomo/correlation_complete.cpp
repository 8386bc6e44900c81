#include "ntom/tomo/correlation_complete.hpp"

#include <cmath>

#include "ntom/corr/correlation.hpp"

namespace ntom {

correlation_complete_result compute_correlation_complete(
    const topology& t, const experiment_data& data,
    const correlation_complete_params& params) {
  const path_observations obs(data);
  const bitvec potcong =
      potentially_congested_links(t, obs.always_good_paths());
  subset_catalog catalog = subset_catalog::build(t, potcong, params.limits);

  // Algorithm 1, restricted to path sets with a usable measured log
  // (enough all-good observations for a stable estimate).
  const std::size_t min_count = std::max<std::size_t>(params.min_all_good_count, 1);
  const pathset_selection selection = select_path_sets(
      t, catalog, potcong, params.selection,
      [&](const bitvec& pset) { return obs.count_all_good(pset) >= min_count; });

  log_system system(catalog.size());
  for (std::size_t i = 0; i < selection.path_sets.size(); ++i) {
    system.add(selection.rows[i], obs.count_all_good(selection.path_sets[i]),
               obs.intervals());
  }

  correlation_complete_result result{
      probability_estimates(t, std::move(catalog), potcong)};
  result.equations_used = system.rows();
  result.seed_equations = selection.seed_equations;
  result.added_equations = selection.added_equations;
  if (system.rows() == 0) return result;

  const lstsq_result solution = system.solve();
  result.system_rank = solution.rank;

  for (std::size_t i = 0; i < solution.x.size(); ++i) {
    // x_i = log g(E_i); identifiability per the solved system's null
    // space (authoritative over Algorithm 1's incrementally-updated N).
    result.estimates.set_good_probability(i, std::exp(solution.x[i]),
                                          solution.identifiable.test(i));
  }
  return result;
}

}  // namespace ntom
