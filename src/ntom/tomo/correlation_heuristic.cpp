#include "ntom/tomo/correlation_heuristic.hpp"

#include <cmath>

#include "ntom/corr/correlation.hpp"
#include "ntom/tomo/equations.hpp"
#include "ntom/tomo/independence.hpp"

namespace ntom {

std::vector<bitvec> correlation_heuristic_path_sets(
    const topology& t, const correlation_heuristic_params& params) {
  // Equation flood: the Independence family (all singles, then capped
  // intersecting pairs), then intersecting triples until their cap.
  std::vector<bitvec> sets =
      independence_path_sets(t, {params.max_pair_equations});
  std::size_t triples = 0;
  for (path_id p = 0;
       p < t.num_paths() && triples < params.max_triple_equations; ++p) {
    for (path_id q = p + 1;
         q < t.num_paths() && triples < params.max_triple_equations; ++q) {
      if (!t.get_path(p).link_set().intersects(t.get_path(q).link_set())) {
        continue;
      }
      for (path_id s = q + 1;
           s < t.num_paths() && triples < params.max_triple_equations; ++s) {
        if (!t.get_path(s).link_set().intersects(t.get_path(p).link_set()) &&
            !t.get_path(s).link_set().intersects(t.get_path(q).link_set())) {
          continue;
        }
        bitvec triple(t.num_paths());
        triple.set(p);
        triple.set(q);
        triple.set(s);
        sets.push_back(std::move(triple));
        ++triples;
      }
    }
  }
  return sets;
}

correlation_heuristic_result solve_correlation_heuristic(
    const topology& t, const std::vector<bitvec>& path_sets,
    const std::vector<std::size_t>& counts,
    const std::vector<std::size_t>& observed_intervals,
    const bitvec& always_good_paths,
    const correlation_heuristic_params& params) {
  const bitvec potcong = potentially_congested_links(t, always_good_paths);
  subset_catalog catalog = subset_catalog::build(t, potcong, params.limits);
  const equation_builder builder(t, catalog, potcong);
  equation_row_scratch scratch;

  log_system system(catalog.size());
  for (std::size_t i = 0; i < path_sets.size(); ++i) {
    if (builder.row(path_sets[i], scratch)) {
      system.add(scratch.row, counts[i], observed_intervals[i]);
    }
  }

  correlation_heuristic_result result{
      probability_estimates(t, std::move(catalog), potcong)};
  result.equations_used = system.rows();
  if (system.rows() == 0) return result;

  const lstsq_result solution = system.solve();
  result.system_rank = solution.rank;
  for (std::size_t i = 0; i < solution.x.size(); ++i) {
    result.estimates.set_good_probability(i, std::exp(solution.x[i]),
                                          solution.identifiable.test(i));
  }
  return result;
}

}  // namespace ntom
