#include "ntom/tomo/independence.hpp"

#include <cmath>

#include "ntom/corr/correlation.hpp"
#include "ntom/tomo/equations.hpp"

namespace ntom {

std::vector<bitvec> independence_path_sets(const topology& t,
                                           const independence_params& params) {
  std::vector<bitvec> sets;
  sets.reserve(t.num_paths());
  // Single paths.
  for (path_id p = 0; p < t.num_paths(); ++p) {
    bitvec single(t.num_paths());
    single.set(p);
    sets.push_back(std::move(single));
  }
  // Pairs of intersecting paths, in deterministic order, capped.
  std::size_t pairs = 0;
  for (path_id p = 0; p < t.num_paths() && pairs < params.max_pair_equations;
       ++p) {
    for (path_id q = p + 1;
         q < t.num_paths() && pairs < params.max_pair_equations; ++q) {
      if (!t.get_path(p).link_set().intersects(t.get_path(q).link_set())) {
        continue;
      }
      bitvec pair(t.num_paths());
      pair.set(p);
      pair.set(q);
      sets.push_back(std::move(pair));
      ++pairs;
    }
  }
  return sets;
}

independence_result solve_independence(
    const topology& t, const std::vector<bitvec>& path_sets,
    const std::vector<std::size_t>& counts,
    const std::vector<std::size_t>& observed_intervals,
    const bitvec& always_good_paths) {
  const bitvec potcong = potentially_congested_links(t, always_good_paths);

  // Column map: potentially congested links only (others are good w.p. 1
  // and would only add zero columns).
  std::vector<std::size_t> col_of_link(t.num_links(),
                                       static_cast<std::size_t>(-1));
  std::vector<link_id> link_of_col;
  potcong.for_each([&](std::size_t e) {
    col_of_link[e] = link_of_col.size();
    link_of_col.push_back(static_cast<link_id>(e));
  });
  const std::size_t n = link_of_col.size();

  log_system system(n);
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < path_sets.size(); ++i) {
    bitvec links = t.links_of_paths(path_sets[i]);
    links &= potcong;
    cols.clear();
    links.for_each([&](std::size_t e) { cols.push_back(col_of_link[e]); });
    system.add(cols, counts[i], observed_intervals[i]);
  }

  independence_result result;
  result.links.congestion.assign(t.num_links(), 0.0);
  result.links.estimated = bitvec(t.num_links());
  result.equations_used = system.rows();
  if (system.rows() == 0) return result;

  const lstsq_result solution = system.solve();
  result.system_rank = solution.rank;
  for (std::size_t c = 0; c < n; ++c) {
    const link_id e = link_of_col[c];
    // x_c = log P(X_e = 0); clamp to a valid log-probability.
    result.links.congestion[e] = 1.0 - std::exp(std::min(solution.x[c], 0.0));
    if (solution.identifiable.test(c)) result.links.estimated.set(e);
  }
  return result;
}

}  // namespace ntom
