#include "ntom/infer/sparsity.hpp"

#include <vector>

namespace ntom {

bitvec infer_sparsity(const topology& t, const interval_observation& obs) {
  bitvec solution(t.num_links());
  bitvec uncovered = obs.congested_paths;

  // Candidates still able to cover an uncovered path, ascending. The
  // uncovered set only shrinks, so a candidate that covers nothing in
  // one round (a chosen one included) covers nothing later either and
  // leaves the list; the order of the rest is kept.
  std::vector<link_id> live;
  live.reserve(obs.candidate_links.count());
  obs.candidate_links.for_each(
      [&](std::size_t e) { live.push_back(static_cast<link_id>(e)); });

  while (!uncovered.empty()) {
    link_id best = 0;
    std::size_t best_cover = 0;
    std::size_t kept = 0;
    for (const link_id e : live) {
      const std::size_t cover = t.paths_through(e).and_count(uncovered);
      if (cover == 0) continue;
      live[kept++] = e;
      if (cover > best_cover) {  // strict: ties go to the lowest id.
        best_cover = cover;
        best = e;
      }
    }
    live.resize(kept);
    if (best_cover == 0) break;  // remaining paths cannot be explained.
    solution.set(best);
    uncovered.subtract(t.paths_through(best));
  }
  return solution;
}

}  // namespace ntom
