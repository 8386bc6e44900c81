#include "map_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>

#include "ntom/corr/joint.hpp"
#include "ntom/infer/bayes_map.hpp"

namespace ntom::testing_oracle {

namespace {

double clamp_probability(double p) {
  return std::clamp(p, map_probability_floor, 1.0 - map_probability_floor);
}

/// log P of one correlation set's state under correlation-aware scoring:
/// S_a congested, (cand_a \ S_a) good. nullopt if the joint estimates
/// cannot express it (not identifiable / catalog miss / too large).
std::optional<double> as_state_log_probability(
    const probability_estimates& est, const bitvec& congested,
    const bitvec& good_candidates) {
  // Inclusion-exclusion is exponential in |congested|; stay small.
  if (congested.count() > 12) return std::nullopt;
  const auto p = exact_state_probability(
      congested, good_candidates,
      [&](const bitvec& b) { return est.subset_good(b); });
  if (!p) return std::nullopt;
  return std::log(clamp_probability(*p));
}

}  // namespace

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

bitvec map_correlated(const topology& t, const interval_observation& obs,
                      const probability_estimates& estimates,
                      const link_estimates& marginals, std::size_t* fallbacks) {
  // Per-AS candidate sets, over the link universe and as an ascending
  // list: a candidate's position in its AS's list is its local index,
  // so an AS's part of a state is a mask over a few bits, not over
  // every link. Local order is global order within an AS.
  std::vector<bitvec> cand_by_as(t.num_ases(), bitvec(t.num_links()));
  std::vector<std::vector<link_id>> local_links(t.num_ases());
  std::vector<std::size_t> local_index(t.num_links());
  obs.candidate_links.for_each([&](std::size_t e) {
    const as_id a = t.link(static_cast<link_id>(e)).as_number;
    cand_by_as[a].set(e);
    local_index[e] = local_links[a].size();
    local_links[a].push_back(static_cast<link_id>(e));
  });

  // Candidate moves: single links, plus whole correlation subsets of
  // candidate links. Group moves are essential: for a strongly
  // correlated pair, flipping one member alone can have probability ~0
  // while flipping the pair together is cheap (the paper's {e2,e3}).
  struct move {
    bitvec links;  ///< links to flip congested (within one AS).
    bitvec local;  ///< the same links as a mask over the AS's local index.
    bitvec paths;  ///< paths through any of `links`, computed once.
    as_id as = 0;
  };
  auto local_mask = [&](as_id a, const bitvec& links) {
    bitvec local(local_links[a].size());
    links.for_each([&](std::size_t e) { local.set(local_index[e]); });
    return local;
  };
  std::vector<move> moves;
  obs.candidate_links.for_each([&](std::size_t le) {
    const auto e = static_cast<link_id>(le);
    const as_id a = t.link(e).as_number;
    bitvec single(t.num_links());
    single.set(e);
    bitvec local = local_mask(a, single);
    moves.push_back({std::move(single), std::move(local), t.paths_through(e),
                     a});
  });
  const subset_catalog& catalog = estimates.catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const bitvec& subset = catalog.subset(i);
    const as_id a = catalog.subset_as(i);
    if (subset.count() < 2) continue;
    if (!subset.is_subset_of(cand_by_as[a])) continue;
    moves.push_back({subset, local_mask(a, subset), t.paths_of_links(subset),
                     a});
  }

  // The solution, and its part in each AS as a local mask (every link
  // of the solution is a candidate: only moves add to it).
  bitvec solution(t.num_links());
  std::vector<bitvec> solution_by_as;
  solution_by_as.reserve(t.num_ases());
  for (const std::vector<link_id>& links : local_links) {
    solution_by_as.emplace_back(links.size());
  }
  auto apply = [&](const move& m) {
    solution |= m.links;
    solution_by_as[m.as] |= m.local;
  };

  // State log-probabilities of this interval, keyed by (AS, local mask
  // of the congested set): the AS's good set is its candidates minus
  // the congested ones. as_state_log_probability is a pure function of
  // the estimates, so a hit returns exactly what a recomputation would.
  std::vector<std::unordered_map<bitvec, std::optional<double>, bitvec_hash>>
      memo(t.num_ases());
  auto state_log_probability = [&](as_id a, const bitvec& local) {
    auto [it, inserted] = memo[a].try_emplace(local);
    if (inserted) {
      bitvec congested(t.num_links());
      local.for_each(
          [&](std::size_t i) { congested.set(local_links[a][i]); });
      bitvec good = cand_by_as[a];
      good.subtract(congested);
      it->second = as_state_log_probability(estimates, congested, good);
    }
    return it->second;
  };

  // Score delta of flipping `m.links` to congested, evaluated within
  // the move's correlation set only (other sets are unaffected —
  // independence across sets). The after-state reuses scratch storage.
  bitvec congested_after;
  auto delta_of = [&](const move& m) -> double {
    const bitvec& congested_before = solution_by_as[m.as];
    congested_after = congested_before;
    congested_after |= m.local;
    if (congested_after == congested_before) return 0.0;  // no-op.

    const auto before = state_log_probability(m.as, congested_before);
    const auto after = state_log_probability(m.as, congested_after);
    if (before && after) return *after - *before;
    if (fallbacks != nullptr) ++*fallbacks;

    // Fallback: marginal scoring for the newly flipped links. A link
    // whose probability is itself a fallback guess (not estimated by
    // the system) is capped at 1/2 so it can never flip "for free" —
    // it may still be chosen when needed to cover a congested path.
    double delta = 0.0;
    m.local.for_each([&](std::size_t i) {
      if (congested_before.test(i)) return;  // already congested.
      const link_id e = local_links[m.as][i];
      double p = clamp_probability(marginals.congestion[e]);
      if (!marginals.estimated.test(e)) p = std::min(p, 0.5);
      delta += std::log(p) - std::log(1.0 - p);
    });
    return delta;
  };

  auto is_noop = [&](const move& m) {
    return m.local.is_subset_of(solution_by_as[m.as]);
  };

  // Phase 1: moves that increase the probability by themselves (e.g.
  // completing a strongly correlated group). Iterate to a fixpoint.
  auto absorb_positive_moves = [&](bitvec* uncovered) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const move& m : moves) {
        if (is_noop(m)) continue;
        // Small positive threshold: with noisy estimates a spurious
        // hair-positive delta must not flood the solution.
        if (delta_of(m) > 0.1) {
          apply(m);
          if (uncovered) uncovered->subtract(m.paths);
          changed = true;
        }
      }
    }
  };
  absorb_positive_moves(nullptr);

  bitvec uncovered = obs.congested_paths;
  solution.for_each([&](std::size_t e) {
    uncovered.subtract(t.paths_through(static_cast<link_id>(e)));
  });

  // Phase 2: cover the remaining congested paths, cheapest (in log-
  // probability loss) coverage per covered path first. The solution
  // only grows and the uncovered set only shrinks, so a move that is a
  // no-op or covers nothing stays so and leaves the live list.
  std::vector<const move*> live;
  live.reserve(moves.size());
  for (const move& m : moves) live.push_back(&m);
  while (!uncovered.empty()) {
    const move* best = nullptr;
    double best_ratio = -1.0;
    std::size_t kept = 0;
    for (const move* m : live) {
      if (is_noop(*m)) continue;
      const std::size_t cover = m->paths.and_count(uncovered);
      if (cover == 0) continue;
      live[kept++] = m;
      const double cost = std::max(-delta_of(*m), 1e-12);
      const double ratio = static_cast<double>(cover) / cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = m;
      }
    }
    live.resize(kept);
    if (best == nullptr) break;  // leftover paths cannot be explained.
    apply(*best);
    uncovered.subtract(best->paths);
    // A flipped group may make further moves free.
    absorb_positive_moves(&uncovered);
  }
  return solution;
}

}  // namespace ntom::testing_oracle
