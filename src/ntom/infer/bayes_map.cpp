#include "ntom/infer/bayes_map.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ntom/corr/joint.hpp"

namespace ntom {

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

bitvec map_independent(const topology& t, const interval_observation& obs,
                       const std::vector<double>& congestion_prob) {
  bitvec solution(t.num_links());

  // Links more likely congested than not are always included: they
  // raise the solution probability regardless of coverage.
  obs.candidate_links.for_each([&](std::size_t e) {
    if (clamp_probability(congestion_prob[e]) > 0.5) solution.set(e);
  });

  bitvec uncovered = obs.congested_paths;
  solution.for_each([&](std::size_t e) {
    uncovered.subtract(t.paths_through(static_cast<link_id>(e)));
  });

  // Greedy weighted set cover: cost of flipping e from good to
  // congested is log((1-p)/p) > 0; maximize coverage per unit cost.
  // The costs depend only on p, so they are computed once per call. As
  // in infer_sparsity, a candidate that covers nothing in one round
  // (a chosen one included) never covers again and leaves the list.
  struct candidate {
    link_id link;
    double cost;
  };
  std::vector<candidate> live;
  obs.candidate_links.for_each([&](std::size_t le) {
    const auto e = static_cast<link_id>(le);
    if (solution.test(e)) return;
    const double p = clamp_probability(congestion_prob[e]);
    const double cost = std::log((1.0 - p) / p);  // > 0 since p <= 0.5.
    live.push_back({e, std::max(cost, 1e-12)});
  });
  while (!uncovered.empty()) {
    link_id best = 0;
    double best_ratio = -1.0;
    std::size_t kept = 0;
    for (const candidate& c : live) {
      const std::size_t cover = t.paths_through(c.link).and_count(uncovered);
      if (cover == 0) continue;
      live[kept++] = c;
      const double ratio = static_cast<double>(cover) / c.cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = c.link;
      }
    }
    live.resize(kept);
    if (best_ratio < 0.0) break;  // leftover paths cannot be explained.
    solution.set(best);
    uncovered.subtract(t.paths_through(best));
  }
  return solution;
}

bitvec map_correlated(const topology& t, const interval_observation& obs,
                      const probability_estimates& estimates,
                      const link_estimates& marginals) {
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
  constexpr std::size_t stale = static_cast<std::size_t>(-1);
  struct move {
    bitvec links;  ///< links to flip congested (within one AS).
    bitvec local;  ///< the same links as a mask over the AS's local index.
    bitvec paths;  ///< paths through any of `links`, computed once.
    as_id as = 0;
    double delta = 0.0;          ///< delta_of(*this) at AS version...
    std::size_t version = stale; ///< ...`version` (stale: never scored).
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
  // of the solution is a candidate: only moves add to it). as_version[a]
  // counts the changes to AS a's part.
  bitvec solution(t.num_links());
  std::vector<bitvec> solution_by_as;
  solution_by_as.reserve(t.num_ases());
  for (const std::vector<link_id>& links : local_links) {
    solution_by_as.emplace_back(links.size());
  }
  std::vector<std::size_t> as_version(t.num_ases(), 0);
  auto apply = [&](const move& m) {
    solution |= m.links;
    solution_by_as[m.as] |= m.local;
    ++as_version[m.as];
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

  // delta_of(m) reads nothing but m and solution_by_as[m.as], so a
  // move's delta is recomputed only when its AS changed since the move
  // was last scored; the cached value is exactly what a recomputation
  // would return.
  auto score = [&](move& m) {
    if (m.version != as_version[m.as]) {
      m.delta = delta_of(m);
      m.version = as_version[m.as];
    }
    return m.delta;
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
      for (move& m : moves) {
        if (is_noop(m)) continue;
        // Small positive threshold: with noisy estimates a spurious
        // hair-positive delta must not flood the solution.
        if (score(m) > 0.1) {
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
  std::vector<move*> live;
  live.reserve(moves.size());
  for (move& m : moves) live.push_back(&m);
  while (!uncovered.empty()) {
    const move* best = nullptr;
    double best_ratio = -1.0;
    std::size_t kept = 0;
    for (move* m : live) {
      if (is_noop(*m)) continue;
      const std::size_t cover = m->paths.and_count(uncovered);
      if (cover == 0) continue;
      live[kept++] = m;
      const double cost = std::max(-score(*m), 1e-12);
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

}  // namespace ntom
