#include "ntom/infer/bayes_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "ntom/corr/joint.hpp"
#include "ntom/util/intern_table.hpp"

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

namespace {

constexpr std::size_t stale = static_cast<std::size_t>(-1);

/// One candidate move: flip `local` (a mask over AS `as`'s links)
/// congested. Both masks point into the tables.
struct move {
  const bitvec* local;
  const bitvec* paths;  ///< paths through any of the move's links.
  as_id as;
  double delta;         ///< delta_of(*this) at AS version...
  std::size_t version;  ///< ...`version` (stale: never scored).
};

}  // namespace

struct map_correlated_tables::impl {
  impl(const topology& t, const probability_estimates& est,
       const link_estimates& marg)
      : topo(t), estimates(est), marginals(marg) {}

  const topology& topo;
  const probability_estimates& estimates;
  const link_estimates& marginals;

  // AS-local coordinates: as_links[a] lists AS a's links ascending, and
  // link e is bit local_index[e] of its AS's masks. single[e] is the
  // mask of e alone.
  std::vector<std::vector<link_id>> as_links;
  std::vector<std::size_t> local_index;
  std::vector<bitvec> single;

  /// Catalog subsets of two or more links, in catalog order.
  struct group {
    as_id as;
    bitvec local;
    bitvec paths;
  };
  std::vector<group> groups;

  // AS states keyed by [AS, candidate mask words, congested mask words]
  // (state_key is the scratch the key is built in), and each state's
  // log-probability (nullopt: the joint estimates cannot express it).
  intern_table states;
  std::vector<std::optional<double>> state_value;
  std::vector<std::uint64_t> state_key;
  std::size_t lookups = 0;
  std::size_t evaluations = 0;

  // Per-call scratch.
  std::vector<bitvec> candidates;  ///< per AS, local.
  std::vector<bitvec> part;        ///< the solution's part per AS, local.
  std::vector<std::size_t> as_version;
  std::vector<move> moves;
  std::vector<move*> live;
  bitvec congested_after;
  bitvec uncovered;
  bitvec congested_links;  ///< a state's sets over the link universe,
  bitvec good_links;       ///< built only to evaluate a new state.

  /// log P of AS a's state with `congested` (local) congested and its
  /// other candidates good, from the table or computed and stored.
  std::optional<double> state_log_probability(as_id a,
                                              const bitvec& congested) {
    ++lookups;
    const bitvec& cand = candidates[a];
    const std::size_t n = cand.num_words();
    state_key.resize(1 + 2 * n);
    state_key[0] = a;
    for (std::size_t w = 0; w < n; ++w) {
      state_key[1 + w] = cand.word(w);
      state_key[1 + n + w] = congested.word(w);
    }
    if (const std::size_t id = states.find(state_key);
        id != intern_table::npos) {
      return state_value[id];
    }
    ++evaluations;
    congested_links.clear();
    good_links.clear();
    cand.for_each([&](std::size_t i) {
      (congested.test(i) ? congested_links : good_links)
          .set(as_links[a][i]);
    });
    const auto value =
        as_state_log_probability(estimates, congested_links, good_links);
    if (states.size() == max_states) {
      states.clear();
      state_value.clear();
    }
    states.find_or_insert(state_key);
    state_value.push_back(value);
    return value;
  }
};

map_correlated_tables::map_correlated_tables(
    const topology& t, const probability_estimates& estimates,
    const link_estimates& marginals)
    : impl_(std::make_unique<impl>(t, estimates, marginals)) {
  impl& m = *impl_;
  m.as_links.resize(t.num_ases());
  m.local_index.resize(t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) {
    std::vector<link_id>& links = m.as_links[t.link(e).as_number];
    m.local_index[e] = links.size();
    links.push_back(e);
  }
  auto local_mask = [&](as_id a, const bitvec& links) {
    bitvec local(m.as_links[a].size());
    links.for_each([&](std::size_t e) { local.set(m.local_index[e]); });
    return local;
  };
  m.single.reserve(t.num_links());
  for (link_id e = 0; e < t.num_links(); ++e) {
    m.single.emplace_back(m.as_links[t.link(e).as_number].size());
    m.single.back().set(m.local_index[e]);
  }
  const subset_catalog& catalog = estimates.catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const bitvec& subset = catalog.subset(i);
    if (subset.count() < 2) continue;
    const as_id a = catalog.subset_as(i);
    m.groups.push_back({a, local_mask(a, subset), t.paths_of_links(subset)});
  }

  for (const std::vector<link_id>& links : m.as_links) {
    m.candidates.emplace_back(links.size());
    m.part.emplace_back(links.size());
  }
  m.as_version.resize(t.num_ases());
  m.uncovered = bitvec(t.num_paths());
  m.congested_links = bitvec(t.num_links());
  m.good_links = bitvec(t.num_links());
}

map_correlated_tables::~map_correlated_tables() = default;

std::size_t map_correlated_tables::state_lookups() const noexcept {
  return impl_->lookups;
}

std::size_t map_correlated_tables::state_evaluations() const noexcept {
  return impl_->evaluations;
}

void map_correlated(const interval_observation& obs,
                    map_correlated_tables& tables, bitvec& solution) {
  map_correlated_tables::impl& m = *tables.impl_;
  const topology& t = m.topo;

  // Per-AS candidate sets as masks over the AS's links (an AS's part of
  // a state is such a mask too, a few bits rather than every link), and
  // the candidate moves: single links, plus whole correlation subsets of
  // candidate links. Group moves are essential: for a strongly
  // correlated pair, flipping one member alone can have probability ~0
  // while flipping the pair together is cheap (the paper's {e2,e3}).
  for (bitvec& c : m.candidates) c.clear();
  m.moves.clear();
  obs.candidate_links.for_each([&](std::size_t le) {
    const auto e = static_cast<link_id>(le);
    const as_id a = t.link(e).as_number;
    m.candidates[a].set(m.local_index[e]);
    m.moves.push_back({&m.single[e], &t.paths_through(e), a, 0.0, stale});
  });
  for (const auto& g : m.groups) {
    if (!g.local.is_subset_of(m.candidates[g.as])) continue;
    m.moves.push_back({&g.local, &g.paths, g.as, 0.0, stale});
  }

  // The solution's part in each AS (every link of the solution is a
  // candidate: only moves add to it). as_version[a] counts the changes
  // to AS a's part.
  for (bitvec& p : m.part) p.clear();
  std::fill(m.as_version.begin(), m.as_version.end(), 0);
  auto apply = [&](const move& mv) {
    m.part[mv.as] |= *mv.local;
    ++m.as_version[mv.as];
  };

  // Score delta of flipping the move's links to congested, evaluated
  // within the move's correlation set only (other sets are unaffected —
  // independence across sets).
  auto delta_of = [&](const move& mv) -> double {
    const bitvec& congested_before = m.part[mv.as];
    m.congested_after = congested_before;
    m.congested_after |= *mv.local;
    if (m.congested_after == congested_before) return 0.0;  // no-op.

    const auto before = m.state_log_probability(mv.as, congested_before);
    const auto after = m.state_log_probability(mv.as, m.congested_after);
    if (before && after) return *after - *before;

    // Fallback: marginal scoring for the newly flipped links. A link
    // whose probability is itself a fallback guess (not estimated by
    // the system) is capped at 1/2 so it can never flip "for free" —
    // it may still be chosen when needed to cover a congested path.
    double delta = 0.0;
    mv.local->for_each([&](std::size_t i) {
      if (congested_before.test(i)) return;  // already congested.
      const link_id e = m.as_links[mv.as][i];
      double p = clamp_probability(m.marginals.congestion[e]);
      if (!m.marginals.estimated.test(e)) p = std::min(p, 0.5);
      delta += std::log(p) - std::log(1.0 - p);
    });
    return delta;
  };

  // delta_of(mv) reads nothing but mv and AS mv.as's part, so a move's
  // delta is recomputed only when its AS changed since the move was
  // last scored; the cached value is exactly what a recomputation
  // would return.
  auto score = [&](move& mv) {
    if (mv.version != m.as_version[mv.as]) {
      mv.delta = delta_of(mv);
      mv.version = m.as_version[mv.as];
    }
    return mv.delta;
  };

  auto is_noop = [&](const move& mv) {
    return mv.local->is_subset_of(m.part[mv.as]);
  };

  // Phase 1: moves that increase the probability by themselves (e.g.
  // completing a strongly correlated group). Iterate to a fixpoint.
  auto absorb_positive_moves = [&](bitvec* uncovered) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (move& mv : m.moves) {
        if (is_noop(mv)) continue;
        // Small positive threshold: with noisy estimates a spurious
        // hair-positive delta must not flood the solution.
        if (score(mv) > 0.1) {
          apply(mv);
          if (uncovered) uncovered->subtract(*mv.paths);
          changed = true;
        }
      }
    }
  };
  absorb_positive_moves(nullptr);

  bitvec& uncovered = m.uncovered;
  uncovered = obs.congested_paths;
  for (as_id a = 0; a < t.num_ases(); ++a) {
    m.part[a].for_each([&](std::size_t i) {
      uncovered.subtract(t.paths_through(m.as_links[a][i]));
    });
  }

  // Phase 2: cover the remaining congested paths, cheapest (in log-
  // probability loss) coverage per covered path first. The solution
  // only grows and the uncovered set only shrinks, so a move that is a
  // no-op or covers nothing stays so and leaves the live list.
  m.live.clear();
  for (move& mv : m.moves) m.live.push_back(&mv);
  while (!uncovered.empty()) {
    const move* best = nullptr;
    double best_ratio = -1.0;
    std::size_t kept = 0;
    for (move* mv : m.live) {
      if (is_noop(*mv)) continue;
      const std::size_t cover = mv->paths->and_count(uncovered);
      if (cover == 0) continue;
      m.live[kept++] = mv;
      const double cost = std::max(-score(*mv), 1e-12);
      const double ratio = static_cast<double>(cover) / cost;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = mv;
      }
    }
    m.live.resize(kept);
    if (best == nullptr) break;  // leftover paths cannot be explained.
    apply(*best);
    uncovered.subtract(*best->paths);
    // A flipped group may make further moves free.
    absorb_positive_moves(&uncovered);
  }

  if (solution.size() == t.num_links()) {
    solution.clear();
  } else {
    solution = bitvec(t.num_links());
  }
  for (as_id a = 0; a < t.num_ases(); ++a) {
    m.part[a].for_each(
        [&](std::size_t i) { solution.set(m.as_links[a][i]); });
  }
}

}  // namespace ntom
