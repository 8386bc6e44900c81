// Using correlation-subset probabilities to pick failure-disjoint path
// pairs — the application behind Fig. 4(d) ("this can be useful for
// computing 'disjoint' paths to some destination, i.e., paths that are
// not likely to fail at the same time").
//
// Two paths can be link-disjoint yet fail together if their links are
// correlated (share router-level bottlenecks). We rank candidate path
// pairs by the estimated probability that both are congested in the
// same interval, computed from the subset estimates, and compare with
// the naive independence ranking.
//
// Run: ./examples/disjoint_paths [--seed S]
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/sim/truth.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/util/flags.hpp"

namespace {

/// Empirical P(both paths congested in the same interval).
double empirical_joint_failure(const ntom::experiment_data& data,
                               ntom::path_id a, ntom::path_id b) {
  // Both congested in interval t iff neither path was good: count via
  // the columnar store, T minus |good(a) OR good(b)|.
  ntom::bitvec either_good = data.path_good.row_copy(a);
  either_good |= data.path_good.row_copy(b);
  const std::size_t both = data.intervals - either_good.count();
  return static_cast<double>(both) / static_cast<double>(data.intervals);
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 99));

  topogen::brite_params tp;
  tp.seed = seed;
  const topology topo = topogen::generate_brite(tp);

  scenario_params sp;
  sp.seed = seed + 1;
  const congestion_model model =
      make_scenario(topo, "no_independence", sp);

  sim_params sim;
  sim.intervals = 800;
  sim.seed = seed + 2;
  const experiment_data data = run_experiment(topo, model, sim);
  const auto result = compute_correlation_complete(topo, data);

  // Candidate pairs: link-disjoint path pairs (naively "independent").
  struct pair_row {
    path_id a, b;
    double estimated;  // P(some link of a AND some link of b congested),
                       // upper-bounded via shared correlation sets.
    double empirical;
  };
  std::vector<pair_row> rows;
  for (path_id a = 0; a < topo.num_paths() && rows.size() < 400; ++a) {
    for (path_id b = a + 1; b < topo.num_paths() && rows.size() < 400; ++b) {
      if (topo.get_path(a).link_set().intersects(topo.get_path(b).link_set())) {
        continue;  // not link-disjoint; no one would call these disjoint.
      }
      // Correlation-aware failure coupling: the largest estimated joint
      // congestion probability over (link of a, link of b) pairs that
      // sit in the same correlation set.
      double coupling = 0.0;
      for (const link_id ea : topo.get_path(a).links()) {
        for (const link_id eb : topo.get_path(b).links()) {
          if (topo.link(ea).as_number != topo.link(eb).as_number) continue;
          bitvec both(topo.num_links());
          both.set(ea);
          both.set(eb);
          const auto joint = result.estimates.set_congestion(both);
          if (joint) coupling = std::max(coupling, *joint);
        }
      }
      if (coupling == 0.0) continue;  // fully decoupled pair — boring.
      rows.push_back({a, b, coupling, empirical_joint_failure(data, a, b)});
    }
  }

  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.estimated > y.estimated;
  });

  std::printf("Link-disjoint path pairs that still fail together "
              "(top correlated):\n\n");
  std::printf("  %-10s %-10s %-22s %-22s\n", "path A", "path B",
              "est. joint congestion", "empirical joint fail");
  const std::size_t top = std::min<std::size_t>(rows.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("  %-10u %-10u %-22.3f %-22.3f\n", rows[i].a, rows[i].b,
                rows[i].estimated, rows[i].empirical);
  }
  if (rows.empty()) {
    std::printf("  (no coupled link-disjoint pairs on this topology/seed)\n");
  } else {
    std::printf(
        "\nAn operator picking backup paths by link-disjointness alone would\n"
        "accept these pairs; the subset probabilities expose the shared\n"
        "fate. Pairs further down the ranking are the safe choices.\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"seed"}, run);
}
