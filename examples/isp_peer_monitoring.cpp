// The paper's motivating scenario (§1): a Tier-1 "source ISP" monitors
// the congestion behaviour of its peers from end-to-end measurements
// only.
//
// We build a Sparse (traceroute-style) topology, drive a diurnal
// congestion pattern (quiet nights, busy days — a non-stationary
// workload), run Probability Computation, and print the report an
// operator would actually read: per peer AS, how frequently its links
// are congested, ranked. No per-interval Boolean inference is needed
// for any of this — the paper's point.
//
// Run: ./examples/isp_peer_monitoring [--intervals N] [--seed S]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "ntom/corr/correlation.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/sim/truth.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/topogen/sparse.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/rng.hpp"

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 2024));
  // This example focuses on the monitoring workflow; assume an accurate
  // per-interval path classifier (the fig3/fig4 benches exercise the
  // probing-noise regime).
  run_config base;
  base.sim.intervals = 480;
  base.sim.seed = seed + 2;
  base.sim.oracle_monitor = true;
  const sim_params sim = run_config_from_flags(opts, base).sim;
  const std::size_t intervals = sim.intervals;

  // The monitored view: traceroute-derived sparse topology.
  topogen::sparse_params tp;
  tp.seed = seed;
  const topology topo = topogen::generate_sparse(tp);
  std::printf("Monitored view: %s\n", topo.describe().c_str());

  // Diurnal load: a No-Independence base (links inside a peer share
  // router-level bottlenecks) whose probabilities scale through a
  // day/night cycle. 24 phases of intervals = "hours".
  scenario_params sp;
  sp.seed = seed + 1;
  sp.nonstationary = true;
  sp.phase_length = std::max<std::size_t>(intervals / 24, 1);
  sp.num_phases = 24;
  congestion_model model =
      make_scenario(topo, "no_independence", sp);
  // Diurnal shape: quiet nights, busy evenings — with a per-bottleneck
  // phase offset (peers sit in different timezones / peak at different
  // hours). A single global load factor would co-modulate all peers
  // and violate the cross-AS independence of Assumption 5; offsets
  // keep the correlation sets honest.
  const auto diurnal = [](std::size_t hour) {
    hour %= 24;
    return hour < 7 ? 0.2 : (hour >= 18 && hour < 23 ? 1.2 : 0.7);
  };
  for (std::size_t hour = 0; hour < model.phase_q.size(); ++hour) {
    for (std::size_t r = 0; r < model.phase_q[hour].size(); ++r) {
      auto& q = model.phase_q[hour][r];
      if (q <= 0.0) continue;
      std::uint64_t h = r;
      const std::size_t offset = splitmix64(h) % 24;
      q = std::min(q * diurnal(hour + offset), 1.0);
    }
  }

  const experiment_data data = run_experiment(topo, model, sim);

  // Probability Computation (Correlation-complete).
  const auto result = compute_correlation_complete(topo, data);
  const link_estimates links = result.estimates.to_link_estimates();
  const ground_truth truth(topo, model, intervals);

  // Operator report: per peer AS, the mean and worst estimated link
  // congestion probability. AS 0 is the source ISP itself.
  struct peer_row {
    as_id peer;
    double mean_congestion = 0.0;
    double worst_congestion = 0.0;  ///< over identifiable estimates only.
    std::size_t monitored_links = 0;
    std::size_t estimated_links = 0;
  };
  std::vector<peer_row> report;
  for (as_id a = 1; a < topo.num_ases(); ++a) {
    peer_row row{a, 0.0, 0.0, 0, 0};
    bitvec in_as = topo.links_in_as(a);
    in_as &= topo.covered_links();
    in_as.for_each([&](std::size_t e) {
      row.mean_congestion += links.congestion[e];
      ++row.monitored_links;
      // Rank peers by what the measurements actually determine; the
      // fallback guesses for unidentifiable links are shown in the
      // mean but do not drive the ranking.
      if (links.estimated.test(e)) {
        ++row.estimated_links;
        row.worst_congestion =
            std::max(row.worst_congestion, links.congestion[e]);
      }
    });
    if (row.monitored_links == 0 || row.estimated_links == 0) continue;
    row.mean_congestion /= static_cast<double>(row.monitored_links);
    report.push_back(row);
  }
  std::sort(report.begin(), report.end(), [](const auto& a, const auto& b) {
    return a.worst_congestion > b.worst_congestion;
  });

  std::printf("\nTop congested peers over the last %zu intervals:\n\n",
              intervals);
  table_printer table({"Peer AS", "links", "mean P(congested)",
                       "worst P(congested)", "worst true"});
  const std::size_t top = std::min<std::size_t>(report.size(), 10);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& row = report[i];
    // Sanity column: the analytic truth for the worst link.
    double worst_true = 0.0;
    bitvec in_as = topo.links_in_as(row.peer);
    in_as &= topo.covered_links();
    in_as.for_each([&](std::size_t e) {
      worst_true = std::max(
          worst_true, truth.link_congestion_probability(static_cast<link_id>(e)));
    });
    table.add_row({std::to_string(row.peer), std::to_string(row.monitored_links),
                   format_fixed(row.mean_congestion, 3),
                   format_fixed(row.worst_congestion, 3),
                   format_fixed(worst_true, 3)});
  }
  table.print(std::cout);

  std::printf(
      "\n(Probabilities are per-interval congestion frequencies over the\n"
      " monitoring window; the diurnal load needs no stationarity\n"
      " assumption. Per-link estimates on sparse views carry a tail of\n"
      " outliers — the paper's Fig. 4(c) CDF shows the same — so the\n"
      " 'worst true' sanity column is part of the operator report.)\n");
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"intervals", "seed"}, run);
}
