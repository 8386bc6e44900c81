// Reproduces Fig. 4(c): CDF of the absolute per-link error for the
// "No Independence" scenario on Sparse topologies, for Independence,
// Correlation-heuristic, and Correlation-complete. The paper reads the
// CDFs at error 0.1: ~50% (Independence), ~65% (heuristic), ~80%
// (Correlation-complete).
#include <cstdio>
#include <iostream>
#include <optional>

#include "ntom/api/estimator.hpp"
#include "ntom/corr/correlation.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/util/csv.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/stats.hpp"

int run(const ntom::flags& opts) {
  using namespace ntom;
  const bool paper_scale = paper_scale_from_flags(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const auto intervals = opts.get_size("intervals", paper_scale ? 1000 : 300);

  run_config config;
  config.topo = paper_scale ? topology_spec("sparse,scale=paper")
                            : topology_spec("sparse");
  config.topo_seed = seed + 1;
  config.scenario = "no_independence,nonstationary";
  config.scenario_opts.seed = seed + 2;
  config.sim.intervals = intervals;
  config.sim.seed = seed + 3;

  std::cout << "Fig. 4(c) — CDF of absolute error, No Independence, Sparse "
            << "(scale=" << (paper_scale ? "paper" : "small")
            << ", T=" << intervals << ", seed=" << seed << ")\n\n";

  const run_artifacts run = prepare_run(config);
  const ground_truth truth = run.make_truth();
  const path_observations obs(run.data);
  const bitvec potcong =
      potentially_congested_links(run.topo(), obs.always_good_paths());
  std::fprintf(stderr, "[fig4c] %s, potcong=%zu\n",
               run.topo().describe().c_str(), potcong.count());

  const auto cdf_of = [&](const char* name) {
    const auto est = make_estimator(name);
    est->fit(run.topo(), run.data);
    return empirical_cdf(
        link_absolute_errors(run.topo(), truth, est->links(), potcong));
  };
  const empirical_cdf cdf_indep = cdf_of("independence");
  const empirical_cdf cdf_heur = cdf_of("corr-heuristic");
  const empirical_cdf cdf_complete = cdf_of("corr-complete");

  table_printer table({"Abs error x", "Independence", "Corr-heuristic",
                       "Corr-complete"});
  std::optional<csv_writer> csv;
  if (opts.has("csv")) {
    csv.emplace(opts.get_string("csv", "fig4c.csv"));
    csv->write_header(
        {"x", "independence", "correlation_heuristic", "correlation_complete"});
  }
  for (const double x : {0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4,
                         0.5, 0.75, 1.0}) {
    const std::vector<double> row{cdf_indep.at(x), cdf_heur.at(x),
                                  cdf_complete.at(x)};
    table.add_row(format_fixed(x, 3), row);
    if (csv) csv->write_row(format_fixed(x, 3), row);
  }
  table.print(std::cout);

  std::cout << "\nFraction of links with error < 0.1:"
            << "  Independence=" << format_fixed(cdf_indep.at(0.1), 3)
            << "  Corr-heuristic=" << format_fixed(cdf_heur.at(0.1), 3)
            << "  Corr-complete=" << format_fixed(cdf_complete.at(0.1), 3)
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"scale", "seed", "intervals", "csv"}, run);
}
