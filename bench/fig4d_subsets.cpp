// Reproduces Fig. 4(d): mean absolute error of Correlation-complete in
// the "No Independence" scenario, when computing the congestion
// probability of (i) individual links and (ii) multi-link correlation
// subsets, on Brite and Sparse topologies. The paper's point: the
// subset probabilities — which reveal which links within a peer are
// actually correlated — come out about as accurate as the link
// probabilities (mean error <= ~0.1).
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "ntom/corr/correlation.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/tomo/correlation_complete.hpp"
#include "ntom/util/csv.hpp"
#include "ntom/util/flags.hpp"

int run(const ntom::flags& opts) {
  using namespace ntom;
  const bool paper_scale = paper_scale_from_flags(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const auto intervals = opts.get_size("intervals", paper_scale ? 1000 : 300);

  std::cout << "Fig. 4(d) — Correlation-complete: links vs correlation "
            << "subsets (No Independence, scale="
            << (paper_scale ? "paper" : "small") << ", T=" << intervals
            << ", seed=" << seed << ")\n\n";

  table_printer table({"Topology", "links", "correlation subsets",
                       "identifiable subsets"});
  std::optional<csv_writer> csv;
  if (opts.has("csv")) {
    csv.emplace(opts.get_string("csv", "fig4d.csv"));
    csv->write_header({"topology", "link_error", "subset_error",
                       "identifiable_fraction"});
  }

  for (const char* topo_name : {"brite", "sparse"}) {
    run_config config;
    config.topo = topology_spec(topo_name);
    if (paper_scale) config.topo = config.topo.with_option("scale", "paper");
    config.topo_seed = std::string(topo_name) == "brite" ? seed : seed + 1;
    config.scenario = "no_independence,nonstationary";
    config.scenario_opts.seed = seed + 2;
    config.sim.intervals = intervals;
    config.sim.seed = seed + 3;
    const std::string topo_label_str = topology_label(config.topo);

    const run_artifacts run = prepare_run(config);
    const ground_truth truth = run.make_truth();
    const path_observations obs(run.data);
    const bitvec potcong =
        potentially_congested_links(run.topo(), obs.always_good_paths());
    std::fprintf(stderr, "[fig4d] %s: %s\n", topo_label_str.c_str(),
                 run.topo().describe().c_str());

    const auto complete = compute_correlation_complete(run.topo(), run.data);
    const double link_err = mean_of(link_absolute_errors(
        run.topo(), truth, complete.estimates.to_link_estimates(), potcong));
    const double subset_err = mean_of(
        subset_absolute_errors(run.topo(), truth, complete.estimates, 2));
    const double ident = complete.estimates.identifiable_fraction();

    table.add_row(topo_label_str, {link_err, subset_err, ident});
    if (csv) {
      csv->write_row(topo_label_str, {link_err, subset_err, ident});
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"scale", "seed", "intervals", "csv"}, run);
}
