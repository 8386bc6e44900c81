// Partitioned-vs-monolithic inference bench (ISSUE 10: ntom/part).
//
// Phase 1 — equivalence (small Brite, the gated headline): fit the
// streaming Independence estimator monolithically and through the
// partitioned adapter (bicomp cells, agreement-weighted merge at the
// cut links) on the same interval stream. Gated cells: the mean
// absolute partitioned-vs-monolithic estimate delta over
// commonly-determined links, and the cell count.
//
// Phase 2 — scale (>100k links): a federation of independent Brite
// regions merged into one topology, partitioned by connected
// components (empty cut set). The partitioned streamed fit runs whole;
// the monolithic fit is *infeasible* — solve_least_squares stages the
// sparse system dense for the QR, equations x columns doubles — so its
// memory demand is reported analytically instead of executed. Gated
// cells: the link/cell structure and the dense-stage byte counts
// (exact: pure functions of the seeds), plus the chunk-size bit
// identity of the partitioned fit. Wall clock and VmHWM are recorded,
// never gated.
//
//   ./micro_part                      # defaults: gated-baseline shape
//   ./micro_part --regions=8          # smaller scale phase (ungated)
//   ./micro_part --json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/part/hier_infer.hpp"
#include "ntom/part/partition.hpp"
#include "ntom/sim/packet_sim.hpp"
#include "ntom/sim/scenario.hpp"
#include "ntom/topogen/brite.hpp"
#include "ntom/util/flags.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Peak resident set size from /proc/self/status (Linux); 0 elsewhere.
/// Observability only — never a gated cell.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Dense-stage bytes of one Independence solve: solve_least_squares
/// stages the sparse system as an equations x columns double matrix
/// for the QR. Equations = one per path plus the capped pair
/// equations; columns = the potentially congested links the solver
/// keeps unknowns for.
double dense_stage_bytes(std::size_t paths, std::size_t columns,
                         std::size_t pair_cap) {
  return static_cast<double>(paths + pair_cap) * static_cast<double>(columns) *
         sizeof(double);
}

/// Concatenates independently generated topologies into one federated
/// topology: disjoint router substrates, AS ids offset per region, link
/// and path ids appended in region order. No path or router link spans
/// regions, so the components partition recovers the regions exactly
/// (empty cut set).
ntom::topology merge_regions(const std::vector<ntom::topology>& regions) {
  std::size_t router_links = 0;
  for (const ntom::topology& r : regions) {
    router_links += r.num_router_links();
  }
  ntom::topology merged(router_links);
  std::size_t router_base = 0;
  ntom::as_id as_base = 0;
  ntom::link_id link_base = 0;
  for (const ntom::topology& r : regions) {
    for (ntom::link_id e = 0; e < r.num_links(); ++e) {
      ntom::link_info info = r.link(e);
      info.as_number += as_base;
      for (ntom::router_link_id& rl : info.router_links) {
        rl += static_cast<ntom::router_link_id>(router_base);
      }
      merged.add_link(std::move(info));
    }
    for (ntom::path_id p = 0; p < r.num_paths(); ++p) {
      std::vector<ntom::link_id> links = r.get_path(p).links();
      for (ntom::link_id& e : links) e += link_base;
      merged.add_path(std::move(links));
    }
    router_base += r.num_router_links();
    as_base += static_cast<ntom::as_id>(r.num_ases());
    link_base += static_cast<ntom::link_id>(r.num_links());
  }
  merged.finalize();
  return merged;
}

bool estimates_identical(const ntom::link_estimates& a,
                         const ntom::link_estimates& b) {
  if (a.congestion.size() != b.congestion.size()) return false;
  for (std::size_t e = 0; e < a.congestion.size(); ++e) {
    if (a.congestion[e] != b.congestion[e] ||
        a.estimated.test(e) != b.estimated.test(e)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto intervals = opts.get_size("intervals", 240);
  constexpr std::size_t kDefaultRegions = 1120;
  const auto regions = opts.get_size("regions", kDefaultRegions);
  const auto scale_intervals = opts.get_size("scale-intervals", 16);

  batch_report report;
  run_result row;
  row.index = 0;
  row.label = "part";
  const auto bench_t0 = clock_type::now();

  // ------------------------------------------------------------------
  // Phase 1: equivalence on a small Brite topology.
  // ------------------------------------------------------------------
  run_config config;
  config.topo = "brite,n=24,hosts=60,paths=240";
  config.topo_seed = 3;
  config.scenario = "random_congestion";
  config.scenario_opts.seed = 11;
  config.sim.seed = 19;
  config.sim.intervals = intervals;
  config.sim.packets_per_path = 40;
  config.stream.enabled = true;
  config.stream.chunk_intervals = 32;
  config.reconcile();
  const run_artifacts run = prepare_topology(config);

  // Monolithic streamed fit.
  const auto mono_t0 = clock_type::now();
  const std::unique_ptr<estimator> mono = make_estimator("independence");
  estimator_fit_sink mono_sink(*mono);
  stream_experiment(run, config, mono_sink);
  const link_estimates mono_est = mono->links();
  const double mono_seconds = seconds_since(mono_t0);

  // Partitioned adapter on bicomp cells (forced small so the plan is
  // non-trivial and the cut-link merge actually runs).
  partition_options equiv_options;
  equiv_options.mode = partition_mode::bicomp;
  equiv_options.max_cell_links = 24;
  const auto plan = std::make_shared<const partition_plan>(
      make_partition(run.topo(), equiv_options));
  std::printf("micro_part: equivalence topology %s\n",
              run.topo().describe().c_str());
  std::printf("micro_part: equivalence plan %s\n", plan->describe().c_str());

  const auto part_t0 = clock_type::now();
  const std::unique_ptr<estimator> part =
      make_partitioned_estimator("independence", plan);
  estimator_fit_sink part_sink(*part);
  stream_experiment(run, config, part_sink);
  const link_estimates part_est = part->links();
  const double part_seconds = seconds_since(part_t0);

  // Delta over links both fits determined; partitioning may sacrifice
  // determinability (straddling-path evidence is dropped, never
  // misattributed), so count the sacrificed links separately.
  double delta_sum = 0.0;
  double delta_max = 0.0;
  std::size_t common = 0;
  std::size_t sacrificed = 0;
  for (link_id e = 0; e < run.topo().num_links(); ++e) {
    const bool in_mono = mono_est.estimated.test(e);
    const bool in_part = part_est.estimated.test(e);
    if (in_mono && in_part) {
      const double d = std::fabs(mono_est.congestion[e] - part_est.congestion[e]);
      delta_sum += d;
      delta_max = std::max(delta_max, d);
      ++common;
    } else if (in_mono && !in_part) {
      ++sacrificed;
    }
  }
  const double mean_delta = common > 0 ? delta_sum / common : 0.0;

  table_printer equiv_table(
      {"Fit", "Seconds", "MeanDelta", "MaxDelta", "Determined"});
  equiv_table.add_row({"monolithic", format_fixed(mono_seconds), "-", "-",
                       std::to_string(mono_est.estimated.count())});
  equiv_table.add_row({"partitioned", format_fixed(part_seconds),
                       format_fixed(mean_delta, 6), format_fixed(delta_max, 6),
                       std::to_string(part_est.estimated.count())});
  equiv_table.print(std::cout);
  std::printf("  straddling paths excluded      %zu\n",
              plan->straddling_paths);
  std::printf("  links sacrificed to the cut    %zu of %zu\n\n", sacrificed,
              run.topo().num_links());

  row.measurements.push_back(
      {"equivalence", "mean_abs_error", mean_delta});
  row.measurements.push_back({"equivalence", "max_abs_delta", delta_max});
  row.measurements.push_back(
      {"equivalence", "cells", static_cast<double>(plan->cells.size())});
  row.measurements.push_back(
      {"equivalence", "cut_link_count",
       static_cast<double>(plan->cut_links.size())});
  row.measurements.push_back(
      {"equivalence", "straddling_path_count",
       static_cast<double>(plan->straddling_paths)});
  row.measurements.push_back({"equivalence", "mono_seconds", mono_seconds});
  row.measurements.push_back({"equivalence", "part_seconds", part_seconds});

  // ------------------------------------------------------------------
  // Phase 2: the >100k-link federation.
  // ------------------------------------------------------------------
  const auto gen_t0 = clock_type::now();
  std::vector<topology> region_topos;
  region_topos.reserve(regions);
  // Many small regions beat few big ones: AS-level links only
  // materialize along monitored paths, so link yield per path decays as
  // a region grows (dedup), while the per-cell QR cost grows
  // superlinearly. This shape yields ~2 links per path (~120 links per
  // region), so ~1100 regions cross the 10^5-link bar from only ~53k
  // paths — per-path link sets over the federated link universe are the
  // dominant memory term, so links per path is the figure of merit.
  topogen::brite_params region_params;
  region_params.num_ases = 64;
  region_params.routers_per_as = 4;
  region_params.num_vantage_hosts = 8;
  region_params.num_destination_hosts = 60;
  region_params.num_paths = 60;
  for (std::size_t r = 0; r < regions; ++r) {
    region_params.seed = 1000 + r;
    region_topos.push_back(topogen::generate_brite(region_params));
  }
  const topology federation = merge_regions(region_topos);
  region_topos.clear();
  const double generate_seconds = seconds_since(gen_t0);
  std::printf("micro_part: federation %s (%.2f s to generate)\n",
              federation.describe().c_str(), generate_seconds);

  const auto plan_t0 = clock_type::now();
  partition_options scale_options;
  scale_options.mode = partition_mode::components;
  scale_options.max_cell_links = 1u << 20;
  const auto scale_plan = std::make_shared<const partition_plan>(
      make_partition(federation, scale_options));
  const double partition_seconds = seconds_since(plan_t0);
  std::printf("micro_part: federation plan %s (%.2f s)\n",
              scale_plan->describe().c_str(), partition_seconds);

  scenario_params scale_scenario;
  scale_scenario.seed = 5;
  const congestion_model scale_model =
      make_scenario(federation, "random_congestion", scale_scenario);
  sim_params scale_sim;
  scale_sim.intervals = scale_intervals;
  scale_sim.packets_per_path = 10;
  scale_sim.seed = 7;

  // The partitioned streamed fit runs whole at this scale; repeat at a
  // different chunk size to hold the chunking bit-identity contract.
  // The default 6000-equation pair cap is a monolithic-fit budget —
  // paying it per cell would make the cap, not the cell, the cost
  // driver across ~900 cells. 1000 pairs per ~60-path cell is still a
  // far richer aggregate equation set than any monolithic fit stages.
  const char* const scale_spec = "independence,pairs=1000";
  const std::size_t scale_pair_cap = 1000;
  const auto scale_t0 = clock_type::now();
  const std::unique_ptr<estimator> scale_fit =
      make_partitioned_estimator(scale_spec, scale_plan);
  estimator_fit_sink scale_sink(*scale_fit);
  run_experiment_streaming(federation, scale_model, scale_sim, scale_sink, 4);
  const link_estimates scale_est = scale_fit->links();
  const double scale_fit_seconds = seconds_since(scale_t0);

  const std::unique_ptr<estimator> rechunk_fit =
      make_partitioned_estimator(scale_spec, scale_plan);
  estimator_fit_sink rechunk_sink(*rechunk_fit);
  run_experiment_streaming(federation, scale_model, scale_sim, rechunk_sink,
                           16);
  const bool chunk_identical =
      estimates_identical(rechunk_fit->links(), scale_est);

  // Memory story: the monolithic Independence solve would stage its
  // sparse system dense for the QR — equations x potentially-congested
  // columns of doubles — while the partitioned fit never stages more
  // than its largest cell. Both are pure functions of the seeds.
  const bitvec& congestable = scale_model.congestable_links;
  const double mono_stage = dense_stage_bytes(
      federation.num_paths(),
      congestable.and_count(federation.covered_links()),
      /*pair_cap=*/6000);  // the monolithic fit runs at the default cap.
  double peak_cell_stage = 0.0;
  for (const partition_cell& cell : scale_plan->cells) {
    const double cell_stage =
        dense_stage_bytes(cell.paths.size(),
                          congestable.and_count(cell.link_mask),
                          scale_pair_cap);
    peak_cell_stage = std::max(peak_cell_stage, cell_stage);
  }
  const double reduction =
      peak_cell_stage > 0.0 ? mono_stage / peak_cell_stage : 0.0;
  const double rss_mb = vm_hwm_mb();

  table_printer scale_table({"Quantity", "Value"});
  scale_table.add_row(
      {"links", std::to_string(federation.num_links())});
  scale_table.add_row({"paths", std::to_string(federation.num_paths())});
  scale_table.add_row(
      {"cells", std::to_string(scale_plan->cells.size())});
  scale_table.add_row(
      {"monolithic dense stage (MB)", format_fixed(mono_stage / 1048576.0, 1)});
  scale_table.add_row({"peak cell dense stage (MB)",
                       format_fixed(peak_cell_stage / 1048576.0, 1)});
  scale_table.add_row({"stage reduction (x)", format_fixed(reduction, 1)});
  scale_table.add_row(
      {"partitioned fit (s)", format_fixed(scale_fit_seconds)});
  scale_table.add_row(
      {"chunk-size bit identity", chunk_identical ? "yes" : "NO"});
  scale_table.add_row({"process VmHWM (MB)", format_fixed(rss_mb, 1)});
  scale_table.print(std::cout);
  std::printf("\n");

  row.measurements.push_back(
      {"scale", "links", static_cast<double>(federation.num_links())});
  row.measurements.push_back(
      {"scale", "paths", static_cast<double>(federation.num_paths())});
  row.measurements.push_back(
      {"scale", "cells", static_cast<double>(scale_plan->cells.size())});
  row.measurements.push_back(
      {"scale", "cut_link_count",
       static_cast<double>(scale_plan->cut_links.size())});
  row.measurements.push_back({"scale", "mono_stage_bytes", mono_stage});
  row.measurements.push_back(
      {"scale", "peak_cell_stage_bytes", peak_cell_stage});
  row.measurements.push_back({"scale", "stage_reduction_x", reduction});
  row.measurements.push_back(
      {"scale", "chunk_identical", chunk_identical ? 1.0 : 0.0});
  row.measurements.push_back({"scale", "generate_seconds", generate_seconds});
  row.measurements.push_back(
      {"scale", "partition_seconds", partition_seconds});
  row.measurements.push_back({"scale", "fit_seconds", scale_fit_seconds});
  row.measurements.push_back({"scale", "peak_rss_mb", rss_mb});

  const double total_seconds = seconds_since(bench_t0);
  row.seconds = total_seconds;
  report.total_seconds = total_seconds;
  report.add(std::move(row));
  maybe_write_bench_json(
      report, opts, "micro_part",
      {{"intervals", std::to_string(intervals)},
       {"regions", std::to_string(regions)},
       {"scale_intervals", std::to_string(scale_intervals)}});

  // Self-checks: the bench is its own regression harness even without
  // the JSON gate.
  int rc = 0;
  if (!chunk_identical) {
    std::fprintf(stderr,
                 "micro_part: partitioned fit changed with the chunk size\n");
    rc = 1;
  }
  if (mean_delta > 0.2) {
    std::fprintf(stderr,
                 "micro_part: partitioned-vs-monolithic mean delta %.4f "
                 "exceeds the sanity bound 0.2\n",
                 mean_delta);
    rc = 1;
  }
  if (regions >= kDefaultRegions && federation.num_links() <= 100000) {
    std::fprintf(stderr,
                 "micro_part: federation has only %zu links (need > 100k at "
                 "the default scale)\n",
                 federation.num_links());
    rc = 1;
  }
  std::printf("micro_part: done in %.2f s\n", total_seconds);
  return rc;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv,
                       {"intervals", "regions", "scale-intervals", "json"},
                       run);
}
