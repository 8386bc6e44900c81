// Spec-driven sweep driver on the ntom::experiment facade.
//
// Builds the cross product topology x scenario x estimator x replica
// from spec strings — no recompile to change the grid — fans the runs
// across a thread pool, and prints aggregated detection/false-positive
// rates and mean absolute errors (mean +/- stddev over replicas).
// Per-run seeds derive from --seed and the run index, so the sweep is
// reproducible bit-for-bit at any thread count — pass
// --check-determinism to prove it on the spot (re-runs the sweep
// serially, compares every aggregate exactly, and reports the parallel
// speedup).
//
//   sweep_cli --topos=brite,sparse,toy
//             --scenarios=random,concentrated,noindep,nostat
//             --estimators=sparsity,bayes-indep,bayes-corr,independence,corr-complete
//             --replicas=4 --threads=8 --summary-csv=sweep.csv
//
// Spec lists split on ';' when present, else on ',' — use ';' when a
// spec carries options ("brite,n=40;sparse"). --list prints the
// registered names and their option docs.
//
// Trace capture & replay:
//   --capture-dir=DIR           record every run's measurement stream to
//                               DIR/<label>_<run>.trc while sweeping
//                               (results unchanged; add
//                               --capture-no-truth to strip the plane)
//   --replay=FILE|DIR[;...]     sweep over captured datasets instead of
//                               simulating: every .trc becomes one
//                               `trace` scenario arm (truth-aware
//                               metrics when the plane is present,
//                               observation-only otherwise)
//   --replay-shards=N           split every replayed file into N
//                               interval windows (`first=`/`count=`
//                               trace options), one grid arm per window
//                               labeled <stem>@k — the v2 CIDX index
//                               lets each worker seek straight to its
//                               window, so one big corpus file fans out
//                               across the thread pool
//
// Probe-budget planning:
//   --policy=SPEC               mask every run's measurement stream with
//                               a probe policy ("uniform,frac=0.25",
//                               "round_robin,frac=0.1", "info_gain,
//                               frac=0.25,horizon=16"); forces streamed
//                               execution and rejects the store-bound
//                               estimators. --list=policies shows the
//                               registered planners.
//
// Partitioned hierarchical inference (ntom/part):
//   --partition=MODE            decompose every run's topology into
//                               independently solvable cells and fit
//                               each estimator per cell, merging the
//                               estimates at the cut links. MODE is
//                               components, bicomp, or auto (none
//                               disables, the default); a plan that
//                               collapses to one cell falls back to the
//                               monolithic fit automatically
//   --partition-max-links=N     soft cell-size target for bicomp/auto
//                               (default 4096 links per cell)
//
// --simd=scalar|popcnt|avx2|avx512 forces the bit-kernel dispatch level
// for the whole sweep (same as NTOM_SIMD; --list=simd shows the host's
// detected ISA ladder).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "ntom/api/experiment.hpp"
#include "ntom/exp/report.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/simd/simd.hpp"
#include "ntom/util/thread_pool.hpp"

namespace {

/// Expands --replay: a ';'-separated list of .trc files and/or
/// directories (a directory contributes its *.trc entries, sorted).
std::vector<std::string> expand_replay_list(const std::string& list) {
  std::vector<std::string> files;
  std::string item;
  for (const char c : list + ';') {
    if (c != ';') {
      item += c;
      continue;
    }
    const std::size_t first = item.find_first_not_of(" \t");
    if (first == std::string::npos) {
      item.clear();
      continue;
    }
    item = item.substr(first, item.find_last_not_of(" \t") - first + 1);
    if (std::filesystem::is_directory(item)) {
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(item)) {
        if (entry.path().extension() == ".trc") {
          entries.push_back(entry.path().string());
        }
      }
      std::sort(entries.begin(), entries.end());
      files.insert(files.end(), entries.begin(), entries.end());
    } else {
      files.push_back(item);
    }
    item.clear();
  }
  return files;
}

bool summaries_identical(const std::vector<ntom::metric_summary>& a,
                         const std::vector<ntom::metric_summary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].series != b[i].series ||
        a[i].metric != b[i].metric || a[i].runs != b[i].runs ||
        a[i].mean != b[i].mean || a[i].stddev != b[i].stddev ||
        a[i].min != b[i].min || a[i].max != b[i].max ||
        a[i].p50 != b[i].p50 || a[i].p90 != b[i].p90) {
      return false;
    }
  }
  return true;
}

int run_sweep(const ntom::flags& opts) {
  using namespace ntom;
  // Forces the bit-kernel dispatch level for the whole sweep.
  if (opts.has("simd") &&
      !simd::apply_level_flag(opts.get_string("simd", ""))) {
    return 2;
  }
  if (opts.has("list") || opts.has("list-json")) {
    // Bare --list prints every registry; --list=scenarios (or
    // --list=srlg, any registered name/alias) narrows to one registry
    // or one entry's full option docs. --list-json takes the same
    // selectors and emits the machine-readable catalog instead.
    std::cout << (opts.has("list-json")
                      ? describe_registries_json(
                            opts.get_string("list-json", ""))
                      : describe_registries(opts.get_string("list", "")));
    return 0;
  }

  const bool paper_scale = paper_scale_from_flags(opts);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const auto replicas = opts.get_size("replicas", 2);
  const auto threads = opts.get_size("threads", 0);
  const bool check = opts.get_bool("check-determinism", false);

  // The shared run flags: simulation length and packets, scenario-wide
  // nonstationarity knobs (per-spec options still win), streamed
  // execution, the probe-budget policy (forces streamed execution) and
  // partitioned inference (ntom/part).
  run_config base;
  base.sim.intervals = paper_scale ? 1000 : 150;
  const run_config config = run_config_from_flags(opts, base);
  const std::size_t intervals = config.sim.intervals;

  const std::string replay = opts.get_string("replay", "");
  experiment exp;
  if (!replay.empty()) {
    // Replay sweep: each captured dataset is one `trace` scenario arm
    // (its topology is embedded, so one placeholder topology arm
    // prefixes the labels). Link-error metrics need the analytic
    // model, which replays do not have.
    exp.with_topology("toy,label=replay");
    const std::vector<std::string> files = expand_replay_list(replay);
    if (files.empty()) {
      throw flag_error("--replay=" + replay + ": no .trc files");
    }
    const auto shards = opts.get_size("replay-shards", 1);
    for (const std::string& f : files) {
      const std::string stem = std::filesystem::path(f).stem().string();
      if (shards <= 1) {
        exp.with_scenario(
            spec("trace").with_option("file", f).with_option("label", stem));
        continue;
      }
      // Shard the file into equal interval windows; opening the
      // reader touches only the header, index and trailer pages.
      const std::uint64_t total = trace_reader(f).intervals();
      for (std::size_t k = 0; k < shards; ++k) {
        const std::uint64_t first = total * k / shards;
        const std::uint64_t count = total * (k + 1) / shards - first;
        if (count == 0) continue;  // more shards than intervals
        exp.with_scenario(spec("trace")
                              .with_option("file", f)
                              .with_option("first", std::to_string(first))
                              .with_option("count", std::to_string(count))
                              .with_option("label",
                                           stem + "@" + std::to_string(k)));
      }
    }
    exp.measure_link_error(false);
  } else {
    for (const std::string& t :
         split_spec_list(opts.get_string("topos", "brite,sparse"))) {
      topology_spec s(t);
      if (paper_scale && !s.has("scale")) s = s.with_option("scale", "paper");
      exp.with_topology(std::move(s));
    }
    for (const std::string& s : split_spec_list(opts.get_string(
             "scenarios", "random,concentrated,noindep,nostat"))) {
      exp.with_scenario(s);
    }
  }
  for (const std::string& e : split_spec_list(opts.get_string(
           "estimators", "sparsity,bayes-indep,bayes-corr"))) {
    exp.with_estimator(e);
  }

  exp.with_scenario_defaults(config.scenario_opts);
  exp.with_sim(config.sim);
  exp.replicas(replicas);
  // Streamed execution replays the interval stream in chunks instead of
  // materializing per-run observation stores (bit-identical results).
  exp.with_streaming(config.stream);
  const std::string& policy = config.plan.policy;
  exp.with_policy(policy);
  exp.with_partitioning(config.part);

  // Capture: record every run's stream to DIR while the sweep runs
  // (passive — aggregates are bit-identical with capture on).
  const std::string capture_dir = opts.get_string("capture-dir", "");
  if (!capture_dir.empty()) {
    std::filesystem::create_directories(capture_dir);
    exp.with_capture(
        {capture_dir, !opts.get_bool("capture-no-truth", false)});
  }

  // Duplicate grid-arm labels (e.g. two --replay files sharing a stem)
  // surface when the grid expands.
  const std::vector<run_spec> specs = exp.specs();
  const std::size_t workers = resolve_threads(threads);
  const bool partitioned = config.part.mode != partition_mode::none;
  std::cout << "Scenario sweep — " << specs.size() << " runs ("
            << specs.size() / (replicas == 0 ? 1 : replicas) << " grid cells x "
            << replicas << " replicas), T=" << intervals << ", seed=" << seed
            << ", threads=" << workers
            << (config.stream.enabled ? ", streamed" : ", materialized")
            << (policy.empty() ? "" : ", policy=" + policy)
            << (partitioned ? std::string(", partition=") +
                                  to_string(config.part.mode)
                            : "")
            << "\n\n";

  batch_params params;
  params.threads = threads;
  params.base_seed = seed;
  grid_stats stats;
  // Cross-option scenario semantics (e.g. a no_stationarity base that
  // cannot phase) and unreadable trace files surface here.
  const batch_report report = exp.run(params, &stats);

  const std::vector<metric_summary> cells = report.summarize();
  table_printer boolean_table({"Topology/Scenario", "Estimator", "DR mean",
                               "DR sd", "FP mean", "FP sd"});
  bool any_boolean = false;
  for (const metric_summary& s : cells) {
    if (s.metric != "detection_rate") continue;
    any_boolean = true;
    double fp_mean = 0.0;
    double fp_sd = 0.0;
    for (const metric_summary& f : cells) {
      if (f.label == s.label && f.series == s.series &&
          f.metric == "false_positive_rate") {
        fp_mean = f.mean;
        fp_sd = f.stddev;
      }
    }
    boolean_table.add_row({s.label, s.series, format_fixed(s.mean),
                           format_fixed(s.stddev), format_fixed(fp_mean),
                           format_fixed(fp_sd)});
  }
  if (any_boolean) {
    std::cout << "Boolean inference (Fig. 3 metrics)\n";
    boolean_table.print(std::cout);
  }

  table_printer error_table(
      {"Topology/Scenario", "Estimator", "MAE mean", "MAE sd"});
  bool any_error = false;
  for (const metric_summary& s : cells) {
    if (s.metric != "mean_abs_error") continue;
    any_error = true;
    error_table.add_row(
        {s.label, s.series, format_fixed(s.mean), format_fixed(s.stddev)});
  }
  if (any_error) {
    std::cout << (any_boolean ? "\n" : "")
              << "Probability computation (Fig. 4 metric)\n";
    error_table.print(std::cout);
  }

  // Truth-stripped replays score observation-only.
  table_printer obs_table({"Topology/Scenario", "Estimator", "Explained",
                           "Consistent", "Links mean"});
  bool any_obs = false;
  for (const metric_summary& s : cells) {
    if (s.metric != "explained_rate") continue;
    any_obs = true;
    double consistent = 0.0;
    double links_mean = 0.0;
    for (const metric_summary& f : cells) {
      if (f.label == s.label && f.series == s.series) {
        if (f.metric == "consistency_rate") consistent = f.mean;
        if (f.metric == "inferred_links_mean") links_mean = f.mean;
      }
    }
    obs_table.add_row({s.label, s.series, format_fixed(s.mean),
                       format_fixed(consistent), format_fixed(links_mean)});
  }
  if (any_obs) {
    std::cout << (any_boolean || any_error ? "\n" : "")
              << "Observation-only scoring (no ground-truth plane)\n";
    obs_table.print(std::cout);
  }

  std::printf("\n%zu runs in %.2fs wall clock (%.2fs/run average)\n",
              report.runs().size(), report.total_seconds,
              report.runs().empty()
                  ? 0.0
                  : report.total_seconds /
                        static_cast<double>(report.runs().size()));
  std::printf(
      "grid: %zu cells over %zu runs, %zu stolen; topology cache: %zu "
      "hits / %zu misses\n",
      stats.cells, stats.runs, stats.steals, stats.topo_cache_hits,
      stats.topo_cache_misses);

  if (opts.has("csv")) {
    report.write_runs_csv(opts.get_string("csv", "sweep.csv"));
  }
  if (opts.has("summary-csv")) {
    report.write_summary_csv(
        opts.get_string("summary-csv", "sweep_summary.csv"));
  }
  maybe_write_bench_json(report, opts, "sweep_cli",
                         {{"intervals", std::to_string(intervals)},
                          {"seed", std::to_string(seed)},
                          {"replicas", std::to_string(replicas)},
                          {"threads", std::to_string(workers)}});

  if (check) {
    std::cout << "\nDeterminism check: re-running serially...\n";
    batch_params serial = params;
    serial.threads = 1;
    const batch_report serial_report = exp.run(serial);
    const bool identical =
        summaries_identical(cells, serial_report.summarize());
    std::printf(
        "aggregates %s; serial %.2fs vs parallel %.2fs (speedup %.2fx "
        "at %zu threads)\n",
        identical ? "BIT-IDENTICAL" : "DIFFER (BUG)",
        serial_report.total_seconds, report.total_seconds,
        report.total_seconds > 0.0
            ? serial_report.total_seconds / report.total_seconds
            : 0.0,
        workers);
    if (!identical) return 1;
    // With a policy the materialized mode cannot run at all (no mask
    // plane in the store), so the cross-mode check only applies without.
    if (config.stream.enabled && policy.empty()) {
      // The streamed mode is an execution strategy, not an estimator:
      // prove it against the materialized path on the same seeds.
      std::cout << "Streamed-vs-materialized check: re-running "
                   "materialized...\n";
      exp.with_streaming({false});
      const batch_report materialized_report = exp.run(params);
      const bool modes_match =
          summaries_identical(cells, materialized_report.summarize());
      std::printf("streamed aggregates %s materialized aggregates\n",
                  modes_match ? "BIT-IDENTICAL to" : "DIFFER from (BUG)");
      if (!modes_match) return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ntom::run_cli(
      argc, argv,
      {"simd", "list", "list-json", "scale", "seed", "replicas", "threads",
       "check-determinism", "replay", "replay-shards", "topos", "scenarios",
       "estimators", "intervals", "packets", "nonstationary", "phase-length",
       "fraction", "streamed", "chunk", "policy", "partition",
       "partition-max-links", "capture-dir", "capture-no-truth", "csv",
       "summary-csv", "json"},
      run_sweep);
}
