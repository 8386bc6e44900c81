// Parallel batched experiment engine.
//
// A batch is a vector of run_configs (topology spec x scenario spec x
// loss model x seed) run by run_grid (exp/grid.hpp). Each run's RNG seeds
// are derived from the batch base seed and the run *index* — never from
// scheduling order — so aggregated results are bit-identical at 1
// thread and N threads. Per-run evaluation returns named scalar
// measurements (series x metric), which batch_report aggregates into
// mean / stddev / min / max / percentiles and exports as CSV.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ntom/exp/metrics.hpp"
#include "ntom/exp/runner.hpp"

namespace ntom {

/// One batch entry: an aggregation label plus the run to perform.
/// Replicated labels (same label, different index) aggregate together —
/// that is how seed sweeps become mean +/- stddev columns.
struct run_spec {
  std::string label;
  run_config config;

  /// Topology-seed group. Runs sharing a group value draw the same
  /// topology seeds (scenario/sim seeds still differ per index), so
  /// scenario arms within one replica compare algorithms on the same
  /// network — the figure benches set this to the replica number.
  /// npos (default) keys the topology stream by the run index.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t seed_group = npos;
};

struct batch_params {
  std::size_t threads = 0;       ///< 0 = hardware concurrency.
  std::uint64_t base_seed = 42;  ///< root of every derived per-run seed.

  /// When true (default), every run's topo_seed/scenario/sim seeds are
  /// overwritten with splitmix64(base_seed, index) streams. Disable to
  /// run the configs' own seeds verbatim.
  bool derive_seeds = true;

  /// Share one generated topology across runs with the same
  /// (topology spec, topo_seed) through the grid scheduler's read-only
  /// cache — e.g. the scenario arms of one replica. Never changes
  /// results: the cached instance is the exact value regeneration
  /// would produce.
  bool cache_topologies = true;
};

/// One named scalar produced by evaluating a run, e.g.
/// {"Bayes-Corr", "detection_rate", 0.93}.
struct measurement {
  std::string series;
  std::string metric;
  double value = 0.0;
};

/// Outcome of one run of the batch.
struct run_result {
  std::size_t index = 0;  ///< position in the spec vector.
  std::string label;
  double seconds = 0.0;  ///< wall-clock of prepare + evaluate.
  std::vector<measurement> measurements;
};

/// Aggregate of one (label, series, metric) cell across its runs.
struct metric_summary {
  std::string label;
  std::string series;
  std::string metric;
  std::size_t runs = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// Ordered collection of run results with deterministic aggregation.
class batch_report {
 public:
  /// Inserts keeping runs sorted by index (the deterministic order).
  void add(run_result result);

  [[nodiscard]] const std::vector<run_result>& runs() const noexcept {
    return runs_;
  }

  /// Aggregates every (label, series, metric) cell. Cells appear in
  /// first-appearance order over the index-sorted runs, so the output
  /// is identical regardless of thread count.
  [[nodiscard]] std::vector<metric_summary> summarize() const;

  /// Mean value of one cell; 0 when absent (convenience for tables).
  [[nodiscard]] double mean_of(const std::string& label,
                               const std::string& series,
                               const std::string& metric) const;

  /// Long-format per-run rows: run,label,series,metric,value,seconds.
  void write_runs_csv(const std::string& path) const;

  /// Aggregated rows: label,series,metric,runs,mean,stddev,min,max,p50,p90.
  void write_summary_csv(const std::string& path) const;

  /// Machine-readable summary for perf trajectories (BENCH_*.json):
  /// {"bench": ..., "params": {...}, "total_seconds": ..., "runs": N,
  ///  "cells": [{label, series, metric, runs, mean, stddev, ...}, ...]}.
  /// Non-finite values serialize as null.
  void write_summary_json(
      const std::string& path, const std::string& bench,
      const std::vector<std::pair<std::string, std::string>>& params = {})
      const;

  /// Wall-clock of the whole batch (set by run_grid).
  double total_seconds = 0.0;

 private:
  std::vector<run_result> runs_;
};

/// Derives the run's RNG seeds from (base_seed, index) via splitmix64.
/// Pure function of its arguments — the reproducibility contract.
/// The topology seeds come from a stream keyed by `topo_group`; the
/// scenario/sim seeds from a stream keyed by `index`.
[[nodiscard]] run_config derive_run_seeds(run_config config,
                                          std::uint64_t base_seed,
                                          std::size_t index,
                                          std::size_t topo_group);

/// Expands inference_metrics into the engine's measurement rows.
[[nodiscard]] std::vector<measurement> inference_measurements(
    const std::string& series, const inference_metrics& metrics);

/// Expands observation_metrics (truth-free scoring of truth-stripped
/// trace replays) into the engine's measurement rows.
[[nodiscard]] std::vector<measurement> observation_measurements(
    const std::string& series, const observation_metrics& metrics);

}  // namespace ntom
