// The sharded grid scheduler: work-stealing execution of a batch over
// (topology x scenario x fit x replica) cells, sharing one
// read-only topology per (spec, topo_seed) group.
//
// run_grid is the one way to run a batch. An evaluator splits each run
// into cells (estimator_cells in exp/evals.hpp: one per distinct fit of
// a materialized run — Bayes-Indep shares Independence's fit and cell,
// Bayes-Corr shares Corr-complete's), and every cell is scheduled on
// its own, so a heavyweight fit never serializes the rest of its run
// behind one worker.
//
// Determinism contract: per-run RNG seeds derive from (base_seed, run
// index) before any scheduling happens, cells of a run reassemble their
// measurement rows in shard order, and the report sorts runs by index —
// so the aggregates are bit-identical at 1 thread and N threads, cached
// or not, and equal to the evaluator's unsharded rows. The topology
// cache only skips *regenerating* a topology that an identical (spec,
// topo_seed) key already produced; the cached instance is the value
// make_topology would have returned.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ntom/exp/batch.hpp"

namespace ntom {

/// Thread-safe read-only cache of generated topologies keyed by
/// (topology spec, topo_seed). The first getter of a key generates
/// (once, under a per-key once_flag — concurrent getters of the same
/// key wait instead of duplicating the generation); later getters share
/// the immutable instance. Scenario arms of one replica hit the cache,
/// so BRITE generation runs once per (topology arm x replica) instead
/// of once per run.
class topology_cache {
 public:
  [[nodiscard]] std::shared_ptr<const topology> get(const topology_spec& s,
                                                    std::uint64_t seed);

  [[nodiscard]] std::size_t hits() const noexcept { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_.load(); }

 private:
  struct slot {
    std::once_flag once;
    std::shared_ptr<const topology> topo;
  };

  std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<slot>> slots_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

/// Counters of one run_grid execution (observability; never part of the
/// reproducibility contract).
struct grid_stats {
  std::size_t runs = 0;
  std::size_t cells = 0;
  std::size_t steals = 0;  ///< cells executed off their home worker.
  std::size_t topo_cache_hits = 0;
  std::size_t topo_cache_misses = 0;
};

/// Cell-granular evaluator: how many cells one run splits into, and the
/// per-cell evaluation. Whichever worker claims a run's first cell
/// prepares the run (topology via the cache, scenario, simulation, the
/// optional run state); sibling cells share the prepared artifacts
/// read-only. eval_cell must be self-contained and deterministic in the
/// config's seeds, and the concatenation of its rows over shards
/// 0..shards()-1 must equal the rows an unsharded evaluation would emit.
class cell_evaluator {
 public:
  virtual ~cell_evaluator() = default;

  [[nodiscard]] virtual std::size_t shards(const run_config& config) const {
    (void)config;
    return 1;
  }

  /// Optional state shared by every cell of one run (created during
  /// run preparation) — the place for per-run values that several
  /// shards would otherwise recompute identically. Any internal
  /// mutation must be thread-safe: sibling cells run concurrently.
  [[nodiscard]] virtual std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const {
    (void)config;
    (void)run;
    return nullptr;
  }

  [[nodiscard]] virtual std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const = 0;
};

/// Runs every spec through the work-stealing cell scheduler and returns
/// the aggregated report (bit-identical to the serial loop). Exceptions
/// thrown by prepare or eval propagate to the caller after all workers
/// drain. `stats` (optional) receives the execution counters. Two runs
/// with the same non-empty capture.path throw spec_error, naming both,
/// before any cell runs.
[[nodiscard]] batch_report run_grid(const std::vector<run_spec>& specs,
                                    const cell_evaluator& eval,
                                    const batch_params& params = {},
                                    grid_stats* stats = nullptr);

}  // namespace ntom
