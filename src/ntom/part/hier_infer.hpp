// Partitioned inference, step 2: run any registered estimator per cell
// of a partition_plan and merge the per-cell results back to the parent
// link universe.
//
// Two entry points share the splitting/merging machinery:
//
//   * make_partitioned_estimator — an `estimator` adapter holding one
//     inner estimator per cell. Its chunk-protocol fit splits every
//     chunk by the cells' path columns (word-level row gathers of the
//     chunk's path-major view, the way probe_policy_sink masks rows);
//     infer() and links() lift the per-cell answers back through
//     the cells' link ids. This is what run_config::part wires through
//     the evals driver — partitioning becomes a config knob, not a new
//     pipeline.
//
//   * partition_cells — a cell_evaluator whose shards are the plan's
//     cells, so one run's per-cell fits spread across the work-stealing
//     grid (run_grid) instead of executing serially. The per-cell
//     estimates land in shared run-state slots; merged() reassembles
//     them after the grid drains. This is the scalable path the
//     micro_part bench drives at 10^5+ links.
//
// Merge semantics: a link contained in exactly one cell passes through
// verbatim — value and identifiability flag alike — so clean splits
// (empty cut set) reproduce the monolithic fit bit-identically, down
// to the minimum-norm values estimators report for links they could
// not determine. At cut links (links owned by several cells), a link
// estimated by exactly one cell keeps that cell's value bit-identically;
// a link estimated by several cells takes the agreement-weighted average
// with weight = the number of the cell's paths through the link (cells
// observing the link through more paths know more about it). The
// `estimated` identifiability flag is the OR across contributing cells —
// a cut link no cell could determine stays undetermined.
#pragma once

#include <memory>
#include <vector>

#include "ntom/api/estimator.hpp"
#include "ntom/exp/grid.hpp"
#include "ntom/part/partition.hpp"

namespace ntom {

/// Merges per-cell link estimates (aligned with plan.cells, each over
/// its cell's local link universe) into estimates over the parent
/// topology's links. See the header comment for the cut-link semantics.
[[nodiscard]] link_estimates merge_cell_estimates(
    const partition_plan& plan, const std::vector<link_estimates>& per_cell);

/// One inner `spec` estimator per plan cell behind the ordinary
/// estimator interface. Capabilities mirror the inner estimator's,
/// minus `windowed`: the adapter implements the chunk protocol but not
/// retire/refit, so begin_window throws. The plan (and through it
/// every cell sub-topology) is retained for the adapter's lifetime.
[[nodiscard]] std::unique_ptr<estimator> make_partitioned_estimator(
    estimator_spec spec, std::shared_ptr<const partition_plan> plan);

/// Shared result slots of one partition_cells run: shard i writes cell
/// i's estimates (disjoint slots — no locking needed).
struct partition_run_result {
  std::vector<link_estimates> cell_estimates;
};

/// cell_evaluator running `spec` once per plan cell: each cell replays
/// the run's interval stream (stream_experiment — the store when the run
/// is materialized) through a splitting sink, so estimator state is
/// O(cell) — the >10^5-link mode where one monolithic fit would not
/// fit. Shard 0's pass also records a capture that no materialize pass
/// did. eval_cell emits no measurement rows; the product is the
/// merged estimate, read with merged() after run_grid returns.
///
/// The evaluator retains the state of the most recent run it prepared,
/// so drive it with a single-run spec list (the bench shape). Multi-run
/// grids would overwrite the slot in preparation order.
class partition_cells final : public cell_evaluator {
 public:
  partition_cells(std::shared_ptr<const partition_plan> plan,
                  estimator_spec spec);

  [[nodiscard]] std::size_t shards(const run_config& config) const override;

  [[nodiscard]] std::shared_ptr<void> make_run_state(
      const run_config& config, const run_artifacts& run) const override;

  [[nodiscard]] std::vector<measurement> eval_cell(
      const run_config& config, const run_artifacts& run, void* run_state,
      std::size_t shard) const override;

  /// The merged estimate of the last completed run. Throws
  /// std::logic_error before any run prepared.
  [[nodiscard]] link_estimates merged() const;

  [[nodiscard]] const partition_plan& plan() const noexcept { return *plan_; }

 private:
  std::shared_ptr<const partition_plan> plan_;
  estimator_spec spec_;
  mutable std::shared_ptr<partition_run_result> last_run_;
};

}  // namespace ntom
