// Partitioned inference, step 2: run any registered estimator per cell
// of a partition_plan and merge the per-cell results back to the parent
// link universe.
//
// make_partitioned_estimator is an `estimator` adapter holding one inner
// estimator per cell. Its chunk-protocol fit splits every chunk by the
// cells' path columns (word-level row gathers of the chunk's path-major
// view, the way probe_policy_sink masks rows); infer() and links() lift
// the per-cell answers back through the cells' link ids. This is what
// run_config::part wires through the evals driver — partitioning is a
// config knob, not a new pipeline — and what the micro_part bench fits
// at 10^5+ links.
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

}  // namespace ntom
