// Test oracle for Algorithm 1: the selection loop that restarts every
// subset's candidate walk from its first mask after each accepted
// equation, with the row-major null-space arithmetic it was written
// against, a node-based seen set, and rows built from their definition
// rather than by equation_builder. The library's select_path_sets (tomo/pathset_select.cpp)
// resumes each walk instead and must reproduce this oracle's path sets,
// rows, counters and final null space exactly (==), while examining
// fewer candidates.
#pragma once

#include "ntom/tomo/pathset_select.hpp"

namespace ntom::testing_oracle {

/// Algorithm 1 with the restarting step-3 walk. Same inputs, outputs and
/// candidates_examined accounting as ntom::select_path_sets.
[[nodiscard]] pathset_selection select_path_sets(
    const topology& t, const subset_catalog& catalog, const bitvec& potcong,
    const pathset_selection_params& params = {},
    const pathset_predicate& usable = {});

}  // namespace ntom::testing_oracle
