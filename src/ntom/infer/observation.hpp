// Per-interval observation pre-processing shared by all Boolean
// Inference algorithms.
//
// From one interval's congested-path set, Separability already pins
// down a lot: every link on a good path is good; the congested links
// must come from the remaining "candidate" links; and every congested
// path must contain at least one inferred congested link (otherwise the
// solution could not have produced the observation).
//
// Cost per interval: candidates come from the congested paths alone.
// Their link sets are unioned, and each link of the union is examined
// once, with one early-exit intersection of its path set against the
// good paths, so the work grows with the congested paths, not with all
// P paths. Fully observed intervals then take good_links as
// covered_links minus the candidates; masked ones union the good
// paths' links. Every field equals the link-union definition below,
// bit for bit (the oracle in tests/infer/observation_test.cpp checks
// all four).
//
// A solution explains an observation when it uses only candidate links
// and covers every congested path. An observation can be unexplainable:
// under probing noise a congested path may have all of its links on
// good paths, leaving it no candidate, so no solution explains it; the
// inference algorithms return what they pick among the candidates for
// the paths that can be explained.
#pragma once

#include "ntom/graph/topology.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

struct interval_observation {
  bitvec congested_paths;  ///< observed congested paths (over paths).
  bitvec good_paths;       ///< the other monitored paths.
  bitvec good_links;       ///< links on >= 1 good path: good by Separability.
  bitvec candidate_links;  ///< links on congested paths and no good path.
};

/// Builds the observation for one interval.
[[nodiscard]] interval_observation make_observation(
    const topology& t, const bitvec& congested_paths);

/// Probe-budget variant: only `observed_paths` were measured this
/// interval (empty = fully observed, identical to the overload above).
/// Good paths are the OBSERVED non-congested paths — an unprobed path
/// pins down nothing, so Separability only clears links on paths that
/// were actually seen good.
[[nodiscard]] interval_observation make_observation(
    const topology& t, const bitvec& congested_paths,
    const bitvec& observed_paths);

}  // namespace ntom
