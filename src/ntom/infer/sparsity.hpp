// Sparsity (the paper's name for Tomo [6], Duffield's SCFS [8] adapted
// to mesh networks).
//
// Under the Homogeneity assumption — all links equally likely to be
// congested — the most parsimonious explanation is best: greedily pick
// the candidate link that covers the most still-unexplained congested
// paths until all are explained. The paper's §3.1 failure mode follows
// directly: when congestion sits at the network edge, a core link shared
// by many congested paths looks "better" than the several edge links
// that actually caused the observation.
//
// Cost per interval: each greedy round scores every candidate that can
// still cover a path by one fused AND+popcount of its path set against
// the uncovered congested paths (no bitvec is built per candidate), so
// a round is O(candidates x P/64) words. The output is the same as
// materializing each cover and counting it, bit for bit.
#pragma once

#include "ntom/infer/observation.hpp"

namespace ntom {

/// Infers the congested link set for one interval. Deterministic:
/// ties are broken toward the lower link id. Empty when nothing is
/// congested. On an unexplainable observation (a congested path with no
/// candidate link, see observation.hpp) it covers the paths that can be
/// covered and returns that set, which does not explain the observation.
[[nodiscard]] bitvec infer_sparsity(const topology& t,
                                    const interval_observation& obs);

}  // namespace ntom
