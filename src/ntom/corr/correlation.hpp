// Correlation sets and potentially-congested links (§2, §5.2).
//
// The paper's Assumption 5 groups links into known correlation sets —
// one per AS in the monitoring scenario — such that links in different
// sets are independent. A correlation subset is a non-empty subset of a
// correlation set; a subset is *potentially congested* when none of its
// links is traversed by an always-good path (links on always-good paths
// are good by Separability, so their congestion probability is 0 and
// they drop out of every unknown).
#pragma once

#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Links whose every traversing path was congested at least once, i.e.
/// links NOT on any always-good path. Only covered links qualify (an
/// unobserved link cannot be estimated at all).
/// `always_good_paths` is a bit-set over paths.
[[nodiscard]] bitvec potentially_congested_links(const topology& t,
                                                 const bitvec& always_good_paths);

/// Complement Ē = (C ∩ potcong) \ E of a correlation subset E within its
/// correlation set (always-good links excluded; they are good w.p. 1 and
/// cannot distinguish path sets).
[[nodiscard]] bitvec subset_complement(const topology& t, const bitvec& subset,
                                       as_id as_number, const bitvec& potcong);

}  // namespace ntom
