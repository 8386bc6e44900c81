// Joint congestion probabilities inside a correlation set by
// inclusion–exclusion.
//
// Probability Computation estimates g(E) = P(all links in E good). Many
// consumers need the dual quantities: P(all links in S congested) — the
// paper's "congestion probability of a set of links" — and the
// probability of an exact network state (S congested, R good), which
// Bayesian Inference uses to score candidate solutions (§2):
//
//   P(∩_{e∈S} X_e = 1)            = Σ_{B⊆S} (-1)^{|B|} g(B)
//   P(S all congested, R all good) = Σ_{B⊆S} (-1)^{|B|} g(B ∪ R)
//
// Both sums need g on subsets that may be outside the identifiable
// family, so the query interface is optional-valued.
//
// Each sum has 2^|S| terms. Above max_joint_members members in S both
// functions return nullopt without evaluating g: the subset catalog
// stops at 4 links per subset by default and the MAP search at 12, so
// only a caller-built set or a raised subset_limits::max_subset_size
// gets there.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Source of "all good" probabilities: returns g(E) or nullopt when E is
/// not identifiable / not computed. g(∅) must be 1 (handled internally).
using good_probability_fn =
    std::function<std::optional<double>(const bitvec&)>;

/// Most members of S the inclusion-exclusion sums enumerate: 2^16 =
/// 65536 evaluations of g.
inline constexpr std::size_t max_joint_members = 16;

/// P(all links in `congested_set` congested). Empty set yields 1.
/// Returns nullopt if any required g(B) is unavailable or the set has
/// more than max_joint_members links. The result is clamped to [0, 1]
/// to absorb estimation noise.
[[nodiscard]] std::optional<double> set_congestion_probability(
    const bitvec& congested_set, const good_probability_fn& g);

/// P(all of S congested AND all of R good), S and R disjoint subsets of
/// one correlation set. Returns nullopt if some g(B ∪ R) is unavailable
/// or S has more than max_joint_members links.
[[nodiscard]] std::optional<double> exact_state_probability(
    const bitvec& congested, const bitvec& good, const good_probability_fn& g);

}  // namespace ntom
