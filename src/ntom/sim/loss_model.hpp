// Packet-loss model of §3.2 (after Padmanabhan et al. [12]).
//
// A good link drops a uniform fraction in [0, f]; a congested link drops
// a uniform fraction in (f, 1]. A path of d links is classified
// congested when its end-to-end loss exceeds 1 - (1-f)^d — the d-link
// composition of the per-link threshold (the paper's "fraction f_d of
// the packets sent along path p_i", citing Duffield [8]).
#pragma once

#include <cstddef>

#include "ntom/util/rng.hpp"

namespace ntom {

/// Default per-link loss threshold f (the paper uses 0.01).
inline constexpr double default_loss_threshold = 0.01;

/// Draws a per-interval loss rate for a link in the given state.
[[nodiscard]] double sample_link_loss(rng& rand, bool congested,
                                      double f = default_loss_threshold);

/// End-to-end loss threshold for a path of d links: 1 - (1-f)^d.
[[nodiscard]] double path_congestion_threshold(
    std::size_t d, double f = default_loss_threshold);

}  // namespace ntom
