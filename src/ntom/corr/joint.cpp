#include "ntom/corr/joint.hpp"

#include <algorithm>
#include <vector>

namespace ntom {

namespace {

/// Iterates all subsets B of `set`, calling fn(B_bitvec, |B|) over a
/// `universe`-bit universe. False if fn stopped the walk or `set` has
/// more than max_joint_members members (then fn is never called).
template <typename Fn>
bool for_each_subset(const bitvec& set, std::size_t universe, Fn&& fn) {
  const std::size_t k = set.count();
  if (k > max_joint_members) return false;
  // Member gather without the to_indices() heap allocation.
  std::size_t members[max_joint_members];
  std::size_t gathered = 0;
  set.for_each_set([&](std::size_t i) { members[gathered++] = i; });
  for (std::size_t mask = 0; mask < (std::size_t{1} << k); ++mask) {
    bitvec b(universe);
    std::size_t bits = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (mask & (std::size_t{1} << i)) {
        b.set(members[i]);
        ++bits;
      }
    }
    if (!fn(b, bits)) return false;
  }
  return true;
}

}  // namespace

std::optional<double> set_congestion_probability(const bitvec& congested_set,
                                                 const good_probability_fn& g) {
  double total = 0.0;
  const bool complete = for_each_subset(
      congested_set, congested_set.size(), [&](const bitvec& b, std::size_t bits) {
        double value = 1.0;
        if (!b.empty()) {
          const auto got = g(b);
          if (!got) return false;
          value = *got;
        }
        total += (bits % 2 == 0 ? 1.0 : -1.0) * value;
        return true;
      });
  if (!complete) return std::nullopt;
  return std::clamp(total, 0.0, 1.0);
}

std::optional<double> exact_state_probability(const bitvec& congested,
                                              const bitvec& good,
                                              const good_probability_fn& g) {
  double total = 0.0;
  const bool complete = for_each_subset(
      congested, congested.size(), [&](const bitvec& b, std::size_t bits) {
        bitvec arg = b;
        arg |= good;
        double value = 1.0;
        if (!arg.empty()) {
          const auto got = g(arg);
          if (!got) return false;
          value = *got;
        }
        total += (bits % 2 == 0 ? 1.0 : -1.0) * value;
        return true;
      });
  if (!complete) return std::nullopt;
  return std::clamp(total, 0.0, 1.0);
}

}  // namespace ntom
