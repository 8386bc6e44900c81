#include "ntom/sim/monitor.hpp"

#include <cassert>

namespace ntom {

std::size_t path_observations::count_all_good(const bitvec& path_set) const {
  const std::size_t members = path_set.count();
  if (members == 0) return intervals();  // vacuously all good.
  // Singleton fast path: one row popcount — no AND kernel.
  if (members == 1) return good_matrix().count_row(path_set.find_first());
  return good_matrix().and_count(path_set);
}

void pathset_counter::begin(const topology& t, std::size_t) {
  intervals_ = 0;
  counts_.assign(sets_.size(), 0);
  observed_.assign(sets_.size(), 0);
  good_counts_.assign(t.num_paths(), 0);
  path_observed_.assign(t.num_paths(), 0);
  masked_seen_ = false;
}

void pathset_counter::consume(const measurement_chunk& chunk) {
  masked_seen_ = masked_seen_ || !chunk.fully_observed();
  tally(chunk, false);
}

void pathset_counter::retire(const measurement_chunk& chunk) {
  assert(chunk.count <= intervals_ && "retiring more than was consumed");
  tally(chunk, true);
}

void pathset_counter::tally(const measurement_chunk& chunk, bool retiring) {
  // retire() recomputes every term from the chunk's own rows and mask —
  // the exact mirror of consume(), so subtraction is always exact.
  const auto step = [retiring](std::size_t& counter, std::size_t n) {
    counter = retiring ? counter - n : counter + n;
  };
  const bit_matrix& good = chunk.path_good_major();
  const bool masked = !chunk.fully_observed();
  step(intervals_, chunk.count);
  const auto tally_path = [&](std::size_t p) {
    step(good_counts_[p], good.count_row(p));
    step(path_observed_[p], chunk.count);
  };
  if (masked) {
    // Unobserved rows of `good` are vacuously all-ones — only the
    // mask's paths carry real evidence.
    chunk.observed_paths.for_each(tally_path);
  } else {
    for (std::size_t p = 0; p < good.rows(); ++p) tally_path(p);
  }
  for (std::size_t i = 0; i < sets_.size(); ++i) {
    // A set only counts in intervals where EVERY member was probed; the
    // per-set denominator keeps the empirical probability unbiased
    // under any budget.
    if (masked && !sets_[i].is_subset_of(chunk.observed_paths)) continue;
    step(counts_[i], good.and_count(sets_[i]));
    step(observed_[i], chunk.count);
  }
}

bitvec pathset_counter::always_good_paths() const {
  bitvec out(good_counts_.size());
  for (std::size_t p = 0; p < good_counts_.size(); ++p) {
    if (masked_seen_) {
      // Good in every interval the path was actually probed, and probed
      // at least once. Reduces to the unmasked formula when every chunk
      // was unmasked (path_observed_ == intervals_ then).
      if (path_observed_[p] > 0 && good_counts_[p] == path_observed_[p]) {
        out.set(p);
      }
    } else if (good_counts_[p] == intervals_) {
      out.set(p);
    }
  }
  return out;
}

}  // namespace ntom
