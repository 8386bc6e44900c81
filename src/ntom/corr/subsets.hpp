// Enumeration of the potentially congested correlation subsets Ê that
// can appear in Eq. 1 equations (§5.2, §5.3).
//
// The unknown contributed by path set P and correlation set C is
// Links(P) ∩ C (restricted to potentially congested links). Since
// Links(P) = ∪_{p∈P} links(p), the family of subsets that can appear is
// exactly the union-closure of { links(p) ∩ C : p ∈ P* } within each
// correlation set. Real correlation sets can make this family huge, so
// the paper makes the computed family configurable ("compute only the
// congestion probability of each set of one, two, or three links",
// §4); we cap by subset size and per-AS count.
#pragma once

#include <cstddef>
#include <vector>

#include "ntom/graph/topology.hpp"
#include "ntom/util/bitvec.hpp"
#include "ntom/util/intern_table.hpp"

namespace ntom {

/// Limits on the enumerated family (the paper's resource knob).
struct subset_limits {
  std::size_t max_subset_size = 4;    ///< ignore unions larger than this.
  std::size_t max_subsets_per_as = 96;
};

/// The ordered list Ê of candidate unknowns plus lookup indexes.
class subset_catalog {
 public:
  subset_catalog() = default;

  /// Number of subsets (the n1 of the complexity bound).
  [[nodiscard]] std::size_t size() const noexcept { return subsets_.size(); }

  [[nodiscard]] const bitvec& subset(std::size_t i) const noexcept {
    return subsets_[i];
  }
  [[nodiscard]] as_id subset_as(std::size_t i) const noexcept {
    return subset_as_[i];
  }

  /// Index of a subset, or npos if it is not in the catalog.
  static constexpr std::size_t npos = intern_table::npos;
  [[nodiscard]] std::size_t find(const bitvec& subset) const {
    return index_.find(subset);
  }

  /// Indices of all singleton subsets, ordered by link id; the per-link
  /// probability outputs (Fig. 4(a)-(c)) read these.
  [[nodiscard]] const std::vector<std::size_t>& singleton_indices() const noexcept {
    return singletons_;
  }

  /// Singleton index for link e, or npos if {e} cannot appear in any
  /// equation (then P(X_e) is not directly expressible).
  [[nodiscard]] std::size_t singleton_of(link_id e) const;

  /// Builds Ê for the given potentially congested links. Subsets are
  /// ordered by AS, then by size, then by link indices. Where an AS's
  /// family reaches max_subsets_per_as, which subsets it holds depends
  /// only on path order (see build).
  [[nodiscard]] static subset_catalog build(const topology& t,
                                            const bitvec& potcong,
                                            const subset_limits& limits = {});

 private:
  std::vector<bitvec> subsets_;
  std::vector<as_id> subset_as_;
  std::vector<std::size_t> singletons_;
  intern_table index_;  ///< subset words -> index (ids follow subsets_).
  std::vector<std::size_t> singleton_by_link_;  ///< npos: {e} absent.
};

}  // namespace ntom
