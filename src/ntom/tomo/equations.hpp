// Eq. 1 in row form (§5.1, §5.2).
//
// For a path set P, Separability gives
//   P(∩_{p∈P} Y_p = 0) = Π_{C∈C*} P(∩_{e ∈ Links(P)∩C} X_e = 0),
// which is linear in the logs: one unknown log g(Links(P)∩C) per
// intersected correlation set. Row(P, Ê) marks those unknowns with a 1.
// A row is expressible only if every intersection is in the enumerated
// catalog (size caps can exclude large unions — the paper's resource
// knob); inexpressible path sets are skipped by Algorithm 1.
//
// log_system turns the rows and their measured all-good counts into the
// weighted least-squares system every Eq. 1 estimator solves.
#pragma once

#include <vector>

#include "ntom/corr/subsets.hpp"
#include "ntom/graph/topology.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Caller-owned buffers for equation_builder::row. `row` is the output;
/// the rest is working storage. row() sizes every buffer on first use
/// and afterwards only overwrites it, so a caller that keeps one
/// scratch across calls builds rows without touching the heap (once
/// `groups` has reached the most ASes a row touches). One scratch per
/// thread; the builder itself holds no mutable state.
struct equation_row_scratch {
  /// Sparse Row(P, Ê): ascending catalog indices. Valid after row()
  /// returned true; empty when P touches no potentially congested link.
  std::vector<std::size_t> row;

  bitvec links;                        ///< Links(P) ∩ potcong.
  std::vector<bitvec> groups;          ///< links of P per touched AS.
  std::vector<std::size_t> slot_of_as; ///< group of AS a; npos between calls.
  std::vector<as_id> touched_as;       ///< ASes whose slot to reset.
};

/// Builds Eq. 1 rows against a fixed catalog Ê. Immutable after
/// construction, so one builder may serve several threads, each with its
/// own equation_row_scratch.
///
/// A row is built in two steps: the link union Links(P) ∩ potcong of
/// the path set, then the row of that union. The second step reads
/// nothing but the union, so path sets with equal unions have equal
/// rows (or are all catalog misses); Algorithm 1 memoizes rows by union
/// on that ground (see pathset_select.hpp).
class equation_builder {
 public:
  equation_builder(const topology& t, const subset_catalog& catalog,
                   const bitvec& potcong);

  /// Writes Links(P) ∩ potcong for path set `path_set` into `links`,
  /// which is sized to the link universe on first use and afterwards
  /// only overwritten.
  void link_union(const bitvec& path_set, bitvec& links) const;

  /// Writes the row of link union `links` (a link_union output) into
  /// `scratch.row` and returns true; returns false (scratch.row
  /// unspecified) when some intersection `links` ∩ C is not in the
  /// catalog. `links` may be scratch.links.
  [[nodiscard]] bool row_of_links(const bitvec& links,
                                  equation_row_scratch& scratch) const;

  /// Row(P, Ê) for `path_set`: link_union into scratch.links, then
  /// row_of_links.
  [[nodiscard]] bool row(const bitvec& path_set,
                         equation_row_scratch& scratch) const;

 private:
  const topology* topo_;
  const subset_catalog* catalog_;
  bitvec potcong_;
};

/// Eq. 1's log-domain least-squares system, one row per usable path
/// set. A path set whose paths were all good in `count` of the
/// `observed` intervals in which it was fully observed gives its row
/// with target log(count / observed). Rows are weighted by
/// sqrt(count): var(log p̂) ≈ (1-p)/(T p) shrinks with the all-good
/// count, so well-observed equations dominate the fit (weights rescale
/// rows; the row space, hence identifiability, is unchanged).
class log_system {
 public:
  explicit log_system(std::size_t unknowns) : a_(unknowns) {}

  /// Appends the weighted row with ones at `cols` (ascending, < the
  /// unknown count), unless `count` is 0 (no finite log) or `cols` is
  /// empty (the path set touches no unknown).
  void add(const std::vector<std::size_t>& cols, std::size_t count,
           std::size_t observed);

  /// Rows appended so far.
  [[nodiscard]] std::size_t rows() const noexcept { return b_.size(); }

  /// The minimum-norm least-squares solution (linalg/solve.hpp).
  [[nodiscard]] lstsq_result solve() const {
    return solve_least_squares(a_, b_);
  }

 private:
  sparse_matrix a_;
  std::vector<double> b_;
};

}  // namespace ntom
