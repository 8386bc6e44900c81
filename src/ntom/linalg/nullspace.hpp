// Incremental null-space maintenance — Algorithm 2 of the paper.
//
// Algorithm 1 repeatedly asks "does adding equation r increase the rank
// of the system?" and, if yes, shrinks the null space by one dimension.
// Recomputing a QR per added row would cost O(n^3) each time; the paper's
// NullSpaceUpdate does it in O(n·p) given the current null-space basis N:
//
//   N' = (I_n - N_{*1} r / (r N_{*1})) N_{*2:p}
//
// (after permuting a column with r·N_col != 0 to the front).
#pragma once

#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// ||r x N||_inf: the largest |r . column of N|. Algorithm 1's test —
/// the row r increases the system rank iff this is (numerically) > 0.
[[nodiscard]] double row_nullspace_product(const std::vector<double>& r,
                                           const matrix& n);

/// True if appending row r to the system would increase its rank,
/// given N spans the system's null space.
[[nodiscard]] bool row_increases_rank(const std::vector<double>& r,
                                      const matrix& n, double tol = 1e-9);

/// Sparse 0/1 row: ||r x N||_inf where r has ones exactly at
/// `row_indices`. O(nnz * cols) — Algorithm 1 calls this per candidate
/// path set, so the dense O(n1 * cols) form is off the hot path.
[[nodiscard]] double row_nullspace_product(
    const std::vector<std::size_t>& row_indices, const matrix& n);

/// Sparse 0/1 row counterpart of row_increases_rank. Allocates nothing
/// and stops at the first column above tol (Algorithm 1 runs it per
/// usable candidate); same answer as row_nullspace_product(...) > tol.
[[nodiscard]] bool row_increases_rank(
    const std::vector<std::size_t>& row_indices, const matrix& n,
    double tol = 1e-9);

/// Algorithm 2 (NullSpaceUpdate): returns a basis of
/// { x in span(N) : r . x = 0 }, i.e. the null space after appending
/// row r to the system. If r . N == 0 (row adds no rank), N is returned
/// unchanged. The pivot column (largest |r . col|) is permuted to the
/// front before applying the paper's projection formula. The result
/// reuses N's storage: a caller that moves N in allocates no matrix.
[[nodiscard]] matrix null_space_update(matrix n, const std::vector<double>& r,
                                       double tol = 1e-9);

/// Sparse 0/1 row counterpart of null_space_update.
[[nodiscard]] matrix null_space_update(
    matrix n, const std::vector<std::size_t>& row_indices, double tol = 1e-9);

/// Hamming weight per row of N: the count of entries with |x| > tol.
/// Algorithm 1 sorts candidate correlation subsets by this weight
/// (SortByHammingWeight) to try the most promising rows first.
[[nodiscard]] std::vector<std::size_t> row_hamming_weights(
    const matrix& n, double tol = 1e-9);

/// Indices i whose null-space row is ~0 — exactly the unknowns that are
/// already determined by the system (identifiable coordinates), as a
/// bit-set over the unknowns.
[[nodiscard]] bitvec identifiable_coordinates(const matrix& n,
                                              double tol = 1e-7);

}  // namespace ntom
