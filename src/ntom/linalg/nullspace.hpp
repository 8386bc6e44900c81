// Null spaces of the tomographic systems, and incremental maintenance —
// Algorithm 2 of the paper.
//
// Algorithm 1 repeatedly asks "does adding equation r increase the rank
// of the system?" and, if yes, shrinks the null space by one dimension.
// Recomputing a QR per added row would cost O(n^3) each time; the paper's
// NullSpaceUpdate does it in O(n·p) given the current null-space basis N:
//
//   N' = (I_n - N_{*1} r / (r N_{*1})) N_{*2:p}
//
// (after permuting a column with r·N_col != 0 to the front).
//
// Rows are 0/1 and given by their ascending column indices, the shape
// the equation builders emit. The thresholds below are fixed: every
// caller uses the same value for each.
#pragma once

#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/sparse.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// The QR's rank threshold, relative to its largest diagonal (or 1,
/// whichever is larger); suits well-scaled 0/1 systems.
inline constexpr double rank_rel_tol = 1e-10;

/// |r . N_j| and null-space entries at or below this count as zero: the
/// rank test, Algorithm 2's pivot and column scaling, Hamming weights.
inline constexpr double null_space_tol = 1e-9;

/// A null-space row whose entries are all at or below this marks an
/// identifiable unknown.
inline constexpr double identifiable_tol = 1e-7;

/// Orthonormal basis of the null space of A (n x k, k = n - rank(A)):
/// the identity when A has no rows, else the basis the column-pivoted
/// QR of A's dense image yields (linalg/qr.hpp).
[[nodiscard]] matrix null_space_basis(const sparse_matrix& a);

/// True if appending the 0/1 row with ones at `row_indices` would
/// increase the rank of the system whose null space N spans, i.e. if
/// ||r x N||_inf > null_space_tol. Allocates nothing and stops at the
/// first column above the threshold (Algorithm 1 runs it per usable
/// candidate).
[[nodiscard]] bool row_increases_rank(
    const std::vector<std::size_t>& row_indices, const matrix& n);

/// Algorithm 2 (NullSpaceUpdate): returns a basis of
/// { x in span(N) : r . x = 0 }, i.e. the null space after appending
/// the 0/1 row r with ones at `row_indices`. If r adds no rank, N is
/// returned unchanged. The pivot column (largest |r . col|) is permuted
/// to the front before applying the paper's projection formula. The
/// result reuses N's storage: a caller that moves N in allocates no
/// matrix.
[[nodiscard]] matrix null_space_update(
    matrix n, const std::vector<std::size_t>& row_indices);

/// Hamming weight per row of N: the count of entries above
/// null_space_tol. Algorithm 1 sorts candidate correlation subsets by
/// this weight (SortByHammingWeight) to try the most promising rows
/// first.
[[nodiscard]] std::vector<std::size_t> row_hamming_weights(const matrix& n);

/// Indices i whose null-space row is ~0 (no entry above
/// identifiable_tol) — exactly the unknowns that are already determined
/// by the system (identifiable coordinates), as a bit-set over the
/// unknowns.
[[nodiscard]] bitvec identifiable_coordinates(const matrix& n);

}  // namespace ntom
