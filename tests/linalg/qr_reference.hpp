// Test oracle for the QR kernel: the original column-order Householder
// factorization, explicit Q included. The library's row-order kernel
// (linalg/qr.cpp) must reproduce its R, perm, rank, tolerance, and
// Q^T b exactly; the explicit Q lets the tests check A * P = Q * R.
#pragma once

#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"

namespace ntom::testing_oracle {

/// Column-pivoted Householder QR with the loops in column order:
/// A * P = q * f.r, q (m x m) orthogonal.
struct reference_qr {
  qr_decomposition f;
  matrix q;
};

/// Factorizes A and accumulates the explicit Q. The rank threshold is
/// the library's (rank_rel_tol).
[[nodiscard]] reference_qr qr_factorize(const matrix& a);

/// Factorizes A without Q and applies Q^T to `rhs` in place, as
/// ntom::qr_factorize_apply does.
[[nodiscard]] qr_decomposition qr_factorize_apply(const matrix& a,
                                                  std::vector<double>& rhs);

}  // namespace ntom::testing_oracle
