// Linear solvers on top of the QR factorization.
//
// The tomographic systems are A x = b with A a 0/1 incidence-style
// matrix (possibly rank-deficient) and b measured log-probabilities.
// We need the minimum-norm least-squares solution plus per-coordinate
// identifiability so callers can distinguish "estimated" from
// "undetermined by the measurements".
#pragma once

#include <vector>

#include "ntom/linalg/matrix.hpp"
#include "ntom/linalg/sparse.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Solution of a (possibly rank-deficient) least-squares problem.
struct lstsq_result {
  std::vector<double> x;  ///< minimum-norm least-squares solution.
  std::size_t rank = 0;   ///< numerical rank of A.
  bitvec identifiable;    ///< per-coordinate: determined by A?
};

/// Minimum-norm least-squares solve of A x = b via column-pivoted QR on A
/// (complete orthogonal decomposition for the rank-deficient case).
/// Requires b.size() == a.rows().
[[nodiscard]] lstsq_result solve_least_squares(const matrix& a,
                                               const std::vector<double>& b,
                                               double rel_tol = 1e-10);

/// Sparse-row entry point: the equation builders assemble CSR systems
/// (one weighted 0/1 row per path set) and never materialize dense rows;
/// the dense image is staged once here for the QR. Results are
/// bit-identical to the dense overload on the same system.
[[nodiscard]] lstsq_result solve_least_squares(const sparse_matrix& a,
                                               const std::vector<double>& b,
                                               double rel_tol = 1e-10);

}  // namespace ntom
