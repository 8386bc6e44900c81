// The least-squares solve of the tomographic systems.
//
// The systems are A x = b with A a weighted 0/1 incidence-style matrix
// (possibly rank-deficient) in CSR form, one row per path set, and b
// measured log-probabilities. Callers get the minimum-norm
// least-squares solution plus per-coordinate identifiability, so they
// can distinguish "estimated" from "undetermined by the measurements".
#pragma once

#include <vector>

#include "ntom/linalg/sparse.hpp"
#include "ntom/util/bitvec.hpp"

namespace ntom {

/// Solution of a (possibly rank-deficient) least-squares problem.
struct lstsq_result {
  std::vector<double> x;  ///< minimum-norm least-squares solution.
  std::size_t rank = 0;   ///< numerical rank of A.
  bitvec identifiable;    ///< per-coordinate: determined by A?
};

/// Minimum-norm least-squares solve of A x = b. The dense image of A is
/// staged once here for the column-pivoted QR (linalg/qr.hpp), whose
/// rank threshold is rank_rel_tol (nullspace.hpp). Requires
/// b.size() == a.rows().
[[nodiscard]] lstsq_result solve_least_squares(const sparse_matrix& a,
                                               const std::vector<double>& b);

}  // namespace ntom
