#include "ntom/linalg/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {

/// One Householder reflector: the rows it touches (its diagonal row and
/// every row below with a nonzero pivot-column entry, since a zero entry
/// adds exact zeros to every sum), its vector on those rows, and its
/// scalars. `live` is false for a skipped reflector (the column below
/// the diagonal is zero).
struct reflector {
  std::vector<std::size_t> rows;
  std::vector<double> v;
  double alpha = 0.0;
  double vnorm2 = 0.0;
  bool live = false;
};

/// Brings the largest remaining column norm to position c (R's columns
/// are swapped by gather()); returns the pivot.
std::size_t select_pivot(std::vector<double>& col_norm2,
                         std::vector<std::size_t>& perm, std::size_t c) {
  std::size_t pivot = c;
  for (std::size_t j = c + 1; j < col_norm2.size(); ++j) {
    if (col_norm2[j] > col_norm2[pivot]) pivot = j;
  }
  std::swap(col_norm2[c], col_norm2[pivot]);
  std::swap(perm[c], perm[pivot]);
  return pivot;
}

/// One strided pass over R: swaps columns c and p in every row and reads
/// reflector c off column c of rows c..m-1. When `prev` (reflector c-1,
/// row c-1 already finished, its scaled dot in `s` with s[c] and s[p]
/// swapped) is given, its update is applied to column c of its other
/// rows first, with the very multiply and add the row walk would do, and
/// their column c-1 is zeroed.
void gather(matrix& r, std::size_t c, std::size_t p, const reflector* prev,
            const std::vector<double>& s, reflector& out) {
  out.rows.clear();
  out.v.clear();
  double norm_x = 0.0;
  std::size_t t = 1;
  for (std::size_t i = p != c ? 0 : c; i < r.rows(); ++i) {
    double* row = r.row_ptr(i);
    if (p != c) std::swap(row[c], row[p]);
    if (i < c) continue;
    double x = row[c];
    if (prev != nullptr && t < prev->rows.size() && prev->rows[t] == i) {
      x = x + (-prev->v[t]) * s[c];
      row[c] = x;
      row[c - 1] = 0.0;
      ++t;
    }
    if (x == 0.0 && i != c) continue;
    out.rows.push_back(i);
    out.v.push_back(x);
    norm_x += x * x;
  }
  norm_x = std::sqrt(norm_x);
  out.live = false;
  if (norm_x == 0.0) return;
  out.alpha = out.v[0] >= 0.0 ? -norm_x : norm_x;
  out.v[0] = out.v[0] - out.alpha;
  out.vnorm2 = 0.0;
  for (const double x : out.v) out.vnorm2 += x * x;
  out.live = out.vnorm2 != 0.0;
}

/// Q-free pivoted Householder QR in row order (contract in qr.hpp). When
/// `rhs` is non-null, also applies the reflectors to it: rhs <- Q^T rhs.
qr_decomposition factorize_rows(const matrix& a, std::vector<double>* rhs) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  qr_decomposition out;
  out.r = a;
  out.perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.perm[j] = j;

  // Squared column norms of the trailing submatrix, used for pivoting.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = out.r.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) col_norm2[j] += row[j] * row[j];
  }

  // Per-call scratch: grid cells factor concurrently. At step k, `prev`
  // is reflector k-1 (its own row finished, its scaled dot in `s`) and
  // `cur` is reflector k, whose dot the walk sums into `s_cur`.
  reflector prev;
  reflector cur;
  std::vector<double> s(n);
  std::vector<double> s_cur(n);
  // The walk as simd::reflect_rows takes it: row pointers, each row's
  // coefficients, and whether it is in k-1 (bit 1), in k (bit 2) or both.
  std::vector<double*> rows;
  std::vector<double> rows_a;
  std::vector<double> rows_b;
  std::vector<unsigned char> in;

  const std::size_t steps = std::min(m, n);
  bool pending = false;  // prev is live: rows below k-1 still need it
  for (std::size_t k = 0; k < steps; ++k) {
    // Reflector k from the pivot column after update k-1.
    const std::size_t p = select_pivot(col_norm2, out.perm, k);
    if (pending) std::swap(s[k], s[p]);
    gather(out.r, k, p, pending ? &prev : nullptr, s, cur);

    // One walk over the rows of k-1 and k in ascending order: update k-1
    // on columns k+1.., then add each updated row into k's dot.
    const std::size_t lead = k + 1;
    const std::size_t width = n - lead;
    rows.clear();
    rows_a.clear();
    rows_b.clear();
    in.clear();
    const std::size_t nt = pending ? prev.rows.size() : 0;
    const std::size_t nu = cur.live ? cur.rows.size() : 0;
    for (std::size_t t = 1, u = 0; t < nt || u < nu;) {
      const std::size_t ti = t < nt ? prev.rows[t] : m;
      const std::size_t ui = u < nu ? cur.rows[u] : m;
      rows.push_back(out.r.row_ptr(std::min(ti, ui)) + lead);
      rows_a.push_back(ti <= ui ? -prev.v[t++] : 0.0);
      rows_b.push_back(ui <= ti ? cur.v[u++] : 0.0);
      in.push_back((ti <= ui ? 1 : 0) | (ui <= ti ? 2 : 0));
    }
    std::fill(s_cur.begin() + lead, s_cur.end(), 0.0);
    for (std::size_t lo = 0; lo < rows.size();) {
      std::size_t hi = lo + 1;
      while (hi < rows.size() && in[hi] == in[lo]) ++hi;
      simd::reflect_rows(rows.data() + lo, hi - lo,
                         (in[lo] & 1) != 0 ? rows_a.data() + lo : nullptr,
                         s.data() + lead,
                         (in[lo] & 2) != 0 ? rows_b.data() + lo : nullptr,
                         s_cur.data() + lead, width);
      lo = hi;
    }

    pending = cur.live;
    if (!pending) continue;
    std::swap(prev, cur);
    std::swap(s, s_cur);

    // H = I - 2 v v^T / (v^T v) updates row i by R(i, :) += (-v_i) s
    // with s = 2 (v^T R) / (v^T v).
    for (std::size_t j = lead; j < n; ++j) s[j] = 2.0 * s[j] / prev.vnorm2;

    // Same reflector on the right-hand side (rhs <- H rhs, so the
    // finished vector is H_s ... H_1 rhs = Q^T rhs).
    if (rhs != nullptr) {
      std::vector<double>& b = *rhs;
      double sb = 0.0;
      for (std::size_t t = 0; t < prev.rows.size(); ++t) {
        sb += prev.v[t] * b[prev.rows[t]];
      }
      sb = 2.0 * sb / prev.vnorm2;
      for (std::size_t t = 0; t < prev.rows.size(); ++t) {
        b[prev.rows[t]] -= sb * prev.v[t];
      }
    }

    // Row k now, the others in the next step's walk: its new entries
    // downdate the column norms that pick the next pivot.
    double* row_k = out.r.row_ptr(k);
    double* tail = row_k + lead;
    const double neg_v0 = -prev.v[0];
    simd::reflect_rows(&tail, 1, &neg_v0, s.data() + lead, nullptr, nullptr,
                       width);
    row_k[k] = prev.alpha;
    for (std::size_t j = lead; j < n; ++j) {
      col_norm2[j] -= row_k[j] * row_k[j];
      if (col_norm2[j] < 0.0) col_norm2[j] = 0.0;
    }
  }
  // The last reflector has no column right of it (steps == n) or no row
  // below it (steps == m): only its own column is left to zero.
  if (pending) {
    for (std::size_t t = 1; t < prev.rows.size(); ++t) {
      out.r(prev.rows[t], steps - 1) = 0.0;
    }
  }

  double max_diag = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    max_diag = std::max(max_diag, std::abs(out.r(k, k)));
  }
  out.tolerance = rank_rel_tol * std::max(max_diag, 1.0);
  // The leading run of diagonals above the tolerance: a skipped
  // reflector midway ends it, so R11 is nonsingular by construction.
  out.rank = 0;
  while (out.rank < steps &&
         std::abs(out.r(out.rank, out.rank)) > out.tolerance) {
    ++out.rank;
  }
  return out;
}

}  // namespace

qr_decomposition qr_factorize_apply(const matrix& a,
                                    std::vector<double>& rhs) {
  assert(rhs.size() == a.rows());
  return factorize_rows(a, &rhs);
}

matrix null_space_basis(const qr_decomposition& f) {
  const std::size_t n = f.r.cols();
  const std::size_t r = f.rank;
  const std::size_t k = n - r;
  if (k == 0) return matrix(n, 0);

  // Built transposed: basis vector j is the contiguous row j of `vt`, so
  // Gram-Schmidt walks every vector with stride 1. Each entry sees the
  // same operations in the same order as in a column-at-a-time loop over
  // the n x k result (tests/tomo/pathset_select_reference), so the two
  // compare equal (==).
  matrix vt(k, n);
  std::vector<double> y(n);

  // For each free column j (pivoted index r+j), back-substitute
  // R11 * y1 = -R12[:, j] and scatter through the permutation.
  for (std::size_t j = 0; j < k; ++j) {
    std::fill(y.begin(), y.end(), 0.0);
    y[r + j] = 1.0;
    for (std::size_t i = r; i-- > 0;) {
      double s = f.r(i, r + j);
      for (std::size_t c = i + 1; c < r; ++c) s += f.r(i, c) * y[c];
      y[i] = -s / f.r(i, i);
    }
    double* v = vt.row_ptr(j);
    for (std::size_t c = 0; c < n; ++c) v[f.perm[c]] = y[c];
  }

  // Modified Gram-Schmidt for a well-conditioned basis.
  for (std::size_t j = 0; j < k; ++j) {
    double* v = vt.row_ptr(j);
    for (std::size_t prev = 0; prev < j; ++prev) {
      const double* u = vt.row_ptr(prev);
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += v[i] * u[i];
      for (std::size_t i = 0; i < n; ++i) v[i] -= proj * u[i];
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += v[i] * v[i];
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
    }
  }
  return vt.transposed();
}

matrix null_space_basis(const matrix& a) {
  if (a.rows() == 0) return matrix::identity(a.cols());
  return null_space_basis(factorize_rows(a, nullptr));
}

}  // namespace ntom
