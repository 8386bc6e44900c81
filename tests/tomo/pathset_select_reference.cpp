#include "pathset_select_reference.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "ntom/corr/correlation.hpp"
#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/sparse.hpp"

namespace ntom::testing_oracle {

namespace {

/// Masks 1..2^k-1 ordered by popcount then value.
std::vector<std::uint32_t> masks_by_popcount(std::size_t k) {
  std::vector<std::uint32_t> masks((std::uint32_t{1} << k) - 1);
  std::iota(masks.begin(), masks.end(), 1u);
  std::stable_sort(masks.begin(), masks.end(),
                   [](std::uint32_t a, std::uint32_t b) {
                     return __builtin_popcount(a) < __builtin_popcount(b);
                   });
  return masks;
}

/// Orthonormal null-space basis of A from its factorization, built one
/// column of the row-major result at a time (back substitution, then
/// modified Gram-Schmidt).
matrix null_space_basis_by_columns(const matrix& a) {
  const std::size_t n = a.cols();
  std::vector<double> unused(a.rows(), 0.0);
  const qr_decomposition f = qr_factorize_apply(a, unused);
  const std::size_t r = f.rank;
  const std::size_t k = n - r;
  matrix basis(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> y(n, 0.0);
    y[r + j] = 1.0;
    for (std::size_t i = r; i-- > 0;) {
      double s = f.r(i, r + j);
      for (std::size_t c = i + 1; c < r; ++c) s += f.r(i, c) * y[c];
      y[i] = -s / f.r(i, i);
    }
    for (std::size_t c = 0; c < n; ++c) basis(f.perm[c], j) = y[c];
  }
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t prev = 0; prev < j; ++prev) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += basis(i, j) * basis(i, prev);
      for (std::size_t i = 0; i < n; ++i) basis(i, j) -= proj * basis(i, prev);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += basis(i, j) * basis(i, j);
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) basis(i, j) /= norm;
    }
  }
  return basis;
}

/// r . N per column for a 0/1 row with ones at `row_indices`.
std::vector<double> column_products(const std::vector<std::size_t>& row_indices,
                                    const matrix& n) {
  std::vector<double> rn(n.cols(), 0.0);
  for (const std::size_t i : row_indices) {
    for (std::size_t j = 0; j < n.cols(); ++j) rn[j] += n(i, j);
  }
  return rn;
}

bool increases_rank(const std::vector<std::size_t>& row_indices,
                    const matrix& n, double tol) {
  double best = 0.0;
  for (const double x : column_products(row_indices, n)) {
    best = std::max(best, std::abs(x));
  }
  return n.cols() > 0 && best > tol;
}

/// Algorithm 2 column by column into a fresh matrix.
matrix null_space_update_by_columns(matrix n,
                                    const std::vector<std::size_t>& row_indices,
                                    double tol) {
  std::vector<double> rn = column_products(row_indices, n);
  const std::size_t rows = n.rows();
  const std::size_t p = n.cols();
  if (p == 0) return n;
  std::size_t pivot = 0;
  for (std::size_t j = 1; j < p; ++j) {
    if (std::abs(rn[j]) > std::abs(rn[pivot])) pivot = j;
  }
  if (std::abs(rn[pivot]) <= tol) return n;
  for (std::size_t i = 0; i < rows; ++i) std::swap(n(i, 0), n(i, pivot));
  std::swap(rn[0], rn[pivot]);
  matrix updated(rows, p - 1);
  const double inv = 1.0 / rn[0];
  for (std::size_t j = 1; j < p; ++j) {
    const double scale = rn[j] * inv;
    for (std::size_t i = 0; i < rows; ++i) {
      updated(i, j - 1) = n(i, j) - scale * n(i, 0);
    }
  }
  for (std::size_t j = 0; j < updated.cols(); ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < rows; ++i) norm += updated(i, j) * updated(i, j);
    norm = std::sqrt(norm);
    if (norm > tol) {
      for (std::size_t i = 0; i < rows; ++i) updated(i, j) /= norm;
    }
  }
  return updated;
}

/// Row(P, Ê) from its definition, independent of equation_builder:
/// Links(P) ∩ potcong split by AS, each part looked up in the catalog;
/// nullopt on a catalog miss.
std::optional<std::vector<std::size_t>> row_of(const topology& t,
                                               const subset_catalog& catalog,
                                               const bitvec& potcong,
                                               const bitvec& pset) {
  const bitvec links = t.links_of_paths(pset) & potcong;
  std::map<as_id, bitvec> parts;
  links.for_each([&](std::size_t e) {
    const as_id a = t.link(static_cast<link_id>(e)).as_number;
    parts.try_emplace(a, t.num_links()).first->second.set(e);
  });
  std::vector<std::size_t> row;
  for (const auto& [a, part] : parts) {
    const std::size_t idx = catalog.find(part);
    if (idx == subset_catalog::npos) return std::nullopt;
    row.push_back(idx);
  }
  std::sort(row.begin(), row.end());
  return row;
}

}  // namespace

pathset_selection select_path_sets(const topology& t,
                                   const subset_catalog& catalog,
                                   const bitvec& potcong,
                                   const pathset_selection_params& params,
                                   const pathset_predicate& usable) {
  pathset_selection out;
  const std::size_t n1 = catalog.size();

  std::vector<bitvec> candidates(n1);
  std::vector<std::vector<std::size_t>> candidate_indices(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& e = catalog.subset(i);
    bitvec paths = t.paths_of_links(e);
    const bitvec complement =
        subset_complement(t, e, catalog.subset_as(i), potcong);
    paths.subtract(t.paths_of_links(complement));
    candidate_indices[i] = paths.to_indices();
    if (candidate_indices[i].size() > params.max_subset_paths) {
      candidate_indices[i].resize(params.max_subset_paths);
    }
    candidates[i] = std::move(paths);
  }

  std::unordered_set<bitvec, bitvec_hash> rejected;
  std::unordered_set<bitvec, bitvec_hash> accepted;

  auto try_accept = [&](const bitvec& pset)
      -> std::optional<std::vector<std::size_t>> {
    ++out.candidates_examined;
    if (pset.empty() || accepted.count(pset) || rejected.count(pset)) {
      return std::nullopt;
    }
    if (usable && !usable(pset)) {
      rejected.insert(pset);
      return std::nullopt;
    }
    auto row = row_of(t, catalog, potcong, pset);
    if (!row || row->empty()) {
      rejected.insert(pset);
      return std::nullopt;
    }
    return row;
  };

  // Step 1: seed equations.
  sparse_matrix system(n1);
  for (std::size_t i = 0; i < n1; ++i) {
    const bitvec& pset = candidates[i];
    auto row = try_accept(pset);
    if (!row) continue;
    accepted.insert(pset);
    out.path_sets.push_back(pset);
    out.rows.push_back(*row);
    system.append_row(*row);
  }
  out.seed_equations = out.path_sets.size();

  // Step 2: initial null space.
  matrix nsp = system.rows() == 0 ? matrix::identity(n1)
                                  : null_space_basis_by_columns(system.to_dense());

  // Step 3: every accepted equation restarts every subset's walk.
  std::vector<std::vector<std::uint32_t>> masks_of_size(
      params.max_subset_paths + 1);
  while (nsp.cols() > 0) {
    bool found = false;

    std::vector<std::size_t> order(n1);
    std::iota(order.begin(), order.end(), 0);
    const std::vector<std::size_t> weights = row_hamming_weights(nsp);
    if (params.sort_by_hamming_weight) {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return weights[a] > weights[b];
                       });
    }

    for (const std::size_t i : order) {
      if (weights[i] == 0) continue;
      const std::vector<std::size_t>& paths = candidate_indices[i];
      if (paths.empty()) continue;

      std::vector<std::uint32_t>& masks = masks_of_size[paths.size()];
      if (masks.empty()) masks = masks_by_popcount(paths.size());
      const std::size_t limit =
          std::min<std::size_t>(masks.size(), params.max_candidates_per_subset);
      for (std::size_t m = 0; m < limit && !found; ++m) {
        bitvec pset(t.num_paths());
        for (std::size_t b = 0; b < paths.size(); ++b) {
          if (masks[m] & (1u << b)) pset.set(paths[b]);
        }
        auto row = try_accept(pset);
        if (!row) continue;
        if (increases_rank(*row, nsp, null_space_tol)) {
          accepted.insert(pset);
          out.path_sets.push_back(pset);
          out.rows.push_back(*row);
          ++out.added_equations;
          nsp = null_space_update_by_columns(nsp, *row, null_space_tol);
          found = true;
        } else {
          rejected.insert(pset);
        }
      }
      if (found) break;
    }
    if (!found) break;
  }

  out.null_space = std::move(nsp);
  out.identifiable = identifiable_coordinates(out.null_space);
  return out;
}

}  // namespace ntom::testing_oracle
