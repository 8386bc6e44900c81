// Microbenchmarks for the linear-algebra substrate, through the CSR
// entry points the estimators and Algorithm 1 call: the least-squares
// solve, the null-space basis, the sparse-row rank test, and the
// design-choice ablation behind Algorithm 1 — Algorithm 2's incremental
// null-space update vs a full QR recompute per appended equation.
//
//   ./micro_linalg --benchmark_min_time=0.05
//
// Each bench first checks the equivalence it relies on with
// micro_assert and aborts on a mismatch, so a run also checks results.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/linalg/sparse.hpp"
#include "ntom/util/rng.hpp"

namespace {

/// Micro assertion: abort loudly if a benchmarked equivalence breaks —
/// a benchmark that silently measures a wrong result is worthless.
void micro_assert(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "micro assertion failed: %s\n", what);
    std::abort();
  }
}

/// Ascending indices of a random 0/1 row.
std::vector<std::size_t> random_row(std::size_t cols, double density,
                                    ntom::rng& rand) {
  std::vector<std::size_t> idx;
  for (std::size_t c = 0; c < cols; ++c) {
    if (rand.bernoulli(density)) idx.push_back(c);
  }
  return idx;
}

/// Weighted 0/1 rows in CSR form, as the equation builders emit them.
ntom::sparse_matrix random_system(std::size_t rows, std::size_t cols,
                                  double density, std::uint64_t seed) {
  ntom::rng rand(seed);
  ntom::sparse_matrix m(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    m.append_row(random_row(cols, density, rand), rand.uniform(0.5, 2.0));
  }
  return m;
}

std::vector<double> random_targets(std::size_t rows) {
  ntom::rng rand(13);
  std::vector<double> b(rows);
  for (auto& x : b) x = -rand.uniform();
  return b;
}

/// ||A^T (A x - b)||_inf: zero at a least-squares solution.
double normal_residual(const ntom::sparse_matrix& a,
                       const std::vector<double>& b,
                       const std::vector<double>& x) {
  const ntom::matrix d = a.to_dense();
  std::vector<double> r(d.rows());
  for (std::size_t i = 0; i < d.rows(); ++i) {
    double s = -b[i];
    for (std::size_t j = 0; j < d.cols(); ++j) s += d(i, j) * x[j];
    r[i] = s;
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < d.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < d.rows(); ++i) s += d(i, j) * r[i];
    worst = std::max(worst, std::abs(s));
  }
  return worst;
}

void bm_null_space_basis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::sparse_matrix a = random_system(n / 2, n, 0.1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::null_space_basis(a));
  }
}
BENCHMARK(bm_null_space_basis)->Arg(32)->Arg(64)->Arg(128);

/// The k = 16 rows both null-space benches append, drawn once.
std::vector<std::vector<std::size_t>> appended_rows(std::size_t n) {
  ntom::rng rand(11);
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < 16; ++i) {
    rows.push_back(random_row(n, 0.1, rand));
  }
  return rows;
}

/// Algorithm 2: append the rows, updating N incrementally.
ntom::matrix incremental(const ntom::sparse_matrix& a,
                         const std::vector<std::vector<std::size_t>>& rows) {
  ntom::matrix nsp = ntom::null_space_basis(a);
  for (const auto& row : rows) {
    if (nsp.cols() == 0) break;
    nsp = ntom::null_space_update(std::move(nsp), row);
  }
  return nsp;
}

/// Baseline: recompute the null space from scratch per appended row.
ntom::matrix recompute(ntom::sparse_matrix a,
                       const std::vector<std::vector<std::size_t>>& rows) {
  ntom::matrix nsp = ntom::null_space_basis(a);
  for (const auto& row : rows) {
    if (nsp.cols() == 0) break;
    a.append_row(row);
    nsp = ntom::null_space_basis(a);
  }
  return nsp;
}

void bm_nullspace_incremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::sparse_matrix a = random_system(n / 2, n, 0.1, 7);
  const auto rows = appended_rows(n);
  micro_assert(incremental(a, rows).cols() == recompute(a, rows).cols(),
               "incremental nullity != recomputed nullity");
  for (auto _ : state) {
    benchmark::DoNotOptimize(incremental(a, rows));
  }
}
BENCHMARK(bm_nullspace_incremental)->Arg(64)->Arg(128);

void bm_nullspace_recompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::sparse_matrix a = random_system(n / 2, n, 0.1, 7);
  const auto rows = appended_rows(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recompute(a, rows));
  }
}
BENCHMARK(bm_nullspace_recompute)->Arg(64)->Arg(128);

void bm_least_squares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::sparse_matrix a = random_system(2 * n, n, 0.1, 7);
  const std::vector<double> b = random_targets(a.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::solve_least_squares(a, b));
  }
}
BENCHMARK(bm_least_squares)->Arg(32)->Arg(64)->Arg(128);

/// The solve on a tomography-shaped system: weighted 0/1 rows at about
/// five nonzeros per row, the size of a sparse-topology Independence
/// fit (4359 equations over 257 links). The QR dominates it.
void bm_least_squares_tomography(benchmark::State& state) {
  const ntom::sparse_matrix a = random_system(4359, 257, 5.0 / 257.0, 7);
  const std::vector<double> b = random_targets(a.rows());
  micro_assert(normal_residual(a, b, ntom::solve_least_squares(a, b).x) <
                   1e-8,
               "solution misses the normal equations A^T (A x - b) = 0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::solve_least_squares(a, b));
  }
}
BENCHMARK(bm_least_squares_tomography)->Unit(benchmark::kMillisecond);

/// Algorithm 1's inner test on sparse 0/1 candidate rows; asserts that
/// each verdict agrees with whether Algorithm 2 shrinks the basis.
void bm_row_increases_rank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::matrix nsp =
      ntom::null_space_basis(random_system(n / 2, n, 0.1, 7));
  ntom::rng rand(11);
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t r = 0; r < 64; ++r) {
    rows.push_back(random_row(n, 0.1, rand));
  }
  for (const auto& row : rows) {
    micro_assert(ntom::row_increases_rank(row, nsp) ==
                     (ntom::null_space_update(nsp, row).cols() < nsp.cols()),
                 "rank test disagrees with the null-space update");
  }
  for (auto _ : state) {
    for (const auto& row : rows) {
      benchmark::DoNotOptimize(ntom::row_increases_rank(row, nsp));
    }
  }
}
BENCHMARK(bm_row_increases_rank)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
