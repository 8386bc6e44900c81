// Microbenchmarks for the linear-algebra substrate, including the
// design-choice ablation DESIGN.md calls out: Algorithm 2's incremental
// null-space update vs a full QR recompute per appended equation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "ntom/linalg/nullspace.hpp"
#include "ntom/linalg/qr.hpp"
#include "ntom/linalg/solve.hpp"
#include "ntom/linalg/sparse.hpp"
#include "ntom/util/rng.hpp"

namespace {

ntom::matrix random_binary_matrix(std::size_t rows, std::size_t cols,
                                  double density, std::uint64_t seed) {
  ntom::rng rand(seed);
  ntom::matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rand.bernoulli(density) ? 1.0 : 0.0;
    }
  }
  return m;
}

std::vector<double> random_binary_row(std::size_t cols, double density,
                                      ntom::rng& rand) {
  std::vector<double> row(cols, 0.0);
  for (auto& x : row) x = rand.bernoulli(density) ? 1.0 : 0.0;
  return row;
}

void bm_null_space_basis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::matrix a = random_binary_matrix(n / 2, n, 0.1, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::null_space_basis(a));
  }
}
BENCHMARK(bm_null_space_basis)->Arg(32)->Arg(64)->Arg(128);

/// Algorithm 2: append `k` rank-increasing rows, updating N incrementally.
void bm_nullspace_incremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 16;
  const ntom::matrix a = random_binary_matrix(n / 2, n, 0.1, 7);
  for (auto _ : state) {
    ntom::rng rand(11);
    ntom::matrix nsp = ntom::null_space_basis(a);
    for (std::size_t i = 0; i < k && nsp.cols() > 0; ++i) {
      const auto row = random_binary_row(n, 0.1, rand);
      nsp = ntom::null_space_update(nsp, row);
    }
    benchmark::DoNotOptimize(nsp);
  }
}
BENCHMARK(bm_nullspace_incremental)->Arg(64)->Arg(128);

/// Baseline: recompute the null space from scratch per appended row.
void bm_nullspace_recompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 16;
  const ntom::matrix base = random_binary_matrix(n / 2, n, 0.1, 7);
  for (auto _ : state) {
    ntom::rng rand(11);
    ntom::matrix a = base;
    ntom::matrix nsp = ntom::null_space_basis(a);
    for (std::size_t i = 0; i < k && nsp.cols() > 0; ++i) {
      a.append_row(random_binary_row(n, 0.1, rand));
      nsp = ntom::null_space_basis(a);
    }
    benchmark::DoNotOptimize(nsp);
  }
}
BENCHMARK(bm_nullspace_recompute)->Arg(64)->Arg(128);

void bm_least_squares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::matrix a = random_binary_matrix(2 * n, n, 0.1, 7);
  ntom::rng rand(13);
  std::vector<double> b(2 * n);
  for (auto& x : b) x = -rand.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::solve_least_squares(a, b));
  }
}
BENCHMARK(bm_least_squares)->Arg(32)->Arg(64)->Arg(128);

/// Micro assertion: abort loudly if a benchmarked equivalence breaks —
/// a benchmark that silently measures a wrong result is worthless.
void micro_assert(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "micro assertion failed: %s\n", what);
    std::abort();
  }
}

/// Weighted 0/1 rows in CSR form, as the equation builders emit them.
ntom::sparse_matrix random_sparse_system(std::size_t rows, std::size_t cols,
                                         double density, std::uint64_t seed) {
  ntom::rng rand(seed);
  ntom::sparse_matrix m(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rand.bernoulli(density)) idx.push_back(c);
    }
    m.append_row(idx, rand.uniform(0.5, 2.0));
  }
  return m;
}

/// The QR kernel on a tomography-shaped system: weighted 0/1 rows at
/// about five nonzeros per row, the size of a sparse-topology
/// Independence fit (4359 equations over 257 links).
void bm_qr_factorize(benchmark::State& state) {
  const ntom::matrix a =
      random_sparse_system(4359, 257, 5.0 / 257.0, 7).to_dense();
  ntom::rng rand(13);
  std::vector<double> b(a.rows());
  for (auto& x : b) x = -rand.uniform();
  for (auto _ : state) {
    std::vector<double> rhs = b;
    benchmark::DoNotOptimize(ntom::qr_factorize_apply(a, rhs));
    benchmark::DoNotOptimize(rhs.data());
  }
}
BENCHMARK(bm_qr_factorize)->Unit(benchmark::kMillisecond);

/// Sparse-row least squares (the hot path after the CSR rewiring);
/// asserts the sparse and dense solves agree bit-for-bit.
void bm_least_squares_sparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::sparse_matrix a = random_sparse_system(2 * n, n, 0.1, 7);
  ntom::rng rand(13);
  std::vector<double> b(2 * n);
  for (auto& x : b) x = -rand.uniform();

  micro_assert(ntom::solve_least_squares(a, b).x ==
                   ntom::solve_least_squares(a.to_dense(), b).x,
               "sparse lstsq != dense lstsq");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntom::solve_least_squares(a, b));
  }
}
BENCHMARK(bm_least_squares_sparse)->Arg(32)->Arg(64)->Arg(128);

/// Algorithm 1's inner test on sparse 0/1 candidate rows vs the old
/// dense staging; asserts both encodings agree before measuring.
void bm_nullspace_sparse_row_test(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ntom::matrix a = random_binary_matrix(n / 2, n, 0.1, 7);
  const ntom::matrix nsp = ntom::null_space_basis(a);

  ntom::rng rand(11);
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t r = 0; r < 64; ++r) {
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < n; ++c) {
      if (rand.bernoulli(0.1)) idx.push_back(c);
    }
    rows.push_back(std::move(idx));
  }
  for (const auto& idx : rows) {
    std::vector<double> dense(n, 0.0);
    for (const std::size_t c : idx) dense[c] = 1.0;
    micro_assert(ntom::row_nullspace_product(idx, nsp) ==
                     ntom::row_nullspace_product(dense, nsp),
                 "sparse row product != dense row product");
  }

  for (auto _ : state) {
    for (const auto& idx : rows) {
      benchmark::DoNotOptimize(ntom::row_increases_rank(idx, nsp));
    }
  }
}
BENCHMARK(bm_nullspace_sparse_row_test)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
