#include "ntom/tomo/equations.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ntom/linalg/sparse.hpp"
#include "ntom/sim/monitor.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using namespace topogen;

struct fixture {
  topology t = make_toy(toy_case::case1);
  bitvec potcong;
  subset_catalog catalog;
  fixture() {
    potcong = bitvec(t.num_links());
    for (link_id e = 0; e < t.num_links(); ++e) potcong.set(e);
    catalog = subset_catalog::build(t, potcong);
  }
};

bitvec paths(const topology& t, std::initializer_list<path_id> ids) {
  bitvec b(t.num_paths());
  for (const auto p : ids) b.set(p);
  return b;
}

TEST(EquationsTest, SinglePathRowMatchesFig2b) {
  // Eq. for {p1}: P(Yp1=0) = P(Xe1=0) P(Xe2=0) — unknowns {e1}, {e2}.
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(paths(f.t, {toy_p1}), s));
  const auto& row = s.row;
  ASSERT_EQ(row.size(), 2u);
  bitvec e1(f.t.num_links()), e2(f.t.num_links());
  e1.set(toy_e1);
  e2.set(toy_e2);
  EXPECT_EQ(f.catalog.find(e1), row[0]);
  EXPECT_EQ(f.catalog.find(e2), row[1]);
}

TEST(EquationsTest, PairRowUsesJointUnknown) {
  // Eq. for {p1,p2}: P(...) = P(Xe1=0) P(Xe2=0,Xe3=0) — the joint
  // subset {e2,e3} appears, not the singletons (Fig. 2(b), eq. 3).
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(paths(f.t, {toy_p1, toy_p2}), s));
  const auto& row = s.row;
  ASSERT_EQ(row.size(), 2u);
  bitvec e1(f.t.num_links()), e23(f.t.num_links());
  e1.set(toy_e1);
  e23.set(toy_e2);
  e23.set(toy_e3);
  EXPECT_EQ(f.catalog.find(e1), row[0]);
  EXPECT_EQ(f.catalog.find(e23), row[1]);
}

TEST(EquationsTest, AllPathsRowMatchesFig2b) {
  // Eq. for {p1,p2,p3}: P = P(Xe1=0) P(Xe4=0) P(Xe2=0,Xe3=0).
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(paths(f.t, {toy_p1, toy_p2, toy_p3}), s));
  EXPECT_EQ(s.row.size(), 3u);
}

TEST(EquationsTest, OneUnknownPerCorrelationSet) {
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  // Any path set: its row has at most one unknown per AS.
  equation_row_scratch s;
  for (std::uint32_t mask = 1; mask < 8; ++mask) {
    bitvec pset(f.t.num_paths());
    for (int b = 0; b < 3; ++b) {
      if (mask & (1u << b)) pset.set(static_cast<path_id>(b));
    }
    ASSERT_TRUE(builder.row(pset, s));
    std::vector<bool> seen_as(f.t.num_ases(), false);
    for (const auto idx : s.row) {
      const as_id a = f.catalog.subset_as(idx);
      EXPECT_FALSE(seen_as[a]) << "two unknowns from AS " << a;
      seen_as[a] = true;
    }
  }
}

TEST(EquationsTest, AlwaysGoodLinksDropOut) {
  fixture f;
  // Mark e2 as always good: the {p1} equation reduces to {e1} only.
  bitvec potcong = f.potcong;
  potcong.reset(toy_e2);
  const subset_catalog catalog = subset_catalog::build(f.t, potcong);
  equation_builder builder(f.t, catalog, potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(paths(f.t, {toy_p1}), s));
  const auto& row = s.row;
  ASSERT_EQ(row.size(), 1u);
  bitvec e1(f.t.num_links());
  e1.set(toy_e1);
  EXPECT_EQ(catalog.find(e1), row[0]);
}

TEST(EquationsTest, EmptyPathSetYieldsEmptyRow) {
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(bitvec(f.t.num_paths()), s));
  EXPECT_TRUE(s.row.empty());
}

TEST(EquationsTest, CatalogMissYieldsNullopt) {
  fixture f;
  // Cap the catalog to singletons; the {p1,p2} row needs {e2,e3}.
  subset_limits limits;
  limits.max_subset_size = 1;
  const subset_catalog capped = subset_catalog::build(f.t, f.potcong, limits);
  equation_builder builder(f.t, capped, f.potcong);
  equation_row_scratch s;
  EXPECT_FALSE(builder.row(paths(f.t, {toy_p1, toy_p2}), s));
  // Single-path rows remain expressible.
  EXPECT_TRUE(builder.row(paths(f.t, {toy_p1}), s));
}

TEST(EquationsTest, DenseRowLayout) {
  // A row staged as the estimators stage it: a 0/1 row over the catalog
  // with ones exactly at the row's subset indices.
  fixture f;
  equation_builder builder(f.t, f.catalog, f.potcong);
  equation_row_scratch s;
  ASSERT_TRUE(builder.row(paths(f.t, {toy_p1}), s));
  const auto& row = s.row;
  sparse_matrix system(f.catalog.size());
  system.append_row(row);
  const matrix dense = system.to_dense();
  ASSERT_EQ(dense.cols(), f.catalog.size());
  double sum = 0.0;
  for (std::size_t c = 0; c < dense.cols(); ++c) sum += dense(0, c);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(row.size()));
  for (const auto idx : row) EXPECT_EQ(dense(0, idx), 1.0);
}

TEST(EquationsTest, ReusedScratchMatchesFreshScratch) {
  // One scratch carried through every path set (a catalog miss among
  // them) and across two builders gives the rows a fresh scratch gives.
  fixture f;
  subset_limits limits;
  limits.max_subset_size = 1;
  const subset_catalog capped = subset_catalog::build(f.t, f.potcong, limits);
  const equation_builder full(f.t, f.catalog, f.potcong);
  const equation_builder singles(f.t, capped, f.potcong);
  equation_row_scratch reused;
  for (const equation_builder* builder : {&full, &singles, &full}) {
    for (std::uint32_t mask = 0; mask < 8; ++mask) {
      bitvec pset(f.t.num_paths());
      for (int b = 0; b < 3; ++b) {
        if (mask & (1u << b)) pset.set(static_cast<path_id>(b));
      }
      equation_row_scratch fresh;
      const bool want = builder->row(pset, fresh);
      ASSERT_EQ(builder->row(pset, reused), want) << "mask " << mask;
      if (want) {
        EXPECT_EQ(reused.row, fresh.row) << "mask " << mask;
      }
    }
  }
}

void expect_same_solution(const lstsq_result& a, const lstsq_result& b) {
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.identifiable, b.identifiable);
}

TEST(LogSystemTest, RowsAndTargetsMatchHandWeightedSystem) {
  // A full-rank system, so every row's weight and target shows in x.
  log_system system(3);
  system.add({0}, 3, 4);
  system.add({1}, 7, 10);
  system.add({0, 1, 2}, 1, 4);
  system.add({1, 2}, 10, 10);
  EXPECT_EQ(system.rows(), 4u);

  sparse_matrix a(3);
  std::vector<double> b;
  const auto row = [&](std::vector<std::size_t> cols, double count,
                       double observed) {
    const double weight = std::sqrt(count);
    a.append_row(cols, weight);
    b.push_back(std::log(count / observed) * weight);
  };
  row({0}, 3, 4);
  row({1}, 7, 10);
  row({0, 1, 2}, 1, 4);
  row({1, 2}, 10, 10);
  expect_same_solution(system.solve(), solve_least_squares(a, b));
  EXPECT_EQ(system.solve().rank, 3u);
}

TEST(LogSystemTest, SkipsZeroCountsAndEmptyRows) {
  // No finite log for a zero count; no unknown for an empty row. Both
  // are dropped without a trace: the system equals one built without
  // them.
  log_system system(2);
  system.add({0}, 0, 4);
  system.add({}, 3, 4);
  system.add({0, 1}, 2, 4);
  system.add({1}, 0, 9);
  EXPECT_EQ(system.rows(), 1u);

  log_system kept(2);
  kept.add({0, 1}, 2, 4);
  expect_same_solution(system.solve(), kept.solve());
}

TEST(LogSystemTest, EmptySystemSolvesToZero) {
  log_system system(4);
  system.add({2}, 0, 10);
  EXPECT_EQ(system.rows(), 0u);
  const lstsq_result solution = system.solve();
  EXPECT_EQ(solution.rank, 0u);
  EXPECT_EQ(solution.x, std::vector<double>(4, 0.0));
  EXPECT_EQ(solution.identifiable.size(), 4u);
  EXPECT_EQ(solution.identifiable.count(), 0u);
}

TEST(LogSystemTest, TargetsAreLogsOfEmpiricalAllGoodFrequencies) {
  // Counts read off a store (3 paths over 4 intervals): one unknown per
  // path set, so x is the log of the all-good frequency.
  experiment_data data;
  data.intervals = 4;
  data.path_good = bit_matrix(3, 4);
  bit_matrix& g = data.path_good;
  g.set(0, 0); g.set(0, 1); g.set(0, 3);  // p0: 1 1 0 1
  g.set(1, 0); g.set(1, 3);               // p1: 1 0 0 1
  const path_observations obs(data);
  bitvec p0(3), p01(3), p2(3);
  p0.set(0);
  p01.set(0);
  p01.set(1);
  p2.set(2);  // never good: count 0, no row.

  log_system system(4);
  system.add({0}, obs.count_all_good(p0), obs.intervals());
  system.add({1}, obs.count_all_good(p01), obs.intervals());
  system.add({2}, obs.count_all_good(p2), obs.intervals());
  system.add({3}, obs.count_all_good(bitvec(3)), obs.intervals());
  EXPECT_EQ(system.rows(), 3u);
  const lstsq_result solution = system.solve();
  EXPECT_NEAR(solution.x[0], std::log(0.75), 1e-12);
  EXPECT_NEAR(solution.x[1], std::log(0.5), 1e-12);
  EXPECT_EQ(solution.x[2], 0.0);
  EXPECT_FALSE(solution.identifiable.test(2));
  EXPECT_EQ(solution.x[3], 0.0);  // vacuously all good: log 1.
  EXPECT_TRUE(solution.identifiable.test(3));
}

}  // namespace
}  // namespace ntom
