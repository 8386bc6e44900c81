#include "topology_checks.hpp"

#include <gtest/gtest.h>

#include "ntom/topogen/brite.hpp"
#include "ntom/topogen/sparse.hpp"
#include "ntom/topogen/toy.hpp"

namespace ntom {
namespace {

using testing_checks::measure_sparsity;
using testing_checks::paths_well_formed;

TEST(WellFormedTest, ToyPathsAreWellFormed) {
  EXPECT_TRUE(paths_well_formed(topogen::make_toy(topogen::toy_case::case1)));
}

TEST(SparsityReportTest, ToyStatistics) {
  const topology t = topogen::make_toy(topogen::toy_case::case1);
  const auto report = measure_sparsity(t);
  EXPECT_EQ(report.covered_links, 4u);
  // Paths per link: e1:2, e2:1, e3:2, e4:1 -> mean 1.5.
  EXPECT_DOUBLE_EQ(report.mean_paths_per_link, 1.5);
  EXPECT_DOUBLE_EQ(report.mean_links_per_path, 2.0);
  // Overlapping pairs: (p1,p2) via e1, (p2,p3) via e3; (p1,p3) disjoint.
  EXPECT_NEAR(report.path_overlap_fraction, 2.0 / 3.0, 1e-12);
}

TEST(SparsityReportTest, SparseTopologyIsSparserThanBrite) {
  // The property the whole §3.2 "Sparse Topology" scenario rests on:
  // traceroute-derived views have far less path criss-crossing per link
  // than the dense Brite-like graphs (the system-rank driver). The raw
  // pairwise overlap fraction is dominated by the shared near-source
  // trunk — real traceroute sets share first hops too — so the
  // per-link coverage is the honest metric.
  topogen::brite_params bp;
  bp.seed = 5;
  topogen::sparse_params sp;
  sp.seed = 5;
  const auto brite = topogen::generate_brite(bp);
  const auto sparse = topogen::generate_sparse(sp);
  const auto brite_report = measure_sparsity(brite);
  const auto sparse_report = measure_sparsity(sparse);
  EXPECT_LT(sparse_report.mean_paths_per_link,
            0.7 * brite_report.mean_paths_per_link);
  // Sparse paths are longer (hierarchy depth) — more unknowns per
  // equation, another rank killer.
  EXPECT_GT(sparse_report.mean_links_per_path,
            brite_report.mean_links_per_path);
}

}  // namespace
}  // namespace ntom
