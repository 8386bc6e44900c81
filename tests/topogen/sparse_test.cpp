#include "ntom/topogen/sparse.hpp"

#include <gtest/gtest.h>

#include "ntom/topogen/brite.hpp"
#include "topology_checks.hpp"

namespace ntom {
namespace {

using testing_checks::measure_sparsity;
using testing_checks::paths_well_formed;

TEST(SparseTest, DeterministicInSeed) {
  topogen::sparse_params p;
  p.seed = 7;
  const topology a = topogen::generate_sparse(p);
  const topology b = topogen::generate_sparse(p);
  EXPECT_EQ(a.num_links(), b.num_links());
  EXPECT_EQ(a.num_paths(), b.num_paths());
  for (path_id i = 0; i < a.num_paths(); ++i) {
    EXPECT_EQ(a.get_path(i).links(), b.get_path(i).links());
  }
}

TEST(SparseTest, DiscardFractionReducesPaths) {
  topogen::sparse_params p;
  p.seed = 3;
  p.keep_fraction = 0.5;
  const topology t = topogen::generate_sparse(p);
  // Expect roughly keep_fraction of attempted traceroutes to survive.
  EXPECT_LT(t.num_paths(), p.num_paths);
  EXPECT_GT(t.num_paths(), p.num_paths / 4);
  EXPECT_TRUE(paths_well_formed(t));
}

TEST(SparseTest, KeepAllWhenFractionIsOne) {
  topogen::sparse_params p;
  p.seed = 3;
  p.keep_fraction = 1.0;
  const topology t = topogen::generate_sparse(p);
  EXPECT_EQ(t.num_paths(), p.num_paths);
}

TEST(SparseTest, LowPathCrissCrossing) {
  topogen::sparse_params sp;
  sp.seed = 5;
  topogen::brite_params bp;
  bp.seed = 5;
  const auto sparse_report = measure_sparsity(topogen::generate_sparse(sp));
  const auto brite_report = measure_sparsity(topogen::generate_brite(bp));
  // The defining property (§3.2): few paths cross each link, so each
  // unknown appears in few equations and the system rank is low.
  EXPECT_LT(sparse_report.mean_paths_per_link,
            0.7 * brite_report.mean_paths_per_link);
  // Not degenerate either: the trunk links near the source are shared.
  EXPECT_GT(sparse_report.path_overlap_fraction, 0.05);
}

TEST(SparseTest, HierarchicalStructureHasManyAses) {
  topogen::sparse_params p;
  p.seed = 5;
  const topology t = topogen::generate_sparse(p);
  // source + peers + mid + stubs (only ASes touched by kept paths get
  // links, but the AS id space covers the hierarchy).
  EXPECT_GT(t.num_ases(), p.num_peers + 2);
}

TEST(SparseTest, SharedRouterLinksExist) {
  topogen::sparse_params p;
  p.seed = 5;
  const topology t = topogen::generate_sparse(p);
  bool found_shared = false;
  for (router_link_id r = 0; r < t.num_router_links() && !found_shared; ++r) {
    found_shared = t.links_on_router_link(r).size() >= 2;
  }
  EXPECT_TRUE(found_shared);
}

TEST(SparseTest, PaperScaleIsLarger) {
  const auto small = topogen::sparse_params{};
  const auto paper = topogen::sparse_params::paper_scale();
  EXPECT_GT(paper.num_stubs, small.num_stubs);
  EXPECT_GT(paper.num_paths, small.num_paths);
}

}  // namespace
}  // namespace ntom
