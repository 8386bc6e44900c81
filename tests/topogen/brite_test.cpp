#include "ntom/topogen/brite.hpp"

#include <gtest/gtest.h>

#include "topology_checks.hpp"

namespace ntom {
namespace {

using testing_checks::measure_sparsity;
using testing_checks::paths_well_formed;

TEST(BriteTest, DeterministicInSeed) {
  topogen::brite_params p;
  p.seed = 7;
  const topology a = topogen::generate_brite(p);
  const topology b = topogen::generate_brite(p);
  EXPECT_EQ(a.num_links(), b.num_links());
  EXPECT_EQ(a.num_paths(), b.num_paths());
  for (path_id i = 0; i < a.num_paths(); ++i) {
    EXPECT_EQ(a.get_path(i).links(), b.get_path(i).links());
  }
}

TEST(BriteTest, DifferentSeedsDiffer) {
  topogen::brite_params p;
  p.seed = 1;
  const topology a = topogen::generate_brite(p);
  p.seed = 2;
  const topology b = topogen::generate_brite(p);
  // Not a strict requirement per-field, but the structures should differ.
  EXPECT_TRUE(a.num_links() != b.num_links() || a.num_paths() != b.num_paths() ||
              a.get_path(0).links() != b.get_path(0).links());
}

TEST(BriteTest, ProducesRequestedPathCount) {
  topogen::brite_params p;
  p.seed = 3;
  const topology t = topogen::generate_brite(p);
  // All (vantage, destination) pairs are routable in a connected graph.
  EXPECT_EQ(t.num_paths(), p.num_paths);
  EXPECT_TRUE(paths_well_formed(t));
}

TEST(BriteTest, PathsCrissCross) {
  // Density property the paper relies on for Brite topologies: many
  // paths cross each link, giving the equation system high rank.
  topogen::brite_params p;
  p.seed = 3;
  const topology t = topogen::generate_brite(p);
  const auto report = measure_sparsity(t);
  EXPECT_GT(report.path_overlap_fraction, 0.2);
  EXPECT_GT(report.mean_paths_per_link, 5.0);
}

TEST(BriteTest, MultipleAsesAndCorrelationStructure) {
  topogen::brite_params p;
  p.seed = 3;
  const topology t = topogen::generate_brite(p);
  EXPECT_GE(t.num_ases(), p.num_ases / 2);

  // Some AS-level links must share router-level links (otherwise the
  // No-Independence scenario is impossible).
  bool found_shared = false;
  for (router_link_id r = 0; r < t.num_router_links() && !found_shared; ++r) {
    found_shared = t.links_on_router_link(r).size() >= 2;
  }
  EXPECT_TRUE(found_shared);
}

TEST(BriteTest, EdgeLinksExist) {
  topogen::brite_params p;
  p.seed = 3;
  const topology t = topogen::generate_brite(p);
  std::size_t edge_links = 0;
  for (link_id e = 0; e < t.num_links(); ++e) {
    if (t.link(e).edge && t.covered_links().test(e)) ++edge_links;
  }
  // Concentrated Congestion needs a meaningful edge-link pool.
  EXPECT_GE(edge_links, 10u);
}

TEST(BriteTest, LinksBelongToValidAses) {
  topogen::brite_params p;
  p.seed = 9;
  const topology t = topogen::generate_brite(p);
  for (link_id e = 0; e < t.num_links(); ++e) {
    EXPECT_LT(t.link(e).as_number, t.num_ases());
    EXPECT_FALSE(t.link(e).router_links.empty());
  }
}

TEST(BriteTest, PaperScaleIsLarger) {
  const auto small = topogen::brite_params{};
  const auto paper = topogen::brite_params::paper_scale();
  EXPECT_GT(paper.num_ases, small.num_ases);
  EXPECT_GT(paper.num_paths, small.num_paths);
}

}  // namespace
}  // namespace ntom
