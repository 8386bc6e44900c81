#include "ntom/topogen/brite_file.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ntom/topogen/registry.hpp"
#include "ntom/util/spec.hpp"
#include "topology_checks.hpp"

namespace ntom {
namespace {

using testing_checks::paths_well_formed;
using topogen::brite_file_params;
using topogen::import_brite_file;
using topogen::import_brite_file_text;

std::string data_path(const char* name) {
  return std::string(NTOM_TEST_DATA_DIR) + "/" + name;
}

/// Six routers in two ASes, BRITE top-down shape (full column noise on
/// the edge lines, comments, blank lines, CRLF on one line).
const char* const kSmallBrite =
    "Topology: ( 6 Nodes, 7 Edges )\n"
    "Model (5 - ASBarabasi): 6 1000 100 1 2 1 10.0 1024.0\n"
    "\n"
    "# a comment the parser must skip\n"
    "Nodes: ( 6 )\n"
    "0 10.0 20.0 2 2 0 AS_NODE\n"
    "1 30.0 40.0 3 3 0 AS_NODE\r\n"
    "2 50.0 60.0 2 2 0 AS_NODE\n"
    "3 70.0 80.0 2 2 1 AS_NODE\n"
    "4 90.0 15.0 3 3 1 AS_NODE\n"
    "5 25.0 35.0 2 2 1 AS_NODE\n"
    "\n"
    "Edges: ( 7 )\n"
    "0 0 1 1.0 0.5 10.0 0 0 E_AS U\n"
    "1 1 2 1.0 0.5 10.0 0 0 E_AS U\n"
    "2 2 0 1.0 0.5 10.0 0 0 E_AS U\n"
    "3 3 4 1.0 0.5 10.0 1 1 E_AS U\n"
    "4 4 5 1.0 0.5 10.0 1 1 E_AS U\n"
    "5 5 3 1.0 0.5 10.0 1 1 E_AS U\n"
    "6 1 4 1.0 0.5 10.0 0 1 E_AS U\n";

TEST(BriteFileImportTest, ParsesSmallDocument) {
  brite_file_params p;
  p.num_vantage = 2;
  p.num_paths = 8;
  p.seed = 5;
  const topology t = import_brite_file_text(kSmallBrite, p);
  EXPECT_TRUE(t.finalized());
  EXPECT_EQ(t.num_paths(), 8u);
  EXPECT_TRUE(paths_well_formed(t));
  // The generator's AS assignment survives: two correlation domains.
  EXPECT_LE(t.num_ases(), 6u);
  EXPECT_GE(t.covered_links().count(), 1u);
}

TEST(BriteFileImportTest, DeterministicInSeed) {
  brite_file_params p;
  p.num_vantage = 2;
  p.num_paths = 8;
  p.seed = 11;
  const topology a = import_brite_file_text(kSmallBrite, p);
  const topology b = import_brite_file_text(kSmallBrite, p);
  ASSERT_EQ(a.num_paths(), b.num_paths());
  ASSERT_EQ(a.num_links(), b.num_links());
  for (path_id i = 0; i < a.num_paths(); ++i) {
    EXPECT_EQ(a.get_path(i).links(), b.get_path(i).links());
  }
}

TEST(BriteFileImportTest, FlatRouterTopologyGetsPerNodeAses) {
  // ASid -1 marks flat (router-only) BRITE output: every router becomes
  // its own correlation set, like the ITZ import.
  const std::string text =
      "Topology: ( 3 Nodes, 3 Edges )\n"
      "Nodes: ( 3 )\n"
      "0 1.0 2.0 2 2 -1 RT_NODE\n"
      "1 3.0 4.0 2 2 -1 RT_NODE\n"
      "2 5.0 6.0 2 2 -1 RT_NODE\n"
      "Edges: ( 3 )\n"
      "0 0 1\n"
      "1 1 2\n"
      "2 2 0\n";
  brite_file_params p;
  p.num_vantage = 1;
  p.num_paths = 4;
  const topology t = import_brite_file_text(text, p);
  EXPECT_GE(t.num_paths(), 1u);
  EXPECT_TRUE(paths_well_formed(t));
}

TEST(BriteFileImportTest, ErrorCarriesByteOffsetOfBadLine) {
  const std::string text =
      "Topology: ( 2 Nodes, 1 Edges )\n"
      "Nodes: ( 2 )\n"
      "0 1.0 2.0 2 2 0\n"
      "1 3.0 4.0 2 2 0\n"
      "Edges: ( 1 )\n"
      "0 0 7\n";
  try {
    (void)import_brite_file_text(text, {});
    FAIL() << "expected spec_error";
  } catch (const spec_error& e) {
    EXPECT_NE(std::string(e.what()).find("brite_file"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown node 7"), std::string::npos);
    EXPECT_EQ(e.offset(), text.find("0 0 7"));
  }
}

TEST(BriteFileImportTest, RejectsMalformedDocuments) {
  // Node line with too few columns.
  EXPECT_THROW((void)import_brite_file_text("Nodes: ( 1 )\n0 1.0 2.0\n"
                                            "Edges: ( 0 )\n",
                                            {}),
               spec_error);
  // Edges before Nodes.
  EXPECT_THROW((void)import_brite_file_text("Edges: ( 1 )\n0 0 1\n", {}),
               spec_error);
  // Duplicate node id.
  EXPECT_THROW((void)import_brite_file_text(
                   "Nodes: ( 2 )\n0 1 2 3 4 0\n0 1 2 3 4 0\n"
                   "Edges: ( 1 )\n0 0 0\n",
                   {}),
               spec_error);
  // Duplicate Nodes section.
  EXPECT_THROW((void)import_brite_file_text(
                   "Nodes: ( 1 )\n0 1 2 3 4 0\nNodes: ( 1 )\n", {}),
               spec_error);
  // Non-numeric field.
  EXPECT_THROW((void)import_brite_file_text(
                   "Nodes: ( 1 )\nzero 1 2 3 4 0\nEdges: ( 0 )\n", {}),
               spec_error);
  // Missing sections entirely.
  EXPECT_THROW((void)import_brite_file_text("Topology: ( 0, 0 )\n", {}),
               spec_error);
}

TEST(BriteFileImportTest, LoadsVendoredSampleFixture) {
  brite_file_params p;
  p.file = data_path("sample.brite");
  p.num_vantage = 3;
  p.num_paths = 15;
  p.seed = 3;
  const topology t = import_brite_file(p);
  EXPECT_EQ(t.num_paths(), 15u);
  EXPECT_TRUE(paths_well_formed(t));
  // Three ASes in the fixture; the projection keeps at most that many.
  EXPECT_LE(t.num_ases(), 10u);
  EXPECT_GE(t.num_ases(), 2u);
}

TEST(BriteFileImportTest, MissingFileErrors) {
  brite_file_params p;
  p.file = data_path("no_such_file.brite");
  EXPECT_THROW((void)import_brite_file(p), spec_error);
}

TEST(BriteFileImportTest, RegisteredInTopologyRegistry) {
  const std::string spec_text =
      "brite_file,file='" + data_path("sample.brite") + "',paths=12,vantage=3";
  const topology t = make_topology(spec_text, 7);
  EXPECT_EQ(t.num_paths(), 12u);
  EXPECT_THROW((void)make_topology("brite_file", 7), spec_error);
}

}  // namespace
}  // namespace ntom
