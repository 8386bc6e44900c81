#include "ntom/topogen/itz.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ntom/topogen/registry.hpp"
#include "ntom/util/spec.hpp"
#include "topology_checks.hpp"

namespace ntom {
namespace {

using testing_checks::paths_well_formed;
using topogen::import_itz;
using topogen::import_itz_text;
using topogen::itz_params;

std::string data_path(const char* name) {
  return std::string(NTOM_TEST_DATA_DIR) + "/" + name;
}

/// A minimal Zoo-shaped document: declaration, comment, <key>/<data>
/// noise, four PoPs in a cycle with one chord.
const char* const kSmallGraphml = R"(<?xml version="1.0" encoding="utf-8"?>
<!-- comment before the graph -->
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="label" attr.type="string" for="node" id="d0" />
  <graph edgedefault="undirected">
    <node id="A"><data key="d0">Alpha</data></node>
    <node id="B" />
    <node id="C" />
    <node id="D" />
    <edge source="A" target="B" />
    <edge source="B" target="C" />
    <edge source="C" target="D" />
    <edge source="D" target="A" />
    <edge source="A" target="C" />
  </graph>
</graphml>)";

TEST(ItzImportTest, ParsesSmallDocument) {
  itz_params p;
  p.num_vantage = 2;
  // 2 vantage x 2 destination nodes: at most 4 routable pairs.
  p.num_paths = 4;
  p.seed = 5;
  const topology t = import_itz_text(kSmallGraphml, p);
  EXPECT_TRUE(t.finalized());
  EXPECT_EQ(t.num_paths(), 4u);
  EXPECT_TRUE(paths_well_formed(t));
  // Every PoP is its own correlation set, so no more ASes than nodes.
  EXPECT_LE(t.num_ases(), 4u);
  EXPECT_GE(t.covered_links().count(), 1u);
}

TEST(ItzImportTest, DeterministicInSeed) {
  itz_params p;
  p.num_vantage = 2;
  p.num_paths = 6;
  p.seed = 9;
  const topology a = import_itz_text(kSmallGraphml, p);
  const topology b = import_itz_text(kSmallGraphml, p);
  ASSERT_EQ(a.num_paths(), b.num_paths());
  ASSERT_EQ(a.num_links(), b.num_links());
  for (path_id i = 0; i < a.num_paths(); ++i) {
    EXPECT_EQ(a.get_path(i).links(), b.get_path(i).links());
  }
}

TEST(ItzImportTest, DecodesEntitiesAndSkipsNoise) {
  const std::string text = R"(<?xml version="1.0"?>
<graphml><graph>
  <!-- node ids with XML entities -->
  <node id="a&amp;b" />
  <node id="c&lt;d" />
  <edge source="a&amp;b" target="c&lt;d" />
</graph></graphml>)";
  itz_params p;
  p.num_vantage = 1;
  p.num_paths = 2;
  const topology t = import_itz_text(text, p);
  EXPECT_GE(t.num_paths(), 1u);
}

TEST(ItzImportTest, DropsSelfLoopsAndDuplicateEdges) {
  const std::string text = R"(<graphml><graph>
  <node id="A" /><node id="B" /><node id="C" />
  <edge source="A" target="A" />
  <edge source="A" target="B" />
  <edge source="B" target="A" />
  <edge source="B" target="C" />
</graph></graphml>)";
  itz_params p;
  p.num_vantage = 1;
  p.num_paths = 4;
  // Parses despite the self-loop and the duplicate; routing works over
  // the two real edges.
  const topology t = import_itz_text(text, p);
  EXPECT_GE(t.num_paths(), 1u);
}

TEST(ItzImportTest, ErrorCarriesByteOffsetOfBadEdge) {
  const std::string text = R"(<graphml><graph>
  <node id="A" /><node id="B" />
  <edge source="A" target="B" />
  <edge source="A" target="ZZ" />
</graph></graphml>)";
  try {
    (void)import_itz_text(text, {});
    FAIL() << "expected spec_error";
  } catch (const spec_error& e) {
    EXPECT_NE(std::string(e.what()).find("itz"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown node 'ZZ'"),
              std::string::npos);
    EXPECT_EQ(e.offset(), text.rfind("<edge"));
  }
}

TEST(ItzImportTest, RejectsMalformedDocuments) {
  // Duplicate node id.
  EXPECT_THROW((void)import_itz_text(R"(<graphml><graph>
    <node id="A" /><node id="A" />
    <edge source="A" target="A" /></graph></graphml>)",
                                     {}),
               spec_error);
  // No <graph> element at all.
  EXPECT_THROW((void)import_itz_text("<graphml></graphml>", {}), spec_error);
  // Unterminated tag.
  EXPECT_THROW((void)import_itz_text("<graphml><graph><node id=\"A\"", {}),
               spec_error);
  // Attribute without a quoted value.
  EXPECT_THROW((void)import_itz_text(
                   "<graphml><graph><node id=A /></graph></graphml>", {}),
               spec_error);
  // Structurally fine but unusable: one node, no edges.
  EXPECT_THROW((void)import_itz_text(
                   "<graphml><graph><node id=\"A\" /></graph></graphml>", {}),
               spec_error);
}

TEST(ItzImportTest, LoadsVendoredAbileneFixture) {
  itz_params p;
  p.file = data_path("itz_abilene.graphml");
  p.num_vantage = 4;
  p.num_paths = 20;
  p.seed = 3;
  const topology t = import_itz(p);
  EXPECT_EQ(t.num_paths(), 20u);
  EXPECT_TRUE(paths_well_formed(t));
  EXPECT_LE(t.num_ases(), 11u);
  EXPECT_GE(t.num_ases(), 2u);
}

TEST(ItzImportTest, LoadsBomCrlfFixture) {
  // The ring fixture is deliberately stored with a UTF-8 BOM and CRLF
  // line endings — the importer must be byte-for-byte tolerant.
  itz_params p;
  p.file = data_path("itz_ring_crlf.graphml");
  p.num_vantage = 3;
  p.num_paths = 12;
  const topology t = import_itz(p);
  EXPECT_EQ(t.num_paths(), 12u);
  EXPECT_TRUE(paths_well_formed(t));
}

TEST(ItzImportTest, MissingFileErrors) {
  itz_params p;
  p.file = data_path("no_such_file.graphml");
  EXPECT_THROW((void)import_itz(p), spec_error);
}

TEST(ItzImportTest, RegisteredInTopologyRegistry) {
  const std::string spec_text =
      "itz,file='" + data_path("itz_dumbbell.graphml") + "',paths=10";
  const topology t = make_topology(spec_text, 7);
  EXPECT_EQ(t.num_paths(), 10u);
  // Same spec + seed reproduces the topology (the registry contract).
  const topology u = make_topology(spec_text, 7);
  ASSERT_EQ(t.num_paths(), u.num_paths());
  for (path_id i = 0; i < t.num_paths(); ++i) {
    EXPECT_EQ(t.get_path(i).links(), u.get_path(i).links());
  }
  // The file option is required.
  EXPECT_THROW((void)make_topology("itz", 7), spec_error);
}

}  // namespace
}  // namespace ntom
