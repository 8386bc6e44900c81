#include "ntom/util/intern_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ntom {
namespace {

using words = std::vector<std::uint64_t>;
using entry = std::pair<std::size_t, bool>;

TEST(InternTableTest, IdsFollowFirstInsertion) {
  intern_table table;
  EXPECT_EQ(table.find_or_insert(words{7}), (entry{0, true}));
  EXPECT_EQ(table.find_or_insert(words{3}), (entry{1, true}));
  EXPECT_EQ(table.find_or_insert(words{7}), (entry{0, false}));
  EXPECT_EQ(table.find_or_insert(words{5}), (entry{2, true}));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(words{3}), 1u);
}

TEST(InternTableTest, MissReturnsNpos) {
  intern_table table;
  EXPECT_EQ(table.find(words{1}), intern_table::npos);
  table.find_or_insert(words{1});
  EXPECT_EQ(table.find(words{2}), intern_table::npos);
  EXPECT_EQ(table.size(), 1u);  // find never inserts.
}

TEST(InternTableTest, KeysOfDifferentLengthsAreDistinct) {
  intern_table table;
  const std::size_t empty = table.find_or_insert(words{}).first;
  const std::size_t one = table.find_or_insert(words{0}).first;
  const std::size_t two = table.find_or_insert(words{0, 0}).first;
  const std::size_t three = table.find_or_insert(words{0, 0, 5}).first;
  EXPECT_EQ(empty, 0u);
  EXPECT_EQ(one, 1u);
  EXPECT_EQ(two, 2u);
  EXPECT_EQ(three, 3u);
  EXPECT_EQ(table.find(words{}), empty);
  EXPECT_EQ(table.find(words{0, 0}), two);
  EXPECT_EQ(table.find(words{0, 0, 5}), three);
  EXPECT_EQ(table.find(words{0, 0, 0}), intern_table::npos);
}

TEST(InternTableTest, BitvecKeysMatchTheirWords) {
  intern_table table;
  bitvec b(130);
  b.set(3);
  b.set(129);
  const std::size_t id = table.find_or_insert(b).first;
  EXPECT_EQ(table.find(words{std::uint64_t{1} << 3, 0, 2}), id);
  b.reset(129);
  EXPECT_EQ(table.find(b), intern_table::npos);
}

TEST(InternTableTest, GrowthKeepsIds) {
  intern_table table;
  constexpr std::uint64_t n = 5000;  // far past the initial slot count.
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto [id, added] = table.find_or_insert(words{i, i * i});
    ASSERT_TRUE(added);
    ASSERT_EQ(id, i);
  }
  EXPECT_EQ(table.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(table.find(words{i, i * i}), i);
    ASSERT_EQ(table.find_or_insert(words{i, i * i}).second, false);
  }
  EXPECT_EQ(table.find(words{n, n * n}), intern_table::npos);
}

TEST(InternTableTest, ClearThenReuse) {
  intern_table table;
  for (std::uint64_t i = 0; i < 300; ++i) table.find_or_insert(words{i});
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(words{5}), intern_table::npos);
  EXPECT_EQ(table.find_or_insert(words{299}).first, 0u);
  EXPECT_EQ(table.find_or_insert(words{5, 6}).first, 1u);
  EXPECT_EQ(table.find(words{299}), 0u);
  EXPECT_EQ(table.find(words{0}), intern_table::npos);
}

TEST(InternTableTest, EqualTagsAreToldApartByWords) {
  // A birthday search over one-word keys finds two with the same tag.
  std::unordered_map<std::uint64_t, std::uint64_t> by_tag;
  words first;
  words second;
  for (std::uint64_t w = 0; first.empty(); ++w) {
    const auto [it, added] =
        by_tag.try_emplace(intern_table::tag(words{w}), w);
    if (!added) {
      first = {it->second};
      second = {w};
    }
  }
  ASSERT_EQ(intern_table::tag(first), intern_table::tag(second));

  intern_table table;
  EXPECT_EQ(table.find_or_insert(first).first, 0u);
  EXPECT_EQ(table.find(second), intern_table::npos);
  EXPECT_EQ(table.find_or_insert(second), (entry{1, true}));
  EXPECT_EQ(table.find(first), 0u);
  EXPECT_EQ(table.find(second), 1u);
}

}  // namespace
}  // namespace ntom
