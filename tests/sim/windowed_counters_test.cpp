// Sliding-window counter correctness: a pathset_counter that consumed
// chunks [0, k) and retired chunks [0, j) must hold state bit-identical
// to a fresh counter fed only chunks [j, k) — retire() subtracts exact
// integer contributions, so the equality is exact at every step, not
// just in the limit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ntom/sim/monitor.hpp"

namespace ntom {
namespace {

/// 3 links, 4 paths over the links; enough structure for non-trivial
/// path sets.
topology make_topo() {
  topology t(3);
  t.add_link({.as_number = 1, .router_links = {0}, .edge = false});
  t.add_link({.as_number = 1, .router_links = {1}, .edge = true});
  t.add_link({.as_number = 2, .router_links = {2}, .edge = false});
  t.add_path({0});
  t.add_path({0, 1});
  t.add_path({1, 2});
  t.add_path({2});
  t.finalize();
  return t;
}

/// Deterministic pseudo-random chunk stream (tiny xorshift — no
/// simulator dependency, odd chunk sizes on purpose).
std::vector<measurement_chunk> make_chunks(std::size_t n, std::size_t paths,
                                           std::size_t links) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<measurement_chunk> chunks;
  std::size_t first = 0;
  for (std::size_t c = 0; c < n; ++c) {
    measurement_chunk chunk;
    chunk.first_interval = first;
    chunk.count = 3 + (c % 4);  // 3..6 intervals, uneven.
    chunk.congested_paths = bit_matrix(chunk.count, paths);
    chunk.true_links = bit_matrix(chunk.count, links);
    for (std::size_t i = 0; i < chunk.count; ++i) {
      for (std::size_t p = 0; p < paths; ++p) {
        if ((next() & 3) == 0) chunk.congested_paths.set(i, p);
      }
      for (std::size_t e = 0; e < links; ++e) {
        if ((next() & 3) == 0) chunk.true_links.set(i, e);
      }
    }
    first += chunk.count;
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::vector<bitvec> make_sets(std::size_t paths) {
  std::vector<bitvec> sets;
  bitvec single(paths);
  single.set(0);
  sets.push_back(single);
  bitvec pair(paths);
  pair.set(1);
  pair.set(2);
  sets.push_back(pair);
  bitvec all(paths);
  all.flip();
  sets.push_back(all);
  sets.push_back(bitvec(paths));  // empty set: vacuously good.
  return sets;
}

TEST(WindowedPathsetCounterTest, WindowEqualsFreshCounterAtEveryStep) {
  const topology t = make_topo();
  const std::vector<measurement_chunk> chunks =
      make_chunks(7, t.num_paths(), t.num_links());

  for (const std::size_t window : {2u, 4u}) {
    pathset_counter windowed(make_sets(t.num_paths()));
    windowed.begin(t, 0);
    std::size_t oldest = 0;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      windowed.consume(chunks[k]);
      if (k + 1 - oldest > window) windowed.retire(chunks[oldest++]);

      // Fresh one-shot pass over exactly the chunks in the window.
      pathset_counter fresh(make_sets(t.num_paths()));
      std::size_t intervals = 0;
      for (std::size_t i = oldest; i <= k; ++i) intervals += chunks[i].count;
      fresh.begin(t, intervals);
      for (std::size_t i = oldest; i <= k; ++i) fresh.consume(chunks[i]);
      fresh.end();

      EXPECT_EQ(windowed.intervals(), fresh.intervals())
          << "W=" << window << " step " << k;
      EXPECT_EQ(windowed.counts(), fresh.counts())
          << "W=" << window << " step " << k;
      EXPECT_EQ(windowed.always_good_paths(), fresh.always_good_paths())
          << "W=" << window << " step " << k;
    }
  }
}

TEST(WindowedPathsetCounterTest, SizedBeginStillRetiresExactly) {
  // A counter begun with the experiment length (the one-shot drivers'
  // call) is the same counter: retiring its first chunks leaves exactly
  // a fresh pass over the rest.
  const topology t = make_topo();
  const std::vector<measurement_chunk> chunks =
      make_chunks(5, t.num_paths(), t.num_links());
  std::size_t intervals = 0;
  for (const measurement_chunk& c : chunks) intervals += c.count;

  pathset_counter counter(make_sets(t.num_paths()));
  counter.begin(t, intervals);
  for (const measurement_chunk& c : chunks) counter.consume(c);
  EXPECT_EQ(counter.intervals(), intervals);
  counter.retire(chunks[0]);
  counter.retire(chunks[1]);

  pathset_counter fresh(make_sets(t.num_paths()));
  fresh.begin(t, intervals - chunks[0].count - chunks[1].count);
  for (std::size_t i = 2; i < chunks.size(); ++i) fresh.consume(chunks[i]);
  EXPECT_EQ(counter.intervals(), fresh.intervals());
  EXPECT_EQ(counter.counts(), fresh.counts());
  EXPECT_EQ(counter.observed_intervals(), fresh.observed_intervals());
  EXPECT_EQ(counter.always_good_paths(), fresh.always_good_paths());
}

}  // namespace
}  // namespace ntom
