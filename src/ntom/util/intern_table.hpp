// Interning table: maps a key, a run of 64-bit words of any length, to a
// dense id 0, 1, 2, ... in first-insertion order.
//
// Every "have I seen this set?" lookup of Probability Computation goes
// through one of these: the correlation-subset catalog Ê and its
// per-AS union closure (corr/subsets), Algorithm 1's path sets, link
// unions and candidate lists (tomo/pathset_select), and the Bayes-Corr
// MAP state table (infer/bayes_map). Callers keep per-entry data in
// side arrays indexed by id.
//
// The keys sit end to end in one arena (entry e at words
// [start_[e], start_[e+1])). Open addressing over a power-of-two slot
// array kept at most half full: each slot packs the key's 32-bit tag
// (the upper half of its hash; its low bits pick the home slot) with
// the entry id + 1 (0 = empty, so a table holds fewer than 2^32 - 1
// keys); a probe compares tags before words, and growth re-places slots
// without rehashing. Lookups allocate nothing, and clear() keeps the
// capacity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ntom/util/bitvec.hpp"

namespace ntom {

class intern_table {
 public:
  using key_view = std::span<const std::uint64_t>;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The id of `key`, added as the next id if it is not in the table
  /// yet; `second` is true when it was added.
  std::pair<std::size_t, bool> find_or_insert(key_view key) {
    const std::uint64_t key_tag = tag(key);
    const std::size_t s = probe(key, key_tag);
    if (slots_[s] != 0) return {id_of(slots_[s]), false};
    arena_.insert(arena_.end(), key.begin(), key.end());
    start_.push_back(arena_.size());
    slots_[s] = (key_tag << 32) | size();
    if (2 * size() > slots_.size()) grow();
    return {size() - 1, true};
  }
  std::pair<std::size_t, bool> find_or_insert(const bitvec& key) {
    return find_or_insert(words(key));
  }

  /// The id of `key`, or npos.
  [[nodiscard]] std::size_t find(key_view key) const noexcept {
    const std::uint64_t slot = slots_[probe(key, tag(key))];
    return slot == 0 ? npos : id_of(slot);
  }
  [[nodiscard]] std::size_t find(const bitvec& key) const noexcept {
    return find(words(key));
  }

  [[nodiscard]] std::size_t size() const noexcept { return start_.size() - 1; }

  /// Forgets every key (ids restart at 0) and keeps the capacity.
  void clear() noexcept;

  /// The 32-bit tag of a key: the upper half of its hash.
  [[nodiscard]] static std::uint64_t tag(key_view key) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
    for (const std::uint64_t w : key) h = (h ^ w) * 0xff51afd7ed558ccdULL;
    // A word's bit reaches only the bits above it; the murmur3
    // finalizer spreads every bit over the upper half.
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h >> 32;
  }

 private:
  static key_view words(const bitvec& b) noexcept {
    return {b.word_data(), b.num_words()};
  }

  static std::size_t id_of(std::uint64_t slot) noexcept {
    return static_cast<std::uint32_t>(slot) - 1;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(key_view key,
                                  std::uint64_t key_tag) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = key_tag & mask;
    for (; slots_[s] != 0; s = (s + 1) & mask) {
      if ((slots_[s] >> 32) != key_tag) continue;
      const std::size_t id = id_of(slots_[s]);
      if (std::equal(key.begin(), key.end(), arena_.begin() + start_[id],
                     arena_.begin() + start_[id + 1])) {
        return s;
      }
    }
    return s;
  }

  /// Doubles the slot array.
  void grow();

  std::vector<std::uint64_t> arena_;
  std::vector<std::size_t> start_{0};
  std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(64, 0);
};

}  // namespace ntom
