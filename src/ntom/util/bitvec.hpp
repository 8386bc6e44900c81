// Dynamic bit vector used throughout ntom for link sets and path sets.
//
// The tomography algorithms manipulate sets of links/paths constantly
// (coverage functions, path-set unions, row formation); a packed bit
// vector keeps those operations O(n/64) and allocation-light.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ntom {

/// Fixed-universe bit set; the universe size is chosen at construction.
class bitvec {
 public:
  bitvec() = default;

  /// All-zero bit vector over a universe of `size` elements.
  explicit bitvec(std::size_t size);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True iff no bit is set. Short-circuits on the first nonzero word —
  /// the inner loops of the inference algorithms call this constantly.
  [[nodiscard]] bool empty() const noexcept {
    for (const auto w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Sentinel returned by find_first() on an empty set.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index of the lowest set bit; npos when empty. O(words) with no
  /// allocation — replaces `to_indices().front()` on hot paths.
  [[nodiscard]] std::size_t find_first() const noexcept {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) {
        return w * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
      }
    }
    return npos;
  }

  // Single-bit access is inline: observation, inference and simulation
  // loops call it per link or path.
  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }
  void set(std::size_t i) noexcept { words_[i / 64] |= 1ULL << (i % 64); }
  void reset(std::size_t i) noexcept { words_[i / 64] &= ~(1ULL << (i % 64)); }
  void clear() noexcept;

  /// Complements every bit (bits beyond size() stay zero).
  bitvec& flip() noexcept;

  /// In-place set algebra. All operands must share the universe size.
  bitvec& operator|=(const bitvec& other) noexcept;
  bitvec& operator&=(const bitvec& other) noexcept;
  bitvec& operator^=(const bitvec& other) noexcept;
  /// Removes from this set every element of `other` (set difference).
  bitvec& subtract(const bitvec& other) noexcept;

  [[nodiscard]] friend bitvec operator|(bitvec a, const bitvec& b) {
    a |= b;
    return a;
  }
  [[nodiscard]] friend bitvec operator&(bitvec a, const bitvec& b) {
    a &= b;
    return a;
  }

  [[nodiscard]] bool operator==(const bitvec& other) const noexcept;

  /// count() of the intersection with `other` without materializing it
  /// (fused AND+popcount kernel). Operands must share the universe.
  [[nodiscard]] std::size_t and_count(const bitvec& other) const noexcept;

  /// count() of the set difference this \ `other` without materializing
  /// it (dispatched ANDNOT+popcount kernel — replaces the copy +
  /// subtract + count round trip). Operands must share the universe.
  [[nodiscard]] std::size_t andnot_count(const bitvec& other) const noexcept;

  /// True if this set and `other` share at least one element.
  [[nodiscard]] bool intersects(const bitvec& other) const noexcept;

  /// True if every element of this set is also in `other`.
  [[nodiscard]] bool is_subset_of(const bitvec& other) const noexcept;

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

  /// Builds a bitvec over universe `size` from the given indices.
  [[nodiscard]] static bitvec from_indices(
      std::size_t size, const std::vector<std::size_t>& indices);

  /// Calls `fn(index)` for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Canonical name for the allocation-free set-bit walk (same as
  /// for_each; inner loops should prefer this over to_indices()).
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for_each(std::forward<Fn>(fn));
  }

  /// Packed-word access for bulk kernels (bit_matrix splicing, fused
  /// AND+popcount). Bits past size() are guaranteed zero.
  [[nodiscard]] std::size_t num_words() const noexcept {
    return words_.size();
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w];
  }
  [[nodiscard]] const std::uint64_t* word_data() const noexcept {
    return words_.data();
  }
  /// Mutable packed-word access for bulk kernels (or_accumulate); the
  /// caller must keep bits past size() zero.
  [[nodiscard]] std::uint64_t* word_data() noexcept { return words_.data(); }
  /// OR-merges a whole word; the caller must keep bits past size() zero.
  void word_or(std::size_t w, std::uint64_t bits) noexcept {
    words_[w] |= bits;
  }

  /// "{1,4,7}" — for diagnostics and test failure messages.
  [[nodiscard]] std::string to_string() const;

  /// Hash usable as key in unordered containers.
  [[nodiscard]] std::size_t hash() const noexcept;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct bitvec_hash {
  std::size_t operator()(const bitvec& b) const noexcept { return b.hash(); }
};

}  // namespace ntom
