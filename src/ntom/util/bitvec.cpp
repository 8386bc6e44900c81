#include "ntom/util/bitvec.hpp"

#include <algorithm>

#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {
constexpr std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }
}  // namespace

bitvec::bitvec(std::size_t size) : size_(size), words_(word_count(size), 0) {}

std::size_t bitvec::count() const noexcept {
  // Shared multi-accumulator/SIMD popcount — pathset queries off the
  // bit_matrix fast path ride the same dispatched kernel.
  return simd::popcount_words(words_.data(), words_.size());
}

void bitvec::clear() noexcept { std::fill(words_.begin(), words_.end(), 0ULL); }

bitvec& bitvec::flip() noexcept {
  for (auto& w : words_) w = ~w;
  if (!words_.empty() && size_ % 64 != 0) {
    words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
  }
  return *this;
}

bitvec& bitvec::operator|=(const bitvec& other) noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

bitvec& bitvec::operator&=(const bitvec& other) noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

bitvec& bitvec::operator^=(const bitvec& other) noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

bitvec& bitvec::subtract(const bitvec& other) noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool bitvec::operator==(const bitvec& other) const noexcept {
  return size_ == other.size_ && words_ == other.words_;
}

std::size_t bitvec::and_count(const bitvec& other) const noexcept {
  return simd::popcount_and2(words_.data(), other.words_.data(),
                             words_.size());
}

std::size_t bitvec::andnot_count(const bitvec& other) const noexcept {
  return simd::andnot_count(words_.data(), other.words_.data(),
                            words_.size());
}

bool bitvec::intersects(const bitvec& other) const noexcept {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool bitvec::is_subset_of(const bitvec& other) const noexcept {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::vector<std::size_t> bitvec::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

bitvec bitvec::from_indices(std::size_t size,
                            const std::vector<std::size_t>& indices) {
  bitvec b(size);
  for (const auto i : indices) b.set(i);
  return b;
}

std::string bitvec::to_string() const {
  std::string s = "{";
  bool first = true;
  for_each([&](std::size_t i) {
    if (!first) s += ',';
    s += std::to_string(i);
    first = false;
  });
  s += '}';
  return s;
}

std::size_t bitvec::hash() const noexcept {
  // FNV-1a over the words plus the size, good enough for set keys.
  std::size_t h = 1469598103934665603ULL ^ size_;
  for (const auto w : words_) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace ntom
