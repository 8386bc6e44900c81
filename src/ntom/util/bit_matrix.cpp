#include "ntom/util/bit_matrix.hpp"

#include <algorithm>
#include <cstring>

#include "ntom/util/simd/simd.hpp"

namespace ntom {

namespace {

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// 64x64 bit-block transpose (Hacker's Delight 7-5, roles swapped for
/// the LSB-first bit convention): after the call, bit j of a[i] is the
/// old bit i of a[j].
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (a[k + j] ^ (a[k] >> j)) & m;
      a[k + j] ^= t;
      a[k] ^= t << j;
    }
  }
}

}  // namespace

bit_matrix::bit_matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), stride_(words_for(cols)),
      words_(rows * stride_, 0) {}

bitvec bit_matrix::row_copy(std::size_t r) const {
  bitvec out(cols_);
  const std::uint64_t* src = row_words(r);
  for (std::size_t w = 0; w < stride_; ++w) {
    if (src[w] != 0) {
      // bitvec guarantees zero bits past size(); rows keep the same
      // invariant, so whole-word splicing is safe.
      out.word_or(w, src[w]);
    }
  }
  return out;
}

void bit_matrix::set_row(std::size_t r, const bitvec& row) noexcept {
  std::uint64_t* dst = row_words(r);
  for (std::size_t w = 0; w < stride_; ++w) dst[w] = row.word(w);
}

bitvec bit_matrix::column_copy(std::size_t c) const {
  bitvec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (test(r, c)) out.set(r);
  }
  return out;
}

std::size_t bit_matrix::count_row(std::size_t r) const noexcept {
  return simd::popcount_words(row_words(r), stride_);
}

std::size_t bit_matrix::count() const noexcept {
  return simd::popcount_words(words_.data(), words_.size());
}

std::size_t bit_matrix::and_count(const bitvec& row_set) const {
  // Gather the selected row pointers once (stack buffer for the common
  // small sets; the heap fallback is off the hot path).
  constexpr std::size_t stack_rows = 32;
  const std::uint64_t* stack_ptrs[stack_rows];
  std::vector<const std::uint64_t*> heap_ptrs;
  const std::uint64_t** ptrs = stack_ptrs;
  std::size_t k = 0;
  row_set.for_each_set([&](std::size_t r) {
    if (k < stack_rows) {
      stack_ptrs[k] = row_words(r);
    } else {
      if (heap_ptrs.empty()) {
        heap_ptrs.assign(stack_ptrs, stack_ptrs + stack_rows);
      }
      heap_ptrs.push_back(row_words(r));
    }
    ++k;
  });
  if (k == 0) return cols_;  // vacuous AND: every column passes.
  if (!heap_ptrs.empty()) ptrs = heap_ptrs.data();

  // Branch-free specializations for the dominant query shapes (the
  // probability equations are overwhelmingly singles/pairs/triples);
  // the dispatched kernels fuse the AND into the popcount sweep.
  switch (k) {
    case 1:
      return simd::popcount_words(ptrs[0], stride_);
    case 2:
      return simd::popcount_and2(ptrs[0], ptrs[1], stride_);
    case 3:
      return simd::popcount_and3(ptrs[0], ptrs[1], ptrs[2], stride_);
    default: {
      // Wider sets: AND into an L1-resident block, then hand the block
      // to the dispatched popcount — the AND traffic dominates anyway.
      constexpr std::size_t block_words = 128;
      std::uint64_t block[block_words];
      std::size_t total = 0;
      for (std::size_t w0 = 0; w0 < stride_; w0 += block_words) {
        const std::size_t bn = std::min(block_words, stride_ - w0);
        std::memcpy(block, ptrs[0] + w0, bn * sizeof(std::uint64_t));
        for (std::size_t i = 1; i < k; ++i) {
          const std::uint64_t* src = ptrs[i] + w0;
          for (std::size_t w = 0; w < bn; ++w) block[w] &= src[w];
        }
        total += simd::popcount_words(block, bn);
      }
      return total;
    }
  }
}

bitvec bit_matrix::full_rows() const {
  bitvec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (count_row(r) == cols_) out.set(r);
  }
  return out;
}

void bit_matrix::flip_all() noexcept {
  const std::uint64_t tail = tail_mask();
  for (std::size_t r = 0; r < rows_; ++r) {
    std::uint64_t* dst = row_words(r);
    for (std::size_t w = 0; w < stride_; ++w) dst[w] = ~dst[w];
    if (stride_ > 0) dst[stride_ - 1] &= tail;
  }
}

void bit_matrix::write_row_bits(std::size_t r, std::size_t col_offset,
                                const bitvec& src) noexcept {
  write_row_bits(r, col_offset, src.word_data(), src.size());
}

void bit_matrix::write_row_bits(std::size_t r, std::size_t col_offset,
                                const std::uint64_t* src_words,
                                std::size_t nbits) noexcept {
  std::uint64_t* row = row_words(r);
  for (std::size_t done = 0; done < nbits; done += 64) {
    const std::size_t bits = std::min<std::size_t>(64, nbits - done);
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    const std::uint64_t sw = src_words[done / 64] & mask;
    const std::size_t d = col_offset + done;
    const std::size_t di = d / 64;
    const std::size_t sh = d % 64;
    row[di] = (row[di] & ~(mask << sh)) | (sw << sh);
    if (sh != 0 && bits > 64 - sh) {
      row[di + 1] =
          (row[di + 1] & ~(mask >> (64 - sh))) | (sw >> (64 - sh));
    }
  }
}

void bit_matrix::copy_rows_from(const bit_matrix& src,
                                std::size_t dst_row_begin) {
  if (src.rows_ == 0) return;
  std::memcpy(row_words(dst_row_begin), src.words_.data(),
              src.rows_ * stride_ * sizeof(std::uint64_t));
}

bit_matrix bit_matrix::row_slice(std::size_t begin, std::size_t end) const {
  bit_matrix out(end - begin, cols_);
  if (out.rows_ > 0) {
    std::memcpy(out.words_.data(), row_words(begin),
                out.rows_ * stride_ * sizeof(std::uint64_t));
  }
  return out;
}

bit_matrix bit_matrix::column_slice(std::size_t begin, std::size_t end) const {
  bit_matrix out(rows_, end - begin);
  const std::size_t n = end - begin;
  if (n == 0) return out;
  const std::size_t shift = begin % 64;
  const std::size_t first = begin / 64;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint64_t* src = row_words(r);
    std::uint64_t* dst = out.row_words(r);
    for (std::size_t w = 0; w < out.stride_; ++w) {
      std::uint64_t v = src[first + w] >> shift;
      if (shift != 0 && first + w + 1 < stride_) {
        v |= src[first + w + 1] << (64 - shift);
      }
      dst[w] = v;
    }
    dst[out.stride_ - 1] &= out.tail_mask();
  }
  return out;
}

bit_matrix bit_matrix::transposed() const {
  bit_matrix out(cols_, rows_);
  // Cache-blocked tiling: the 64x64 bit-block walk is grouped into
  // 512x512-bit macro tiles, so one tile touches 512 source rows x 64
  // bytes and 512 destination rows x 64 bytes (~64 KiB combined) —
  // L1/L2-resident — instead of cycling every destination row once per
  // source row block as the old column-at-a-time order did.
  constexpr std::size_t tile = 512;
  std::uint64_t block[64];
  for (std::size_t rt = 0; rt < rows_; rt += tile) {
    const std::size_t rt_end = std::min(rows_, rt + tile);
    for (std::size_t ct = 0; ct < cols_; ct += tile) {
      const std::size_t ct_end = std::min(cols_, ct + tile);
      for (std::size_t rb = rt; rb < rt_end; rb += 64) {
        const std::size_t rn = std::min<std::size_t>(64, rows_ - rb);
        for (std::size_t cb = ct; cb < ct_end; cb += 64) {
          const std::size_t cn = std::min<std::size_t>(64, cols_ - cb);
          for (std::size_t i = 0; i < rn; ++i) {
            block[i] = row_words(rb + i)[cb / 64];
          }
          std::fill(block + rn, block + 64, 0ULL);
          transpose64(block);
          // block[j] now holds, in bit i, the old (rb+i, cb+j) bit —
          // i.e. word rb/64 of transposed row cb+j.
          for (std::size_t j = 0; j < cn; ++j) {
            out.row_words(cb + j)[rb / 64] = block[j];
          }
        }
      }
    }
  }
  return out;
}

void bit_matrix::transpose() { *this = transposed(); }

}  // namespace ntom
