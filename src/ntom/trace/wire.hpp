// Internal wire helpers shared by trace_writer / trace_reader: explicit
// little-endian scalar encoding (the format is LE on every host) and
// bounds-checked varint decoding.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ntom/trace/trace_format.hpp"

namespace ntom::trace_wire {

inline void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

inline void put_u64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Encodes `n` words little-endian. On LE hosts this is a straight
/// memcpy — the bulk row-packing path of trace_writer::consume.
inline void put_words(unsigned char* out, const std::uint64_t* words,
                      std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, words, 8 * n);
  } else {
    for (std::size_t w = 0; w < n; ++w) put_u64(out + 8 * w, words[w]);
  }
}

inline std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

inline std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

/// Appends a LEB128 varint (7 bits per byte, low first, high bit =
/// continuation). At most 10 bytes for a u64 — the codec layer's run
/// lengths and sparse deltas are almost always 1-2 bytes.
inline void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

/// Decodes a LEB128 varint from [*p, end), advancing *p. Strict: a
/// truncated or over-long (more than 10 bytes / overflowing) encoding
/// throws trace_error — hostile payloads fail cleanly.
inline std::uint64_t get_varint(const unsigned char** p,
                                const unsigned char* end, const char* what) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  const unsigned char* q = *p;
  for (;;) {
    if (q == end) {
      throw trace_error(std::string("trace: truncated varint in ") + what);
    }
    const unsigned char byte = *q++;
    if (shift >= 64 || (shift == 63 && (byte & 0x7E) != 0)) {
      throw trace_error(std::string("trace: varint overflows u64 in ") + what);
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *p = q;
  return v;
}

/// Words-per-row of a packed bit_matrix row over `cols` columns — the
/// on-disk row stride (must match bit_matrix::word_stride()).
inline std::size_t word_stride(std::size_t cols) {
  return (cols + 63) / 64;
}

}  // namespace ntom::trace_wire
