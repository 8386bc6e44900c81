#include "ntom/trace/codec.hpp"

#include <algorithm>
#include <string>

#include "ntom/trace/wire.hpp"

namespace ntom::trace_codec {

using trace_wire::get_u64;
using trace_wire::get_varint;
using trace_wire::put_varint;

namespace {

// Word-run RLE ops. Each op is a one-byte tag followed by a varint run
// length n >= 1 (n = 0 is malformed):
//   0x00  n zero words
//   0x01  n copies of the next 8-byte word
//   0x02  n literal 8-byte words
constexpr unsigned char op_zero_run = 0x00;
constexpr unsigned char op_repeat_run = 0x01;
constexpr unsigned char op_literals = 0x02;

std::uint64_t plane_tail_mask(std::size_t cols) {
  return (cols % 64 == 0) ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (cols % 64)) - 1;
}

void put_word_bytes(std::vector<unsigned char>& out, std::uint64_t w) {
  unsigned char buf[8];
  trace_wire::put_u64(buf, w);
  out.insert(out.end(), buf, buf + 8);
}

void rle_encode(const std::uint64_t* w, std::size_t n,
                std::vector<unsigned char>& out) {
  std::size_t lit_begin = 0;
  std::size_t lit_len = 0;
  const auto flush_literals = [&] {
    if (lit_len == 0) return;
    out.push_back(op_literals);
    put_varint(out, lit_len);
    for (std::size_t i = 0; i < lit_len; ++i) {
      put_word_bytes(out, w[lit_begin + i]);
    }
    lit_len = 0;
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t run = 1;
    while (i + run < n && w[i + run] == w[i]) ++run;
    if (w[i] == 0) {
      flush_literals();
      out.push_back(op_zero_run);
      put_varint(out, run);
    } else if (run >= 2) {
      flush_literals();
      out.push_back(op_repeat_run);
      put_varint(out, run);
      put_word_bytes(out, w[i]);
    } else {
      if (lit_len == 0) lit_begin = i;
      ++lit_len;
    }
    i += run;
  }
  flush_literals();
}

void rle_decode(const unsigned char* p, const unsigned char* end,
                std::uint64_t* w, std::size_t n) {
  std::size_t filled = 0;
  while (p != end) {
    const unsigned char op = *p++;
    const std::uint64_t run = get_varint(&p, end, "RLE run length");
    if (run == 0 || run > n - filled) {
      throw trace_error("trace: RLE run overruns the plane");
    }
    switch (op) {
      case op_zero_run:
        std::fill(w + filled, w + filled + run, std::uint64_t{0});
        break;
      case op_repeat_run: {
        if (static_cast<std::size_t>(end - p) < 8) {
          throw trace_error("trace: truncated RLE repeat word");
        }
        const std::uint64_t v = get_u64(p);
        p += 8;
        std::fill(w + filled, w + filled + run, v);
        break;
      }
      case op_literals: {
        if (static_cast<std::uint64_t>(end - p) / 8 < run) {
          throw trace_error("trace: truncated RLE literal run");
        }
        for (std::uint64_t i = 0; i < run; ++i, p += 8) {
          w[filled + i] = get_u64(p);
        }
        break;
      }
      default:
        throw trace_error("trace: unknown RLE op in plane payload");
    }
    filled += static_cast<std::size_t>(run);
  }
  if (filled != n) {
    throw trace_error("trace: RLE payload decodes to the wrong plane size");
  }
}

// Sparse bit list: varint set-bit count, then the bit indices in
// row-major order (index = row * cols + col) as varints — the first
// absolute, the rest as deltas from the previous index (delta >= 1:
// indices are strictly increasing).
void sparse_encode(const bit_matrix& m, std::vector<unsigned char>& out) {
  put_varint(out, m.count());
  const std::size_t stride = m.word_stride();
  std::uint64_t prev = 0;
  bool first = true;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const std::uint64_t* row = m.row_words(r);
    for (std::size_t wi = 0; wi < stride; ++wi) {
      std::uint64_t word = row[wi];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(word));
        const std::uint64_t idx =
            static_cast<std::uint64_t>(r) * m.cols() + wi * 64 + b;
        put_varint(out, first ? idx : idx - prev);
        prev = idx;
        first = false;
        word &= word - 1;
      }
    }
  }
}

/// `set_bit(idx)` receives each decoded strictly-increasing index,
/// already validated against `bits`.
template <typename SetBit>
void sparse_decode(const unsigned char* p, const unsigned char* end,
                   std::uint64_t bits, SetBit&& set_bit) {
  const std::uint64_t count = get_varint(&p, end, "sparse bit count");
  if (count > bits) {
    throw trace_error("trace: sparse bit count exceeds the plane");
  }
  std::uint64_t idx = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t d = get_varint(&p, end, "sparse bit index");
    if (k == 0) {
      idx = d;
    } else {
      if (d == 0 || d > bits - 1 - idx) {
        throw trace_error("trace: sparse bit indices are not increasing "
                          "or run past the plane");
      }
      idx += d;
    }
    if (idx >= bits) {
      throw trace_error("trace: sparse bit index out of range");
    }
    set_bit(idx);
  }
  if (p != end) {
    throw trace_error("trace: trailing bytes after the sparse bit list");
  }
}

/// XOR-delta transform over rows, in place on a scratch copy: row r
/// becomes row r ^ row r-1 (top to bottom order preserved by iterating
/// bottom-up).
void xor_rows_forward(std::uint64_t* w, std::size_t rows, std::size_t stride) {
  for (std::size_t r = rows; r-- > 1;) {
    std::uint64_t* cur = w + r * stride;
    const std::uint64_t* prev = cur - stride;
    for (std::size_t i = 0; i < stride; ++i) cur[i] ^= prev[i];
  }
}

void xor_rows_inverse(std::uint64_t* w, std::size_t rows, std::size_t stride) {
  for (std::size_t r = 1; r < rows; ++r) {
    std::uint64_t* cur = w + r * stride;
    const std::uint64_t* prev = cur - stride;
    for (std::size_t i = 0; i < stride; ++i) cur[i] ^= prev[i];
  }
}

void raw_encode(const bit_matrix& m, std::vector<unsigned char>& out) {
  const std::size_t n = m.rows() * m.word_stride();
  const std::size_t at = out.size();
  out.resize(at + 8 * n);
  trace_wire::put_words(out.data() + at, m.row_words(0), n);
}

/// Masks every row tail of a decoded plane — hostile payloads may set
/// bits beyond cols, and downstream consumers rely on clean tails.
void mask_tails(bit_matrix& m) {
  const std::size_t stride = m.word_stride();
  if (stride == 0) return;
  const std::uint64_t tail = plane_tail_mask(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m.row_words(r)[stride - 1] &= tail;
  }
}

}  // namespace

const char* codec_name(std::uint8_t id) noexcept {
  switch (id) {
    case codec_raw: return "raw";
    case codec_rle: return "rle";
    case codec_sparse: return "sparse";
    case codec_xor_rle: return "xor_rle";
    case codec_t_rle: return "t_rle";
    case codec_t_sparse: return "t_sparse";
    default: return "?";
  }
}

void encode(std::uint8_t id, const bit_matrix& plane,
            std::vector<unsigned char>& out) {
  const std::size_t words = plane.rows() * plane.word_stride();
  switch (id) {
    case codec_raw:
      raw_encode(plane, out);
      return;
    case codec_rle:
      rle_encode(plane.row_words(0), words, out);
      return;
    case codec_sparse:
      sparse_encode(plane, out);
      return;
    case codec_xor_rle: {
      std::vector<std::uint64_t> delta(plane.row_words(0),
                                       plane.row_words(0) + words);
      xor_rows_forward(delta.data(), plane.rows(), plane.word_stride());
      rle_encode(delta.data(), words, out);
      return;
    }
    case codec_t_rle: {
      const bit_matrix t = plane.transposed();
      rle_encode(t.row_words(0), t.rows() * t.word_stride(), out);
      return;
    }
    case codec_t_sparse: {
      const bit_matrix t = plane.transposed();
      sparse_encode(t, out);
      return;
    }
    default:
      throw trace_error("trace: cannot encode with unknown codec id " +
                        std::to_string(id));
  }
}

std::uint8_t encode_best(const bit_matrix& plane,
                         std::vector<unsigned char>& out) {
  const std::size_t raw_bytes = 8 * plane.rows() * plane.word_stride();
  std::uint8_t best_id = codec_raw;
  std::size_t best_size = raw_bytes;
  std::vector<unsigned char> best;
  std::vector<unsigned char> cand;
  constexpr std::uint8_t candidates[] = {codec_rle, codec_sparse,
                                         codec_xor_rle, codec_t_rle,
                                         codec_t_sparse};
  for (const std::uint8_t id : candidates) {
    cand.clear();
    encode(id, plane, cand);
    if (cand.size() < best_size) {
      best_size = cand.size();
      best_id = id;
      best.swap(cand);
    }
  }
  if (best_id == codec_raw) {
    raw_encode(plane, out);
  } else {
    out.insert(out.end(), best.begin(), best.end());
  }
  return best_id;
}

void decode(std::uint8_t id, const unsigned char* payload, std::size_t len,
            bit_matrix& out) {
  const std::size_t rows = out.rows();
  const std::size_t cols = out.cols();
  const std::size_t stride = out.word_stride();
  const std::size_t words = rows * stride;
  const unsigned char* end = payload + len;
  switch (id) {
    case codec_raw: {
      if (len != 8 * words) {
        throw trace_error("trace: raw plane payload has the wrong size");
      }
      std::uint64_t* w = out.row_words(0);
      for (std::size_t i = 0; i < words; ++i) w[i] = get_u64(payload + 8 * i);
      break;
    }
    case codec_rle:
      rle_decode(payload, end, out.row_words(0), words);
      break;
    case codec_sparse:
      sparse_decode(payload, end,
                    static_cast<std::uint64_t>(rows) * cols,
                    [&](std::uint64_t idx) {
                      out.set(static_cast<std::size_t>(idx / cols),
                              static_cast<std::size_t>(idx % cols));
                    });
      break;
    case codec_xor_rle:
      rle_decode(payload, end, out.row_words(0), words);
      xor_rows_inverse(out.row_words(0), rows, stride);
      break;
    case codec_t_rle: {
      bit_matrix t(cols, rows);
      rle_decode(payload, end, t.row_words(0), cols * t.word_stride());
      mask_tails(t);
      out = t.transposed();
      break;
    }
    case codec_t_sparse:
      sparse_decode(payload, end,
                    static_cast<std::uint64_t>(rows) * cols,
                    [&](std::uint64_t idx) {
                      // Transposed index space: idx = col * rows + row.
                      out.set(static_cast<std::size_t>(idx % rows),
                              static_cast<std::size_t>(idx / rows));
                    });
      break;
    default:
      throw trace_error("trace: unknown plane codec id " + std::to_string(id));
  }
  mask_tails(out);
}

}  // namespace ntom::trace_codec
