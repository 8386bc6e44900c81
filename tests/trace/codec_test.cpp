// Plane codec unit tests (trace/codec.hpp): every codec round-trips
// every plane shape bit-identically, negotiation never loses to raw,
// and hostile payloads — truncated varints, overrunning run lengths,
// out-of-range or non-increasing sparse indices, trailing bytes,
// unknown ops and ids — throw trace_error instead of corrupting memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ntom/trace/codec.hpp"
#include "ntom/trace/trace_format.hpp"
#include "ntom/util/bit_matrix.hpp"

namespace ntom {
namespace {

namespace tc = trace_codec;

// LEB128, matching trace_wire::put_varint — for hand-crafting payloads.
void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

bit_matrix random_plane(std::size_t rows, std::size_t cols, double density,
                        std::uint32_t seed) {
  bit_matrix m(rows, cols);
  std::mt19937 rng(seed);
  std::bernoulli_distribution bit(density);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (bit(rng)) m.set(r, c);
    }
  }
  return m;
}

// Bursty rows: a path stays congested for a run of intervals — the
// pattern the transposed codecs were built for.
bit_matrix bursty_plane(std::size_t rows, std::size_t cols) {
  bit_matrix m(rows, cols);
  for (std::size_t c = 0; c < cols; c += 3) {
    const std::size_t start = (c * 7) % rows;
    const std::size_t len = 1 + (c % 11);
    for (std::size_t i = 0; i < len && start + i < rows; ++i) {
      m.set(start + i, c);
    }
  }
  return m;
}

bit_matrix full_plane(std::size_t rows, std::size_t cols) {
  bit_matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.set(r, c);
  }
  return m;
}

bit_matrix decode_plane(std::uint8_t id,
                        const std::vector<unsigned char>& payload,
                        std::size_t rows, std::size_t cols) {
  bit_matrix out(rows, cols);
  tc::decode(id, payload.data(), payload.size(), out);
  return out;
}

void expect_round_trip(std::uint8_t id, const bit_matrix& plane) {
  std::vector<unsigned char> payload;
  tc::encode(id, plane, payload);
  EXPECT_TRUE(decode_plane(id, payload, plane.rows(), plane.cols()) == plane)
      << tc::codec_name(id) << " " << plane.rows() << "x" << plane.cols();
}

TEST(CodecTest, EveryCodecRoundTripsEveryShape) {
  // Shapes cross word boundaries (63/64/65/130 cols), include the 1-row
  // mask-plane case and a single column; densities span empty -> full.
  const bit_matrix planes[] = {
      bit_matrix(4, 63),                     // empty
      full_plane(4, 63),                     // full
      full_plane(1, 64),                     // full single row (mask)
      random_plane(1, 100, 0.3, 1),          // partial mask row
      random_plane(7, 65, 0.05, 2),          // sparse
      random_plane(16, 64, 0.5, 3),          // dense, word-aligned
      random_plane(256, 130, 0.02, 4),       // tall sparse
      bursty_plane(97, 60),                  // transposed-run friendly
      random_plane(5, 1, 0.5, 5),            // single column
      [] {                                   // single bit in the corner
        bit_matrix m(64, 64);
        m.set(63, 63);
        return m;
      }(),
  };
  for (const bit_matrix& plane : planes) {
    for (std::uint8_t id = 0; id < tc::codec_count; ++id) {
      expect_round_trip(id, plane);
    }
  }
}

TEST(CodecTest, NegotiationPicksAValidCodecAndNeverLosesToRaw) {
  const bit_matrix planes[] = {
      bit_matrix(32, 60), random_plane(32, 60, 0.03, 7),
      random_plane(32, 60, 0.5, 8), bursty_plane(128, 60),
      full_plane(32, 60)};
  for (const bit_matrix& plane : planes) {
    std::vector<unsigned char> payload;
    const std::uint8_t id = tc::encode_best(plane, payload);
    ASSERT_LT(id, tc::codec_count);
    const std::size_t raw_bytes = 8 * plane.rows() * plane.word_stride();
    EXPECT_LE(payload.size(), raw_bytes) << tc::codec_name(id);
    if (id == tc::codec_raw) {
      EXPECT_EQ(payload.size(), raw_bytes);
    }
    EXPECT_TRUE(decode_plane(id, payload, plane.rows(), plane.cols()) == plane)
        << tc::codec_name(id);
  }
}

TEST(CodecTest, SparsePlanesBeatRawSubstantially) {
  // The bench gate demands >= 4x on realistic corpora; at the codec
  // level a 2% plane must compress well past that.
  const bit_matrix plane = random_plane(256, 60, 0.02, 11);
  std::vector<unsigned char> payload;
  (void)tc::encode_best(plane, payload);
  const std::size_t raw_bytes = 8 * plane.rows() * plane.word_stride();
  EXPECT_LT(payload.size() * 4, raw_bytes);
}

TEST(CodecTest, DecodedTailsAreAlwaysClean) {
  // A hostile raw payload with every bit set must not leak bits beyond
  // cols into the decoded plane (downstream popcounts assume clean
  // tails).
  const std::size_t rows = 3, cols = 5;
  const bit_matrix probe(rows, cols);
  const std::vector<unsigned char> all_ones(
      8 * rows * probe.word_stride(), 0xFF);
  bit_matrix out(rows, cols);
  tc::decode(tc::codec_raw, all_ones.data(), all_ones.size(), out);
  EXPECT_EQ(out.count(), rows * cols);
}

TEST(CodecTest, RejectsUnknownCodecIds) {
  const bit_matrix plane(2, 10);
  std::vector<unsigned char> payload;
  EXPECT_THROW(tc::encode(tc::codec_count, plane, payload), trace_error);
  EXPECT_THROW(decode_plane(17, {0x00, 0x01}, 2, 10), trace_error);
}

TEST(CodecTest, RawRejectsWrongPayloadSize) {
  EXPECT_THROW(decode_plane(tc::codec_raw, std::vector<unsigned char>(7), 1,
                            64),
               trace_error);
  EXPECT_THROW(decode_plane(tc::codec_raw, std::vector<unsigned char>(16), 1,
                            64),
               trace_error);
}

TEST(CodecTest, RleRejectsHostileRuns) {
  const std::size_t rows = 2, cols = 64;  // plane = 2 words.
  const auto reject = [&](std::vector<unsigned char> payload) {
    for (const std::uint8_t id : {tc::codec_rle, tc::codec_xor_rle}) {
      EXPECT_THROW(decode_plane(id, payload, rows, cols), trace_error)
          << tc::codec_name(id);
    }
  };
  // Zero-run overrunning the plane (and a genuinely huge declared run —
  // the allocation-bomb shape).
  {
    std::vector<unsigned char> p = {0x00};
    put_varint(p, 3);
    reject(p);
  }
  {
    std::vector<unsigned char> p = {0x00};
    put_varint(p, std::uint64_t{1} << 40);
    reject(p);
  }
  // Run length zero is malformed.
  {
    std::vector<unsigned char> p = {0x00};
    put_varint(p, 0);
    reject(p);
  }
  // Truncated varint: continuation bit with no terminator.
  reject({0x00, 0x80});
  // Repeat op with a truncated word.
  {
    std::vector<unsigned char> p = {0x01};
    put_varint(p, 2);
    p.insert(p.end(), {0xAA, 0xBB});  // 2 of 8 word bytes.
    reject(p);
  }
  // Literal run declaring more words than the payload holds.
  {
    std::vector<unsigned char> p = {0x02};
    put_varint(p, 2);
    p.resize(p.size() + 8, 0xCC);  // one word, two declared.
    reject(p);
  }
  // Unknown op tag.
  {
    std::vector<unsigned char> p = {0x7F};
    put_varint(p, 1);
    reject(p);
  }
  // Payload that decodes to too few words (one zero word of two).
  {
    std::vector<unsigned char> p = {0x00};
    put_varint(p, 1);
    reject(p);
  }
}

TEST(CodecTest, SparseRejectsHostileIndexLists) {
  const std::size_t rows = 4, cols = 10;  // 40 bits.
  const auto reject = [&](const std::vector<unsigned char>& payload) {
    for (const std::uint8_t id : {tc::codec_sparse, tc::codec_t_sparse}) {
      EXPECT_THROW(decode_plane(id, payload, rows, cols), trace_error)
          << tc::codec_name(id);
    }
  };
  // Count exceeding the plane's bits.
  {
    std::vector<unsigned char> p;
    put_varint(p, 41);
    reject(p);
  }
  // First index out of range.
  {
    std::vector<unsigned char> p;
    put_varint(p, 1);
    put_varint(p, 40);
    reject(p);
  }
  // Delta zero: indices must strictly increase.
  {
    std::vector<unsigned char> p;
    put_varint(p, 2);
    put_varint(p, 5);
    put_varint(p, 0);
    reject(p);
  }
  // Delta running past the plane (also exercises the overflow guard:
  // idx + delta computed without wrapping).
  {
    std::vector<unsigned char> p;
    put_varint(p, 2);
    put_varint(p, 5);
    put_varint(p, ~std::uint64_t{0} - 3);
    reject(p);
  }
  // Truncated list: count says two, payload holds one index.
  {
    std::vector<unsigned char> p;
    put_varint(p, 2);
    put_varint(p, 5);
    reject(p);
  }
  // Trailing bytes after the declared list.
  {
    std::vector<unsigned char> p;
    put_varint(p, 1);
    put_varint(p, 5);
    p.push_back(0x00);
    reject(p);
  }
}

}  // namespace
}  // namespace ntom
