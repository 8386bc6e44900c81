// Plane codecs of the .trc format (trace_format.hpp): each frame plane
// (observations, truth, observed-path mask) is encoded with the codec
// that stores it smallest — chosen per plane per frame at write time
// (encode_best), recorded as a one-byte codec id in the plane section.
//
// Congestion planes are sparse by construction and bursty in time, so
// beyond plain word-run RLE and a sparse bit-index list the set
// includes an XOR-delta variant (rows differ little interval to
// interval) and TRANSPOSED variants (a path that stays congested for a
// burst becomes a run in the path-major orientation — measured corpora
// pick the transposed RLE most often, and the codec set compresses
// the nightly scenarios 3-14x). All six stay: each wins sections on the
// nightly corpus, and files written with any of them must keep
// decoding (docs/trace_format.md, "Codec set").
//
// Decoding is strict: run lengths that overrun the plane, out-of-range
// or non-increasing sparse indices, truncated varints, unknown ops, and
// trailing payload bytes all throw trace_error — a hostile payload
// never causes undefined behavior. Decoded planes always come back with
// clean row tails (bits beyond cols are zero).
#pragma once

#include <cstdint>
#include <vector>

#include "ntom/trace/trace_format.hpp"
#include "ntom/util/bit_matrix.hpp"

namespace ntom::trace_codec {

/// Codec ids as stored in the plane section. `raw` is the packed
/// row-words verbatim — the cheapest to decode (a plain word copy), so
/// encode_best prefers it on ties.
inline constexpr std::uint8_t codec_raw = 0;       // packed row words
inline constexpr std::uint8_t codec_rle = 1;       // word-run RLE
inline constexpr std::uint8_t codec_sparse = 2;    // delta-varint bit list
inline constexpr std::uint8_t codec_xor_rle = 3;   // row-XOR delta, then RLE
inline constexpr std::uint8_t codec_t_rle = 4;     // transposed, then RLE
inline constexpr std::uint8_t codec_t_sparse = 5;  // transposed sparse list
inline constexpr std::uint8_t codec_count = 6;

/// Short stable name for stats and logs ("raw", "rle", "sparse",
/// "xor_rle", "t_rle", "t_sparse"); "?" for unknown ids.
[[nodiscard]] const char* codec_name(std::uint8_t id) noexcept;

/// Appends the encoding of `plane` under a specific codec. The plane
/// must have clean row tails (bit_matrix maintains this).
void encode(std::uint8_t id, const bit_matrix& plane,
            std::vector<unsigned char>& out);

/// Encodes `plane` under every candidate codec, appends the smallest
/// encoding to `out`, and returns its codec id. Ties prefer raw (the
/// cheapest decode), then the lower id. This is the only way the
/// writer stores a plane.
std::uint8_t encode_best(const bit_matrix& plane,
                         std::vector<unsigned char>& out);

/// Decodes `payload` into `out`, which must be pre-sized to the plane's
/// rows x cols and all-zero (freshly constructed). Throws trace_error
/// on any malformation; on return every row tail is clean.
void decode(std::uint8_t id, const unsigned char* payload, std::size_t len,
            bit_matrix& out);

}  // namespace ntom::trace_codec
