// The ntom binary trace format (.trc): one captured measurement dataset
// — topology, per-interval path observations, optional ground-truth and
// observed-path planes — persisted so a corpus recorded once replays
// across every estimator, grid, and bench.
//
// The layout (all integers little-endian; full specification in
// docs/trace_format.md):
//
//   header   magic "NTOMTRC1", u32 version (2), u32 flags (bit0 = truth
//            plane, bit1 = observed-path mask plane), u64 intervals /
//            paths / links, length-prefixed provenance string,
//            length-prefixed embedded topology (io/topology_io text
//            format), u32 CRC32 over everything before it.
//
//   frame    "FRME", u64 first_interval, u64 count, then one SECTION
//            PER PLANE (observations, then truth when flagged, then
//            mask when flagged): u8 codec id, u32 encoded length, the
//            encoded payload (trace/codec.hpp — the writer stores each
//            plane under the smallest codec, per plane per frame). The
//            mask plane is a single 1 x paths row: the chunk's
//            observed_paths, with every bit set when the chunk was
//            fully observed. A u32 CRC32 over the header fields and all
//            plane sections closes the frame.
//
//   index    "CIDX", u64 entry count (= frame count), then one {u64
//            file offset, u64 first_interval, u64 count} per frame, u32
//            CRC32 over count + entries. Required: readers seek
//            straight to an interval range (sharded corpus replay)
//            through it.
//
//   trailer  "TRLR", u64 total frames, u64 total intervals, u64 index
//            offset, u32 CRC32 over the three totals (32 bytes).
//            Anything after the trailer is an error.
//
// Readers reject any other version and flag bits outside
// trace_flag_mask (an old reader must never silently misinterpret a
// newer file).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ntom {

/// Thrown on malformed, truncated, or corrupted trace files and on
/// trace I/O failures. Reading a hostile file throws; it never invokes
/// undefined behavior.
class trace_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char trace_magic[8] = {'N', 'T', 'O', 'M',
                                        'T', 'R', 'C', '1'};

/// The one version the writer emits and the reader accepts.
inline constexpr std::uint32_t trace_format_version = 2;

/// Header flag bits. Bits outside trace_flag_mask are reserved for
/// future versions and rejected by this reader.
inline constexpr std::uint32_t trace_flag_has_truth = 1U << 0;
/// Every frame carries an observed-path mask plane (probe-budget
/// captures).
inline constexpr std::uint32_t trace_flag_has_mask = 1U << 1;
inline constexpr std::uint32_t trace_flag_mask =
    trace_flag_has_truth | trace_flag_has_mask;

inline constexpr char trace_frame_magic[4] = {'F', 'R', 'M', 'E'};
inline constexpr char trace_index_magic[4] = {'C', 'I', 'D', 'X'};
inline constexpr char trace_trailer_magic[4] = {'T', 'R', 'L', 'R'};

/// On-disk trailer size (magic + totals + CRC32).
inline constexpr std::size_t trace_trailer_bytes = 4 + 24 + 4;

/// Per-frame index entry: {u64 offset, u64 first_interval, u64 count}.
inline constexpr std::size_t trace_index_entry_bytes = 24;

/// Decode expansion cap: a plane (and a whole file) may not decode to
/// more than 2^16 times its stored bytes. Compressed payloads have no
/// intrinsic size bound (a few RLE bytes can declare an arbitrary zero
/// run), so this cap is what keeps a crafted tiny file from driving a
/// huge allocation; it still admits every realistic capture (measured
/// corpora compress well under 32x).
inline constexpr unsigned trace_max_expansion_log2 = 16;

}  // namespace ntom
