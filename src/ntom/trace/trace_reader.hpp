// trace_reader: replay a captured .trc dataset through the streaming
// measurement contract.
//
// The reader implements measurement_source: topology_ptr() hands the
// embedded topology to the run, stream() re-emits the intervals at ANY
// requested chunk granularity — chunk boundaries of the capture never
// leak through, so a dataset recorded at chunk 1 replays bit-identically
// at chunk 64 and vice versa. The one exception is masked files
// (trace_flag_has_mask): the observed-path mask is per captured chunk,
// so those replay at capture granularity, ignoring the requested chunk
// size — merging intervals across mask boundaries would change what
// downstream counters observe.
//
// The reader reads one format: version 2 (trace_format.hpp), plane-
// major frames whose planes carry a codec id each (trace/codec), an
// optional mask plane, and the CIDX frame index, which every file
// carries. Any other version, and a file without an index, fails at
// open. The file is mapped read-only with mmap and parsed in place,
// which saves the read() copy of buffered I/O (planes are still decoded
// into the chunk matrices). The index backs stream_range(), which seeks
// straight to an interval range so a corpus directory can shard one
// file across run_grid workers.
//
// Construction validates the header, the embedded topology, the trailer,
// and the index (so truncation fails fast); every stream() pass
// additionally verifies each frame's CRC32. All failure modes throw
// trace_error — a corrupted or hostile file never causes undefined
// behavior. (A file truncated by another process while mapped can still
// raise SIGBUS.)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ntom/sim/measurement.hpp"
#include "ntom/trace/trace_format.hpp"

namespace ntom {

/// One CIDX entry: where a frame lives and which intervals it holds.
struct trace_frame_entry {
  std::uint64_t offset = 0;
  std::uint64_t first_interval = 0;
  std::uint64_t count = 0;
};

/// Per-frame stats from scan_frames() — codec ids and stored sizes per
/// plane section, in file order (observations, truth, mask).
struct trace_frame_stat {
  std::uint64_t offset = 0;
  std::uint64_t first_interval = 0;
  std::uint64_t count = 0;
  std::uint64_t stored_bytes = 0;  ///< whole frame, magic through CRC.
  struct plane {
    std::uint8_t codec = 0;
    std::uint64_t encoded_bytes = 0;
    std::uint64_t decoded_bytes = 0;  ///< raw-equivalent packed size.
  };
  plane planes[3];
  std::size_t num_planes = 0;
};

class trace_reader final : public measurement_source {
 public:
  /// Maps and validates `path` (header, embedded topology, trailer,
  /// index). Throws trace_error when the path cannot be mapped (missing,
  /// empty, or not a regular file) and on any malformation.
  explicit trace_reader(std::string path);

  ~trace_reader() override;

  [[nodiscard]] std::shared_ptr<const topology> topology_ptr() const override {
    return topo_;
  }
  [[nodiscard]] std::size_t intervals() const override { return intervals_; }
  [[nodiscard]] bool has_truth() const override { return has_truth_; }
  [[nodiscard]] bool has_mask() const override { return has_mask_; }
  [[nodiscard]] std::string provenance() const override { return provenance_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Frames in the file (the capture's chunk count).
  [[nodiscard]] std::uint64_t frames() const noexcept { return index_.size(); }

  /// The loaded CIDX index, one entry per frame in file order.
  [[nodiscard]] const std::vector<trace_frame_entry>& index() const noexcept {
    return index_;
  }

  /// File size in bytes.
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return size_; }

  /// Replays every interval into `sink`, re-chunked to
  /// `chunk_intervals` (0 = default granularity; masked files always
  /// replay at capture granularity). Each pass re-reads and re-verifies
  /// the file, so repeated passes (fit, then score) hold O(chunk)
  /// memory and stay independent.
  void stream(measurement_sink& sink,
              std::size_t chunk_intervals) const override;

  /// Replays intervals [first, first + count) only, re-based to start
  /// at 0 — the sink sees a dataset of `count` intervals. Seeks through
  /// the index (sharded corpus replay); frames outside the range are
  /// skipped unverified. Throws trace_error when the range
  /// does not fit the dataset.
  void stream_range(measurement_sink& sink, std::size_t chunk_intervals,
                    std::uint64_t first, std::uint64_t count) const;

  /// Replays each stored frame as ONE chunk at capture granularity,
  /// with the frame's absolute first_interval — the corpus tools'
  /// re-emission hook (merge/split rewrite first_interval and feed a
  /// writer). The callback may mutate the chunk freely.
  void stream_frames(
      const std::function<void(measurement_chunk& chunk)>& fn) const;

  /// Walks every frame without decoding planes: verifies frame CRCs and
  /// structure, checks each frame's offset and interval range against
  /// the index (mismatch throws trace_error), and reports per-frame
  /// codec/size stats.
  void scan_frames(
      const std::function<void(const trace_frame_stat& stat)>& fn) const;

 private:
  class cursor;
  struct mapping;
  struct decoded_frame;

  /// Parses the frame at the cursor. Contiguity is
  /// checked against `expected_first` / `remaining`; planes are decoded
  /// into `out` when non-null; codec stats recorded into `stat` when
  /// non-null; the frame CRC is always verified.
  void parse_frame(cursor& c, std::uint64_t expected_first,
                   std::uint64_t remaining, decoded_frame* out,
                   trace_frame_stat* stat) const;

  /// Positions the cursor, through the index, at the frame whose range
  /// contains `target` and returns that frame's first interval.
  std::uint64_t locate_frame(cursor& c, std::uint64_t target) const;

  /// Shared replay core of stream() / stream_range().
  void stream_impl(measurement_sink& sink, std::size_t chunk_intervals,
                   std::uint64_t range_first, std::uint64_t range_count,
                   bool full_pass) const;

  /// After a full sequential pass: the cursor must sit exactly where
  /// the frame region ends (at the index) — anything else is trailing
  /// garbage.
  void check_frames_end(const cursor& c) const;

  std::string path_;
  std::shared_ptr<const topology> topo_;
  std::size_t intervals_ = 0;
  bool has_truth_ = false;
  bool has_mask_ = false;
  std::string provenance_;
  std::uint64_t size_ = 0;
  std::uint64_t data_offset_ = 0;
  std::uint64_t index_offset_ = 0;
  std::vector<trace_frame_entry> index_;
  std::shared_ptr<const mapping> mapping_;
};

}  // namespace ntom
