// trace_writer: capture the measurement stream to a .trc file.
//
// The writer is just another measurement_sink, so capture composes with
// fanout_sink — one live pass can fit streaming estimators, feed the
// materialized store, AND record the dataset. Each consumed chunk
// becomes one frame (plane sections, each stored under its smallest
// codec — trace/codec.hpp); the reader re-chunks to any
// granularity on replay, so the capture chunk size never matters
// downstream (except for masked captures, which replay at capture
// granularity — the mask is per chunk). Frame offsets are accumulated
// into the CIDX index that end() appends before the trailer.
//
// Frames are packed, CRC'd and written on the caller's thread:
// consume() packs the chunk into one reused buffer and hands it to a
// 256 KiB stdio buffer, so steady-state capture allocates nothing and
// an I/O error surfaces from the consume() or end() that observed it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ntom/sim/measurement.hpp"
#include "ntom/trace/trace_format.hpp"

namespace ntom {

struct trace_writer_options {
  /// Persist the ground-truth link plane. Disable to publish a dataset
  /// without revealing truth (replays then score observation-only).
  bool store_truth = true;

  /// Persist the per-chunk observed-path mask plane (trace_flag_has_mask)
  /// so probe-budget (masked) streams capture and replay bit-identically.
  /// Without it, consuming a partially-observed chunk throws — a capture
  /// must never silently drop the mask. Fully-observed chunks store an
  /// all-ones mask row (which the RLE codec reduces to a few bytes).
  bool store_mask = false;

  /// Free-form origin string embedded in the header (capture config,
  /// import source) — surfaced by trace_reader::provenance().
  std::string provenance;
};

class trace_writer final : public measurement_sink {
 public:
  /// Opens `path` for writing (truncates); throws trace_error when the
  /// file cannot be created. The header is written by begin().
  explicit trace_writer(std::string path, trace_writer_options options = {});

  trace_writer(const trace_writer&) = delete;
  trace_writer& operator=(const trace_writer&) = delete;

  /// Closes the file; an unfinished capture leaves a file without a
  /// trailer, which trace_reader rejects.
  ~trace_writer() override;

  void begin(const topology& t, std::size_t intervals) override;
  void consume(const measurement_chunk& chunk) override;

  /// Writes the index and trailer, and flushes; throws trace_error on
  /// any I/O failure. The file is complete (and readable) only after
  /// end() returns.
  void end() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Bytes handed to the stream so far (header + frames + trailer).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

  /// Intervals recorded so far — the dataset's T after end(). Differs
  /// from the run's simulated T when imperfection decorators sit
  /// upstream of the writer.
  [[nodiscard]] std::uint64_t intervals_written() const noexcept {
    return intervals_written_;
  }

 private:
  /// One CIDX entry, accumulated per frame.
  struct index_entry {
    std::uint64_t offset;
    std::uint64_t first_interval;
    std::uint64_t count;
  };

  void write_raw(const void* data, std::size_t len);

  /// Appends one plane section (u8 codec id, u32 encoded length,
  /// payload) to the frame under construction, under the plane's
  /// smallest codec.
  void append_plane_section(std::vector<unsigned char>& frame,
                            const bit_matrix& plane);

  /// CRCs and writes one packed frame (magic + head + plane sections),
  /// then verifies the stream state.
  void write_frame(const std::vector<unsigned char>& frame);

  std::string path_;
  trace_writer_options options_;
  /// C stdio stream: fwrite through a 256 KiB setvbuf buffer is about
  /// half the per-call cost of std::ofstream::write (no sentry, no
  /// virtual dispatch) — measurable at one fwrite pair per frame.
  std::FILE* out_ = nullptr;
  std::uint64_t intervals_declared_ = 0;
  std::uint64_t intervals_written_ = 0;
  std::size_t paths_ = 0;
  std::size_t links_ = 0;
  /// One CIDX entry per frame written.
  std::vector<index_entry> index_;
  /// Reusable 1 x paths mask-plane row (all-ones for fully-observed
  /// chunks).
  bit_matrix mask_row_;
  /// Bytes handed to the stream — also the next frame's file offset.
  std::uint64_t bytes_written_ = 0;
  bool begun_ = false;
  bool finished_ = false;

  /// Explicit stream buffer (256 KiB): fewer write syscalls than the
  /// default stdio buffer, and begin()'s header stays buffered so
  /// device errors surface at frame granularity, not inside begin().
  std::vector<char> stream_buffer_;
  /// Frame under construction, reused across consume() calls.
  std::vector<unsigned char> packing_;
};

}  // namespace ntom
