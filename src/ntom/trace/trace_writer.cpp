#include "ntom/trace/trace_writer.hpp"

#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "ntom/io/topology_io.hpp"
#include "ntom/trace/codec.hpp"
#include "ntom/trace/wire.hpp"
#include "ntom/util/crc32.hpp"

namespace ntom {

using trace_wire::put_u32;
using trace_wire::put_u64;
using trace_wire::word_stride;

trace_writer::trace_writer(std::string path, trace_writer_options options)
    : path_(std::move(path)), options_(std::move(options)) {
  // An existing regular file is replaced, not truncated in place: a
  // reader that still maps the old capture keeps reading it, and the
  // close does not wait for the truncated file's writeback. Anything
  // else (a device such as /dev/full, a FIFO, a symlink) is opened as is.
  std::error_code ec;
  if (std::filesystem::is_regular_file(
          std::filesystem::symlink_status(path_, ec))) {
    std::filesystem::remove(path_, ec);
  }
  out_ = std::fopen(path_.c_str(), "wb");
  if (out_ == nullptr) throw trace_error("trace_writer: cannot open " + path_);
  stream_buffer_.resize(256 * 1024);
  std::setvbuf(out_, stream_buffer_.data(), _IOFBF, stream_buffer_.size());
}

trace_writer::~trace_writer() {
  if (out_ != nullptr) std::fclose(out_);
}

void trace_writer::write_raw(const void* data, std::size_t len) {
  if (std::fwrite(data, 1, len, out_) != len) {
    throw trace_error("trace_writer: write failed for " + path_);
  }
  bytes_written_ += len;
}

void trace_writer::begin(const topology& t, std::size_t intervals) {
  if (begun_) throw trace_error("trace_writer: begin() called twice");
  begun_ = true;
  intervals_declared_ = intervals;
  paths_ = t.num_paths();
  links_ = t.num_links();

  std::ostringstream topo_text;
  save_topology(t, topo_text);
  const std::string topo = topo_text.str();

  // Header: everything before the CRC field feeds the CRC.
  std::vector<unsigned char> header;
  header.reserve(64 + options_.provenance.size() + topo.size());
  const auto append = [&header](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    header.insert(header.end(), bytes, bytes + len);
  };
  const auto append_u32 = [&](std::uint32_t v) {
    unsigned char buf[4];
    put_u32(buf, v);
    append(buf, 4);
  };
  const auto append_u64 = [&](std::uint64_t v) {
    unsigned char buf[8];
    put_u64(buf, v);
    append(buf, 8);
  };

  append(trace_magic, sizeof(trace_magic));
  append_u32(trace_format_version);
  append_u32((options_.store_truth ? trace_flag_has_truth : 0) |
             (options_.store_mask ? trace_flag_has_mask : 0));
  append_u64(intervals);
  append_u64(paths_);
  append_u64(links_);
  append_u32(static_cast<std::uint32_t>(options_.provenance.size()));
  append(options_.provenance.data(), options_.provenance.size());
  append_u32(static_cast<std::uint32_t>(topo.size()));
  append(topo.data(), topo.size());

  write_raw(header.data(), header.size());
  unsigned char crc_buf[4];
  put_u32(crc_buf, crc32(header.data(), header.size()));
  write_raw(crc_buf, 4);

  if (options_.store_mask) mask_row_ = bit_matrix(1, paths_);
}

void trace_writer::append_plane_section(std::vector<unsigned char>& frame,
                                        const bit_matrix& plane) {
  const std::size_t at = frame.size();
  frame.resize(at + 5);  // u8 codec id + u32 encoded length, patched below
  const std::uint8_t id = trace_codec::encode_best(plane, frame);
  const std::size_t encoded = frame.size() - at - 5;
  if (encoded > 0xFFFFFFFFu) {
    throw trace_error("trace_writer: plane section exceeds 4 GiB");
  }
  frame[at] = id;
  put_u32(frame.data() + at + 1, static_cast<std::uint32_t>(encoded));
}

void trace_writer::write_frame(const std::vector<unsigned char>& frame) {
  // CRC covers head + rows (everything after the 4-byte magic), same
  // as the incremental accumulator the format was defined with.
  unsigned char crc_buf[4];
  put_u32(crc_buf,
          crc32(frame.data() + sizeof(trace_frame_magic),
                frame.size() - sizeof(trace_frame_magic)));
  write_raw(frame.data(), frame.size());
  write_raw(crc_buf, 4);
  // Explicit per-frame state check: a device error from a stream-buffer
  // drain latches the stream error flag, so it surfaces at the frame
  // that observed it instead of silently truncating until end(). No
  // flush — a per-frame flush syscall would dominate the capture cost;
  // the 256 KiB buffer drains on its own schedule and end() flushes and
  // re-checks.
  if (std::ferror(out_) != 0) {
    throw trace_error("trace_writer: write failed for " + path_);
  }
}

void trace_writer::consume(const measurement_chunk& chunk) {
  if (!begun_ || finished_) {
    throw trace_error("trace_writer: consume() outside begin()/end()");
  }
  if (chunk.count == 0) return;
  if (chunk.first_interval != intervals_written_ ||
      chunk.congested_paths.rows() != chunk.count ||
      chunk.congested_paths.cols() != paths_ ||
      chunk.true_links.rows() != chunk.count ||
      chunk.true_links.cols() != links_ ||
      (!chunk.observed_paths.empty() &&
       chunk.observed_paths.size() != paths_)) {
    throw trace_error("trace_writer: chunk does not continue the stream");
  }
  if (!options_.store_mask && !chunk.fully_observed()) {
    throw trace_error(
        "trace_writer: partially-observed chunk without a mask plane — "
        "enable trace_writer_options::store_mask for probe-budget captures");
  }

  // Pack the whole frame (magic + head + plane sections) into one
  // contiguous, reused buffer, then write it with its CRC.
  std::vector<unsigned char>& frame = packing_;
  frame.resize(sizeof(trace_frame_magic) + 16);
  unsigned char* out = frame.data();
  std::memcpy(out, trace_frame_magic, sizeof(trace_frame_magic));
  put_u64(out + 4, chunk.first_interval);
  put_u64(out + 12, chunk.count);
  append_plane_section(frame, chunk.congested_paths);
  if (options_.store_truth) append_plane_section(frame, chunk.true_links);
  if (options_.store_mask) {
    const std::size_t stride_p = word_stride(paths_);
    std::uint64_t* mask = mask_row_.row_words(0);
    if (chunk.fully_observed()) {
      // All-ones row (clean tail): "every path observed", stored
      // explicitly so every frame of a masked file has the plane.
      for (std::size_t w = 0; w < stride_p; ++w) mask[w] = ~std::uint64_t{0};
      if (stride_p > 0 && paths_ % 64 != 0) {
        mask[stride_p - 1] = (std::uint64_t{1} << (paths_ % 64)) - 1;
      }
    } else {
      std::memcpy(mask, chunk.observed_paths.word_data(), 8 * stride_p);
    }
    append_plane_section(frame, mask_row_);
  }

  // CIDX entry: the frame starts where the bytes written so far end.
  index_.push_back({bytes_written_, chunk.first_interval, chunk.count});
  write_frame(frame);

  intervals_written_ += chunk.count;
}

void trace_writer::end() {
  if (!begun_ || finished_) {
    throw trace_error("trace_writer: end() outside an open capture");
  }
  if (intervals_written_ != intervals_declared_) {
    throw trace_error("trace_writer: stream ended early (" +
                      std::to_string(intervals_written_) + " of " +
                      std::to_string(intervals_declared_) + " intervals)");
  }
  // CIDX: entry count + per-frame {offset, first_interval, count},
  // CRC'd, located by the trailer's index offset field.
  const std::uint64_t index_offset = bytes_written_;
  std::vector<unsigned char> index_buf(8 + index_.size() *
                                               trace_index_entry_bytes);
  put_u64(index_buf.data(), index_.size());
  unsigned char* entry = index_buf.data() + 8;
  for (const index_entry& e : index_) {
    put_u64(entry, e.offset);
    put_u64(entry + 8, e.first_interval);
    put_u64(entry + 16, e.count);
    entry += trace_index_entry_bytes;
  }
  write_raw(trace_index_magic, sizeof(trace_index_magic));
  write_raw(index_buf.data(), index_buf.size());
  unsigned char crc_buf[4];
  put_u32(crc_buf, crc32(index_buf.data(), index_buf.size()));
  write_raw(crc_buf, 4);

  unsigned char totals[24];
  put_u64(totals, index_.size());
  put_u64(totals + 8, intervals_written_);
  put_u64(totals + 16, index_offset);
  write_raw(trace_trailer_magic, sizeof(trace_trailer_magic));
  write_raw(totals, sizeof(totals));
  put_u32(crc_buf, crc32(totals, sizeof(totals)));
  write_raw(crc_buf, 4);
  if (std::fflush(out_) != 0 || std::ferror(out_) != 0) {
    throw trace_error("trace_writer: flush failed for " + path_);
  }
  finished_ = true;
}

}  // namespace ntom
