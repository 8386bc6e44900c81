#include "ntom/trace/trace_reader.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ntom/io/topology_io.hpp"
#include "ntom/trace/codec.hpp"
#include "ntom/trace/wire.hpp"
#include "ntom/util/crc32.hpp"

namespace ntom {

using trace_wire::get_u32;
using trace_wire::get_u64;
using trace_wire::word_stride;

namespace {

// Length caps for the header's variable sections: a corrupted length
// field must fail cleanly instead of driving a multi-gigabyte
// allocation.
constexpr std::uint32_t max_provenance_bytes = 1U << 20;
constexpr std::uint32_t max_topology_bytes = 1U << 30;

}  // namespace

/// A decoded frame: both matrices always count x dims (truth zeroed for
/// truthless files), the mask normalized to the chunk convention (empty
/// bitvec = fully observed).
struct trace_reader::decoded_frame {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  bit_matrix obs;
  bit_matrix truth;
  bitvec mask;
};

/// Read-only mapping of the whole file, shared by every pass (stream()
/// is const and may run concurrently).
struct trace_reader::mapping {
  const unsigned char* data = nullptr;
  std::uint64_t size = 0;

  mapping() = default;
  mapping(const mapping&) = delete;
  mapping& operator=(const mapping&) = delete;
  ~mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<unsigned char*>(data),
               static_cast<std::size_t>(size));
    }
  }

  /// Throws trace_error when `path` is missing, is not a regular file
  /// (a directory or FIFO), is empty, or cannot be mapped.
  static std::shared_ptr<const mapping> map(const std::string& path) {
    // O_NONBLOCK: opening a FIFO must fail below, not wait for a writer.
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0) throw trace_error("trace_reader: cannot open " + path);
    struct stat st {};
    const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    if (!regular || st.st_size <= 0) {
      ::close(fd);
      throw trace_error(regular ? "trace_reader: empty file " + path
                                : "trace_reader: not a regular file " + path);
    }
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) throw trace_error("trace_reader: cannot mmap " + path);
    auto m = std::make_shared<mapping>();
    m->data = static_cast<const unsigned char*>(p);
    m->size = static_cast<std::uint64_t>(st.st_size);
    return m;
  }
};

/// Positioned, bounds-checked byte access over the mapping. view()
/// returns a pointer into the mapping, so every parse path reads the
/// file in place.
class trace_reader::cursor {
 public:
  explicit cursor(const mapping& m) : data_(m.data), size_(m.size) {}

  const unsigned char* view(std::size_t len, const char* what) {
    if (len > size_ - pos_) {
      throw trace_error(std::string("trace: unexpected end of file in ") +
                        what);
    }
    const unsigned char* p = data_ + pos_;
    pos_ += len;
    return p;
  }

  void seek(std::uint64_t off) {
    if (off > size_) {
      throw trace_error("trace: seek past the end of the file");
    }
    pos_ = off;
  }

  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

 private:
  const unsigned char* data_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

trace_reader::~trace_reader() = default;

trace_reader::trace_reader(std::string path)
    : path_(std::move(path)), mapping_(mapping::map(path_)) {
  cursor cur(*mapping_);
  size_ = cur.size();

  // Header; every byte read feeds the CRC check at the end.
  crc32_accumulator crc;
  const auto view_crc = [&](std::size_t len, const char* what) {
    const unsigned char* p = cur.view(len, what);
    crc.update(p, len);
    return p;
  };

  const unsigned char* magic = view_crc(sizeof(trace_magic), "magic");
  if (std::memcmp(magic, trace_magic, sizeof(trace_magic)) != 0) {
    throw trace_error("trace: bad magic (not an ntom trace file): " + path_);
  }
  const unsigned char* scalars = view_crc(4 + 4 + 8 + 8 + 8, "header");
  const std::uint32_t version = get_u32(scalars);
  if (version != trace_format_version) {
    throw trace_error("trace: unsupported format version " +
                      std::to_string(version));
  }
  const std::uint32_t flags = get_u32(scalars + 4);
  if ((flags & ~trace_flag_mask) != 0) {
    throw trace_error("trace: unknown header flags (newer writer?)");
  }
  has_truth_ = (flags & trace_flag_has_truth) != 0;
  has_mask_ = (flags & trace_flag_has_mask) != 0;
  intervals_ = static_cast<std::size_t>(get_u64(scalars + 8));
  const std::uint64_t paths = get_u64(scalars + 16);
  const std::uint64_t links = get_u64(scalars + 24);

  const std::uint32_t prov_len =
      get_u32(view_crc(4, "provenance length"));
  if (prov_len > max_provenance_bytes) {
    throw trace_error("trace: provenance length is implausible");
  }
  if (prov_len > 0) {
    const unsigned char* p = view_crc(prov_len, "provenance");
    provenance_.assign(reinterpret_cast<const char*>(p), prov_len);
  }

  const std::uint32_t topo_len = get_u32(view_crc(4, "topology length"));
  if (topo_len > max_topology_bytes) {
    throw trace_error("trace: topology length is implausible");
  }
  std::string topo_text;
  if (topo_len > 0) {
    const unsigned char* p = view_crc(topo_len, "topology");
    topo_text.assign(reinterpret_cast<const char*>(p), topo_len);
  }

  const unsigned char* crc_buf = cur.view(4, "header CRC");
  if (get_u32(crc_buf) != crc.value()) {
    throw trace_error("trace: header CRC mismatch (corrupted file)");
  }

  std::istringstream topo_stream(topo_text);
  try {
    topo_ = std::make_shared<const topology>(load_topology(topo_stream));
  } catch (const std::exception& err) {
    throw trace_error(std::string("trace: embedded topology is invalid: ") +
                      err.what());
  }
  if (topo_->num_paths() != paths || topo_->num_links() != links) {
    throw trace_error(
        "trace: header dimensions disagree with the embedded topology");
  }
  data_offset_ = cur.pos();

  // Trailer check up front: truncation fails at open, not mid-replay.
  constexpr std::size_t tb = trace_trailer_bytes;
  if (size_ < data_offset_ + tb) {
    throw trace_error("trace: file too short for a trailer (truncated?)");
  }
  cur.seek(size_ - tb);
  const unsigned char* trailer = cur.view(tb, "trailer");
  if (std::memcmp(trailer, trace_trailer_magic,
                  sizeof(trace_trailer_magic)) != 0) {
    throw trace_error("trace: missing trailer (file truncated?)");
  }
  const unsigned char* totals = trailer + sizeof(trace_trailer_magic);
  const std::size_t totals_len = tb - sizeof(trace_trailer_magic) - 4;
  if (get_u32(totals + totals_len) != crc32(totals, totals_len)) {
    throw trace_error("trace: trailer CRC mismatch");
  }
  const std::uint64_t frames = get_u64(totals);
  if (get_u64(totals + 8) != intervals_) {
    throw trace_error("trace: trailer interval count disagrees with header");
  }
  index_offset_ = get_u64(totals + 16);

  // Size accounting: a crafted header declaring a huge interval count
  // must fail here, not as an overflowed allocation in a downstream
  // consumer sized from intervals(). Payloads are compressed, so the
  // bound is the decode expansion cap.
  const std::size_t row_bytes =
      8 * (word_stride(topo_->num_paths()) +
           (has_truth_ ? word_stride(topo_->num_links()) : 0));
  const std::uint64_t payload = size_ - data_offset_ - tb;
  const auto decoded = static_cast<unsigned __int128>(intervals_) * row_bytes;
  const auto cap = static_cast<unsigned __int128>(payload)
                   << trace_max_expansion_log2;
  // Every frame costs at least magic + head + CRC on disk.
  if (frames > intervals_ || decoded > cap ||
      (frames > 0 && frames > payload / 24)) {
    throw trace_error(
        "trace: header interval count exceeds the file's payload");
  }

  // The CIDX index, which every file carries (offset 0, the old "no
  // index" value, lies inside the header and is rejected here). Strict
  // layout: the index must exactly fill the span between its offset and
  // the trailer.
  if (index_offset_ < data_offset_ || index_offset_ > size_ - tb) {
    throw trace_error("trace: index offset out of range");
  }
  cur.seek(index_offset_);
  const unsigned char* im = cur.view(4, "index magic");
  if (std::memcmp(im, trace_index_magic, sizeof(trace_index_magic)) != 0) {
    throw trace_error("trace: bad index magic (corrupted file)");
  }
  crc32_accumulator icrc;
  const unsigned char* nb = cur.view(8, "index entry count");
  icrc.update(nb, 8);
  const std::uint64_t n = get_u64(nb);
  if (n != frames) {
    throw trace_error("trace: index entry count disagrees with the trailer");
  }
  const std::uint64_t body = (size_ - tb) - index_offset_;
  if (body < 16 || (body - 16) / trace_index_entry_bytes < n ||
      16 + n * trace_index_entry_bytes != body) {
    throw trace_error("trace: index size disagrees with its entry count");
  }
  index_.reserve(static_cast<std::size_t>(n));
  std::uint64_t running = 0;
  std::uint64_t prev_offset = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const unsigned char* e = cur.view(trace_index_entry_bytes, "index");
    icrc.update(e, trace_index_entry_bytes);
    trace_frame_entry entry;
    entry.offset = get_u64(e);
    entry.first_interval = get_u64(e + 8);
    entry.count = get_u64(e + 16);
    if (entry.offset < data_offset_ || entry.offset >= index_offset_ ||
        (i > 0 && entry.offset <= prev_offset)) {
      throw trace_error("trace: index frame offsets are out of range");
    }
    if (entry.first_interval != running || entry.count == 0 ||
        entry.count > intervals_ - running) {
      throw trace_error("trace: index intervals are not contiguous");
    }
    running += entry.count;
    prev_offset = entry.offset;
    index_.push_back(entry);
  }
  if (running != intervals_) {
    throw trace_error("trace: index intervals are not contiguous");
  }
  const unsigned char* ic = cur.view(4, "index CRC");
  if (get_u32(ic) != icrc.value()) {
    throw trace_error("trace: index CRC mismatch (corrupted file)");
  }
}

void trace_reader::parse_frame(cursor& c, std::uint64_t expected_first,
                               std::uint64_t remaining, decoded_frame* out,
                               trace_frame_stat* stat) const {
  const std::uint64_t at = c.pos();
  const std::size_t paths = topo_->num_paths();
  const std::size_t links = topo_->num_links();
  const unsigned char* fm = c.view(sizeof(trace_frame_magic), "frame header");
  if (std::memcmp(fm, trace_frame_magic, sizeof(trace_frame_magic)) != 0) {
    throw trace_error("trace: bad frame magic (corrupted file)");
  }
  crc32_accumulator crc;
  const unsigned char* head = c.view(16, "frame header");
  crc.update(head, 16);
  const std::uint64_t first = get_u64(head);
  const std::uint64_t count = get_u64(head + 8);
  if (count == 0 || first != expected_first || count > remaining) {
    throw trace_error("trace: frame intervals are not contiguous");
  }
  if (stat != nullptr) {
    *stat = trace_frame_stat{};
    stat->offset = at;
    stat->first_interval = first;
    stat->count = count;
  }
  if (out != nullptr) {
    out->first = first;
    out->count = count;
    out->mask = bitvec{};
  }

  // Plane sections: observations, truth (flagged), mask (flagged).
  const bool present[3] = {true, has_truth_, has_mask_};
  if (out != nullptr && !has_truth_) {
    // The chunk contract wants a (zeroed) truth matrix even when the
    // file stores none.
    out->truth = bit_matrix(static_cast<std::size_t>(count), links);
  }
  for (int p = 0; p < 3; ++p) {
    if (!present[p]) continue;
    const std::size_t rows = (p == 2) ? 1 : static_cast<std::size_t>(count);
    const std::size_t cols = (p == 1) ? links : paths;
    const unsigned char* ph = c.view(5, "plane header");
    crc.update(ph, 5);
    const std::uint8_t codec = ph[0];
    const std::uint32_t enc_len = get_u32(ph + 1);
    if (codec >= trace_codec::codec_count) {
      throw trace_error("trace: unknown plane codec id " +
                        std::to_string(codec));
    }
    const std::uint64_t decoded_bytes =
        8 * static_cast<std::uint64_t>(rows) * word_stride(cols);
    // Expansion cap BEFORE allocating the decode target: a few
    // hostile payload bytes must not declare a huge plane.
    const auto cap = static_cast<unsigned __int128>(enc_len + 8)
                     << trace_max_expansion_log2;
    if (static_cast<unsigned __int128>(decoded_bytes) > cap) {
      throw trace_error("trace: plane expands beyond the decode cap");
    }
    const unsigned char* payload = c.view(enc_len, "plane payload");
    crc.update(payload, enc_len);
    if (stat != nullptr) {
      stat->planes[stat->num_planes++] = {codec, enc_len, decoded_bytes};
    }
    if (out != nullptr) {
      bit_matrix target(rows, cols);
      trace_codec::decode(codec, payload, enc_len, target);
      if (p == 0) {
        out->obs = std::move(target);
      } else if (p == 1) {
        out->truth = std::move(target);
      } else {
        // Normalize: an all-ones mask row is the fully-observed
        // sentinel (empty bitvec) downstream.
        if (target.count_row(0) == paths) {
          out->mask = bitvec{};
        } else {
          bitvec mask(paths);
          std::memcpy(mask.word_data(), target.row_words(0),
                      8 * word_stride(paths));
          out->mask = std::move(mask);
        }
      }
    }
  }

  const unsigned char* crc_buf = c.view(4, "frame CRC");
  if (get_u32(crc_buf) != crc.value()) {
    throw trace_error("trace: frame payload CRC mismatch (corrupted file)");
  }
  if (stat != nullptr) stat->stored_bytes = c.pos() - at;
}

std::uint64_t trace_reader::locate_frame(cursor& c,
                                         std::uint64_t target) const {
  // Last entry with first_interval <= target. Entry 0 starts at
  // interval 0, so the iterator never lands on begin().
  auto it = std::upper_bound(
      index_.begin(), index_.end(), target,
      [](std::uint64_t t, const trace_frame_entry& e) {
        return t < e.first_interval;
      });
  --it;
  c.seek(it->offset);
  return it->first_interval;
}

void trace_reader::check_frames_end(const cursor& c) const {
  if (c.pos() != index_offset_) {
    throw trace_error("trace: trailing garbage after the last frame");
  }
}

void trace_reader::stream(measurement_sink& sink,
                          std::size_t chunk_intervals) const {
  stream_impl(sink, chunk_intervals, 0, intervals_, /*full_pass=*/true);
}

void trace_reader::stream_range(measurement_sink& sink,
                                std::size_t chunk_intervals,
                                std::uint64_t first,
                                std::uint64_t count) const {
  if (first > intervals_ || count > intervals_ - first) {
    throw trace_error("trace: replay range exceeds the dataset (" +
                      std::to_string(first) + "+" + std::to_string(count) +
                      " of " + std::to_string(intervals_) + " intervals)");
  }
  stream_impl(sink, chunk_intervals, first, count,
              first == 0 && count == intervals_);
}

void trace_reader::stream_impl(measurement_sink& sink,
                               std::size_t chunk_intervals,
                               std::uint64_t range_first,
                               std::uint64_t range_count,
                               bool full_pass) const {
  if (chunk_intervals == 0) chunk_intervals = default_chunk_intervals;
  cursor cur(*mapping_);
  std::uint64_t seen = 0;  // absolute first interval of the next frame
  if (range_first == 0 || range_count == 0) {
    cur.seek(data_offset_);
  } else {
    seen = locate_frame(cur, range_first);
  }

  sink.begin(*topo_, static_cast<std::size_t>(range_count));

  if (has_mask_) {
    // Masked replay: one chunk per stored frame — the observed-path
    // mask is per capture chunk, so re-chunking across frame boundaries
    // would change what downstream counters observe.
    measurement_chunk chunk;
    std::uint64_t emitted = 0;
    while (emitted < range_count) {
      decoded_frame f;
      parse_frame(cur, seen, intervals_ - seen, &f, nullptr);
      seen = f.first + f.count;
      const std::uint64_t skip =
          range_first > f.first ? range_first - f.first : 0;
      const std::uint64_t take =
          std::min<std::uint64_t>(f.count - skip, range_count - emitted);
      chunk.first_interval = static_cast<std::size_t>(emitted);
      chunk.count = static_cast<std::size_t>(take);
      if (skip == 0 && take == f.count) {
        chunk.congested_paths = std::move(f.obs);
        chunk.true_links = std::move(f.truth);
      } else {
        chunk.congested_paths = f.obs.row_slice(
            static_cast<std::size_t>(skip),
            static_cast<std::size_t>(skip + take));
        chunk.true_links = f.truth.row_slice(
            static_cast<std::size_t>(skip),
            static_cast<std::size_t>(skip + take));
      }
      chunk.observed_paths = std::move(f.mask);
      chunk.invalidate_derived();
      sink.consume(chunk);
      emitted += take;
    }
  } else {
    // Unmasked replay: re-chunk to the requested granularity, splicing
    // decoded frame rows into the open chunk with stride-aligned block
    // copies.
    const std::size_t paths = topo_->num_paths();
    const std::size_t links = topo_->num_links();
    const std::size_t stride_p = word_stride(paths);
    const std::size_t stride_l = word_stride(links);
    measurement_chunk chunk;
    std::uint64_t emitted = 0;
    std::size_t fill = 0;
    const auto open_chunk = [&] {
      const std::size_t count = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk_intervals, range_count - emitted));
      chunk.first_interval = static_cast<std::size_t>(emitted);
      chunk.count = count;
      chunk.congested_paths = bit_matrix(count, paths);
      chunk.true_links = bit_matrix(count, links);
      chunk.invalidate_derived();
      fill = 0;
    };
    if (range_count > 0) open_chunk();
    std::uint64_t consumed = 0;  // range intervals consumed from frames
    while (consumed < range_count) {
      decoded_frame f;
      parse_frame(cur, seen, intervals_ - seen, &f, nullptr);
      seen = f.first + f.count;
      std::uint64_t src =
          range_first + consumed > f.first
              ? range_first + consumed - f.first
              : 0;
      std::uint64_t use =
          std::min<std::uint64_t>(f.count - src, range_count - consumed);
      while (use > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.count - fill, use));
        std::memcpy(chunk.congested_paths.row_words(fill),
                    f.obs.row_words(static_cast<std::size_t>(src)),
                    8 * stride_p * n);
        if (has_truth_) {
          std::memcpy(chunk.true_links.row_words(fill),
                      f.truth.row_words(static_cast<std::size_t>(src)),
                      8 * stride_l * n);
        }
        fill += n;
        src += n;
        use -= n;
        consumed += n;
        if (fill == chunk.count) {
          sink.consume(chunk);
          emitted += chunk.count;
          if (emitted < range_count) open_chunk();
        }
      }
    }
  }

  if (full_pass) {
    if (seen != intervals_) {
      throw trace_error("trace: fewer intervals than the header declares");
    }
    check_frames_end(cur);
  }

  sink.end();
}

void trace_reader::stream_frames(
    const std::function<void(measurement_chunk& chunk)>& fn) const {
  cursor cur(*mapping_);
  cur.seek(data_offset_);
  std::uint64_t seen = 0;
  measurement_chunk chunk;
  for (std::size_t f = 0; f < index_.size(); ++f) {
    decoded_frame df;
    parse_frame(cur, seen, intervals_ - seen, &df, nullptr);
    seen += df.count;
    chunk.first_interval = static_cast<std::size_t>(df.first);
    chunk.count = static_cast<std::size_t>(df.count);
    chunk.congested_paths = std::move(df.obs);
    chunk.true_links = std::move(df.truth);
    chunk.observed_paths = std::move(df.mask);
    chunk.invalidate_derived();
    fn(chunk);
  }
  if (seen != intervals_) {
    throw trace_error("trace: fewer intervals than the header declares");
  }
  check_frames_end(cur);
}

void trace_reader::scan_frames(
    const std::function<void(const trace_frame_stat& stat)>& fn) const {
  cursor cur(*mapping_);
  cur.seek(data_offset_);
  std::uint64_t seen = 0;
  for (const trace_frame_entry& e : index_) {
    trace_frame_stat stat;
    parse_frame(cur, seen, intervals_ - seen, nullptr, &stat);
    if (e.offset != stat.offset || e.first_interval != stat.first_interval ||
        e.count != stat.count) {
      throw trace_error(
          "trace: index entry disagrees with the frame it points to");
    }
    seen += stat.count;
    fn(stat);
  }
  if (seen != intervals_) {
    throw trace_error("trace: fewer intervals than the header declares");
  }
  check_frames_end(cur);
}

}  // namespace ntom
