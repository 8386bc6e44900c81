// Corpus tools for directories of .trc files: per-file codec/size
// stats, lossless merge and frame-aligned split, and a JSON manifest
// that records what a corpus directory contains.
//
// A "corpus" is nothing more than a directory of trace files — replay
// already accepts one (scenario `trace` plus first=/count= windows
// shard a file across grid arms) — but operating on many captures
// needs a few verbs the reader/writer alone do not give:
//
//   * stat   — walk every frame (verifying CRCs and the CIDX index on
//              the way) and aggregate encoded vs raw-equivalent bytes
//              per codec: the compression report behind
//              `ntom_cli corpus stat`.
//   * merge  — concatenate datasets over the SAME topology into one
//              file, rebasing interval numbers; frames are re-encoded
//              under each plane's smallest codec, so merging never
//              loses information and may shrink the total.
//   * split  — partition one file into N frame-aligned shards with
//              near-equal interval counts, read off the CIDX index
//              (capture chunk boundaries are the only cut points, so
//              masked files split losslessly).
//   * manifest — corpus.json at the directory root, one entry per .trc
//              with dimensions, flags, and sizes; grids and notebooks
//              read it instead of re-opening every file.
//
// Everything here throws trace_error on malformed inputs (the
// underlying reader validates) and spec_error-free: these are file
// tools, not spec-driven factories.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ntom/trace/codec.hpp"
#include "ntom/trace/trace_format.hpp"

namespace ntom {

/// Aggregate of every plane section stored under one codec.
struct corpus_codec_totals {
  std::uint64_t sections = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decoded_bytes = 0;  ///< raw-equivalent packed size.
};

/// Everything `corpus stat` reports about one file. Produced by a full
/// scan_frames() walk, so a stat that returns also certifies frame
/// CRCs, structure, and index agreement.
struct corpus_file_stat {
  std::string path;
  bool has_truth = false;
  bool has_mask = false;
  std::uint64_t paths = 0;
  std::uint64_t links = 0;
  std::uint64_t intervals = 0;
  std::uint64_t frames = 0;
  std::uint64_t file_bytes = 0;
  /// Plane payloads only (headers, CRCs, index, trailer excluded).
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decoded_bytes = 0;
  std::array<corpus_codec_totals, trace_codec::codec_count> by_codec{};

  [[nodiscard]] double bytes_per_interval() const {
    return intervals == 0 ? 0.0
                          : static_cast<double>(file_bytes) /
                                static_cast<double>(intervals);
  }
  /// Raw-equivalent over stored plane bytes (1.0 = stored raw).
  [[nodiscard]] double compression() const {
    return encoded_bytes == 0 ? 1.0
                              : static_cast<double>(decoded_bytes) /
                                    static_cast<double>(encoded_bytes);
  }
};

/// Stats one file (full structural verification included).
[[nodiscard]] corpus_file_stat stat_trace_file(const std::string& path);

/// Merges `inputs` (in order) into `output`. All inputs must embed the
/// same topology and agree on the truth plane (all-or-none — zeroed
/// matrices must not masquerade as ground truth); the output carries a
/// mask plane iff any input does. Interval numbers are rebased to one
/// contiguous stream. Returns total intervals written.
std::uint64_t merge_traces(const std::vector<std::string>& inputs,
                           const std::string& output);

/// Splits `input` into `parts` files "<stem>.partK.trc" (K = 0-based,
/// `stem` = `input` minus a trailing ".trc"), cutting only at frame
/// boundaries and balancing interval counts. `parts` must not exceed
/// the file's frame count. Returns the part paths.
std::vector<std::string> split_trace(const std::string& input,
                                     std::size_t parts);

/// All .trc files directly under `dir`, sorted by name.
[[nodiscard]] std::vector<std::string> list_corpus_files(
    const std::string& dir);

/// Stats every .trc under `dir` and writes `<dir>/corpus.json` (one
/// entry per file plus corpus totals). Returns the per-file stats in
/// manifest order.
std::vector<corpus_file_stat> write_corpus_manifest(const std::string& dir);

}  // namespace ntom
