#include "ntom/trace/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "ntom/io/topology_io.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/json.hpp"

namespace ntom {

namespace {

std::string topology_text(const topology& t) {
  std::ostringstream out;
  save_topology(t, out);
  return out.str();
}

std::string basename_of(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

}  // namespace

corpus_file_stat stat_trace_file(const std::string& path) {
  const trace_reader reader(path);
  corpus_file_stat stat;
  stat.path = path;
  stat.has_truth = reader.has_truth();
  stat.has_mask = reader.has_mask();
  stat.paths = reader.topology_ptr()->num_paths();
  stat.links = reader.topology_ptr()->num_links();
  stat.intervals = reader.intervals();
  stat.frames = reader.frames();
  stat.file_bytes = reader.file_bytes();
  reader.scan_frames([&](const trace_frame_stat& frame) {
    for (std::size_t p = 0; p < frame.num_planes; ++p) {
      const trace_frame_stat::plane& plane = frame.planes[p];
      corpus_codec_totals& totals = stat.by_codec[plane.codec];
      ++totals.sections;
      totals.encoded_bytes += plane.encoded_bytes;
      totals.decoded_bytes += plane.decoded_bytes;
      stat.encoded_bytes += plane.encoded_bytes;
      stat.decoded_bytes += plane.decoded_bytes;
    }
  });
  return stat;
}

std::uint64_t merge_traces(const std::vector<std::string>& inputs,
                           const std::string& output) {
  if (inputs.empty()) {
    throw trace_error("corpus merge: no input files");
  }
  std::vector<std::unique_ptr<trace_reader>> readers;
  readers.reserve(inputs.size());
  for (const std::string& path : inputs) {
    readers.push_back(std::make_unique<trace_reader>(path));
  }

  const std::string topo_text0 = topology_text(*readers[0]->topology_ptr());
  const bool truth = readers[0]->has_truth();
  bool mask = false;
  std::uint64_t total = 0;
  std::string provenance = "corpus merge:";
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const trace_reader& r = *readers[i];
    if (i > 0 && topology_text(*r.topology_ptr()) != topo_text0) {
      throw trace_error("corpus merge: " + inputs[i] +
                        " embeds a different topology than " + inputs[0]);
    }
    if (r.has_truth() != truth) {
      // Zeroed matrices from a truthless file must not masquerade as
      // ground truth in the merged dataset.
      throw trace_error(
          "corpus merge: refusing to mix truth-bearing and truthless "
          "inputs (" +
          inputs[i] + " disagrees with " + inputs[0] + ")");
    }
    mask = mask || r.has_mask();
    total += r.intervals();
    provenance += " " + basename_of(inputs[i]);
  }

  trace_writer_options wopts;
  wopts.store_truth = truth;
  wopts.store_mask = mask;
  wopts.provenance = provenance;
  trace_writer writer(output, wopts);
  writer.begin(*readers[0]->topology_ptr(), static_cast<std::size_t>(total));
  std::size_t base = 0;
  for (const std::unique_ptr<trace_reader>& r : readers) {
    r->stream_frames([&](measurement_chunk& chunk) {
      chunk.first_interval += base;
      writer.consume(chunk);
    });
    base += r->intervals();
  }
  writer.end();
  return total;
}

std::vector<std::string> split_trace(const std::string& input,
                                     std::size_t parts) {
  const trace_reader reader(input);
  if (parts == 0) throw trace_error("corpus split: parts must be >= 1");
  if (parts > reader.frames()) {
    throw trace_error("corpus split: " + std::to_string(parts) +
                      " parts but only " + std::to_string(reader.frames()) +
                      " frames in " + input +
                      " (frames are the only cut points)");
  }
  // Interval count per frame, in file order, from the CIDX index.
  const std::vector<trace_frame_entry>& index = reader.index();

  // Greedy frame-aligned partition: close a part once it reaches the
  // remaining-average interval target, but never leave fewer frames
  // than parts still to fill.
  std::vector<std::uint64_t> part_intervals(parts, 0);
  std::vector<std::size_t> part_frames(parts, 0);
  {
    std::uint64_t remaining = reader.intervals();
    std::size_t frame = 0;
    for (std::size_t part = 0; part < parts; ++part) {
      const std::size_t parts_left = parts - part;
      const std::uint64_t target = (remaining + parts_left - 1) / parts_left;
      while (part_intervals[part] < target &&
             index.size() - frame > parts_left - 1) {
        part_intervals[part] += index[frame].count;
        ++part_frames[part];
        ++frame;
        if (part_intervals[part] >= target) break;
      }
      remaining -= part_intervals[part];
    }
  }

  std::string stem = input;
  if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".trc") == 0) {
    stem.resize(stem.size() - 4);
  }
  std::vector<std::string> paths;
  paths.reserve(parts);
  for (std::size_t part = 0; part < parts; ++part) {
    paths.push_back(stem + ".part" + std::to_string(part) + ".trc");
  }

  trace_writer_options wopts;
  wopts.store_truth = reader.has_truth();
  wopts.store_mask = reader.has_mask();

  std::size_t part = 0;
  std::size_t frames_left = 0;
  std::size_t part_base = 0;  // absolute first interval of the open part
  std::unique_ptr<trace_writer> writer;
  const auto open_part = [&] {
    wopts.provenance = "corpus split " + std::to_string(part + 1) + "/" +
                       std::to_string(parts) + " of " + basename_of(input) +
                       (reader.provenance().empty()
                            ? ""
                            : "; " + reader.provenance());
    writer = std::make_unique<trace_writer>(paths[part], wopts);
    writer->begin(*reader.topology_ptr(),
                  static_cast<std::size_t>(part_intervals[part]));
    frames_left = part_frames[part];
  };
  open_part();
  reader.stream_frames([&](measurement_chunk& chunk) {
    if (frames_left == 0) {
      writer->end();
      part_base += static_cast<std::size_t>(part_intervals[part]);
      ++part;
      open_part();
    }
    chunk.first_interval -= part_base;
    writer->consume(chunk);
    --frames_left;
  });
  writer->end();
  return paths;
}

std::vector<std::string> list_corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".trc") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw trace_error("corpus: cannot list directory " + dir + ": " +
                      ec.message());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<corpus_file_stat> write_corpus_manifest(const std::string& dir) {
  const std::vector<std::string> files = list_corpus_files(dir);
  std::vector<corpus_file_stat> stats;
  stats.reserve(files.size());
  for (const std::string& path : files) stats.push_back(stat_trace_file(path));

  const std::string manifest_path =
      (std::filesystem::path(dir) / "corpus.json").string();
  std::ofstream out(manifest_path);
  if (!out) {
    throw trace_error("corpus: cannot write manifest " + manifest_path);
  }
  std::uint64_t total_intervals = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_frames = 0;
  out << "{\n  \"files\": [";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const corpus_file_stat& s = stats[i];
    total_intervals += s.intervals;
    total_bytes += s.file_bytes;
    total_frames += s.frames;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": " << json_quote(basename_of(s.path))
        << ", \"version\": " << trace_format_version
        << ", \"intervals\": " << s.intervals << ", \"frames\": " << s.frames
        << ", \"bytes\": " << s.file_bytes << ", \"paths\": " << s.paths
        << ", \"links\": " << s.links
        << ", \"truth\": " << (s.has_truth ? "true" : "false")
        << ", \"mask\": " << (s.has_mask ? "true" : "false")
        << ", \"compression\": " << s.compression() << "}";
  }
  out << (stats.empty() ? "" : "\n  ") << "],\n";
  out << "  \"total_intervals\": " << total_intervals << ",\n";
  out << "  \"total_frames\": " << total_frames << ",\n";
  out << "  \"total_bytes\": " << total_bytes << "\n}\n";
  if (!out.flush()) {
    throw trace_error("corpus: write failed for " + manifest_path);
  }
  return stats;
}

}  // namespace ntom
