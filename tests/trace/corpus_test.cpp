// Corpus tooling and v2 format features end to end: stat/merge/split/
// manifest (trace/corpus.hpp), range and sharded replay, masked
// (probe-budget) capture -> replay bit-identity
// at every capture granularity, a hand-built version-1 file and an
// index-less file failing at open, and a corrupted CIDX entry failing
// loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ntom/exp/evals.hpp"
#include "ntom/exp/runner.hpp"
#include "ntom/io/topology_io.hpp"
#include "ntom/trace/corpus.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/crc32.hpp"

namespace ntom {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

run_config small_config(std::size_t intervals = 60, std::uint64_t seed = 17) {
  run_config config;
  config.topo = "toy";
  config.topo_seed = 3;
  config.scenario = "random_congestion";
  config.scenario_opts.seed = 11;
  config.sim.intervals = intervals;
  config.sim.packets_per_path = 50;
  config.sim.seed = seed;
  return config;
}

void capture(const run_config& config, const std::string& path,
             std::size_t chunk, bool store_truth = true) {
  run_config streaming = config;
  streaming.stream.chunk_intervals = chunk;
  const run_artifacts run = prepare_topology(streaming);
  trace_writer_options options;
  options.store_truth = store_truth;
  options.provenance = "corpus-test";
  trace_writer writer(path, options);
  stream_experiment(run, streaming, writer);
}

/// Gathers every interval's observation and truth rows.
struct collect_sink final : measurement_sink {
  void consume(const measurement_chunk& chunk) override {
    for (std::size_t i = 0; i < chunk.count; ++i) {
      obs.push_back(chunk.congested_paths_at(i));
      truth.push_back(chunk.true_links_at(i));
    }
  }
  std::vector<bitvec> obs;
  std::vector<bitvec> truth;
};

collect_sink collect_all(const trace_reader& reader, std::size_t chunk = 32) {
  collect_sink sink;
  reader.stream(sink, chunk);
  return sink;
}

bool rows_identical(const std::vector<measurement>& a,
                    const std::vector<measurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].series != b[i].series || a[i].metric != b[i].metric ||
        a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_u64_at(const std::vector<unsigned char>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{b[at + static_cast<std::size_t>(i)]} << (8 * i);
  }
  return v;
}

void put_u64_at(std::vector<unsigned char>& b, std::size_t at,
                std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<unsigned char>(v >> (8 * i));
  }
}

void put_u32_at(std::vector<unsigned char>& b, std::size_t at,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<unsigned char>(v >> (8 * i));
  }
}

TEST(CorpusTest, StatReportsSizesAndCodecs) {
  const std::string path = temp_path("stat.trc");
  capture(small_config(60), path, 16);

  const corpus_file_stat stat = stat_trace_file(path);
  EXPECT_TRUE(stat.has_truth);
  EXPECT_FALSE(stat.has_mask);
  EXPECT_EQ(stat.intervals, 60u);
  EXPECT_EQ(stat.frames, 4u);
  EXPECT_EQ(stat.file_bytes, std::filesystem::file_size(path));
  EXPECT_GT(stat.encoded_bytes, 0u);
  EXPECT_LE(stat.encoded_bytes, stat.decoded_bytes);
  EXPECT_GE(stat.compression(), 1.0);
  EXPECT_GT(stat.bytes_per_interval(), 0.0);

  // Two planes per frame (obs + truth), each counted under one codec.
  std::uint64_t sections = 0;
  std::uint64_t encoded = 0;
  for (const corpus_codec_totals& c : stat.by_codec) {
    sections += c.sections;
    encoded += c.encoded_bytes;
  }
  EXPECT_EQ(sections, stat.frames * 2);
  EXPECT_EQ(encoded, stat.encoded_bytes);
  std::remove(path.c_str());
}

TEST(CorpusTest, MergeConcatenatesAndRebasesIntervals) {
  const std::string a_path = temp_path("merge_a.trc");
  const std::string b_path = temp_path("merge_b.trc");
  const std::string out = temp_path("merged.trc");
  capture(small_config(60, 17), a_path, 16);
  capture(small_config(28, 99), b_path, 7);

  EXPECT_EQ(merge_traces({a_path, b_path}, out), 88u);
  const trace_reader merged(out);
  EXPECT_EQ(merged.intervals(), 88u);
  EXPECT_TRUE(merged.has_truth());
  EXPECT_TRUE(merged.provenance().rfind("corpus merge:", 0) == 0);

  const collect_sink a = collect_all(trace_reader(a_path));
  const collect_sink b = collect_all(trace_reader(b_path));
  const collect_sink m = collect_all(merged);
  ASSERT_EQ(m.obs.size(), 88u);
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_TRUE(m.obs[i] == a.obs[i]) << i;
    EXPECT_TRUE(m.truth[i] == a.truth[i]) << i;
  }
  for (std::size_t i = 0; i < 28; ++i) {
    EXPECT_TRUE(m.obs[60 + i] == b.obs[i]) << i;
    EXPECT_TRUE(m.truth[60 + i] == b.truth[i]) << i;
  }
  for (const std::string& p : {a_path, b_path, out}) std::remove(p.c_str());
}

TEST(CorpusTest, MergeRejectsMismatchedInputs) {
  const std::string out = temp_path("bad_merge.trc");
  EXPECT_THROW((void)merge_traces({}, out), trace_error);

  const std::string toy = temp_path("merge_toy.trc");
  const std::string brite = temp_path("merge_brite.trc");
  capture(small_config(20), toy, 16);
  run_config other = small_config(20);
  other.topo = "brite,n=10,hosts=30,paths=60";
  capture(other, brite, 16);
  EXPECT_THROW((void)merge_traces({toy, brite}, out), trace_error);

  // Truth-bearing + truth-less must not silently zero the truth plane.
  const std::string truthless = temp_path("merge_truthless.trc");
  capture(small_config(20), truthless, 16, /*store_truth=*/false);
  EXPECT_THROW((void)merge_traces({toy, truthless}, out), trace_error);

  for (const std::string& p : {toy, brite, truthless}) std::remove(p.c_str());
  std::remove(out.c_str());
}

TEST(CorpusTest, SplitPartitionsAtFrameBoundaries) {
  const std::string path = temp_path("split.trc");
  capture(small_config(60), path, 16);  // frames of 16, 16, 16, 12.
  const collect_sink whole = collect_all(trace_reader(path));

  const std::vector<std::string> parts = split_trace(path, 2);
  ASSERT_EQ(parts.size(), 2u);
  std::size_t at = 0;
  for (const std::string& part : parts) {
    const trace_reader reader(part);
    EXPECT_GE(reader.frames(), 1u);
    const collect_sink rows = collect_all(reader);
    for (std::size_t i = 0; i < rows.obs.size(); ++i, ++at) {
      ASSERT_LT(at, whole.obs.size());
      EXPECT_TRUE(rows.obs[i] == whole.obs[at]);
      EXPECT_TRUE(rows.truth[i] == whole.truth[at]);
    }
  }
  EXPECT_EQ(at, 60u);

  // One part round-trips; more parts than frames (or zero) is an error.
  const std::vector<std::string> one = split_trace(path, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(trace_reader(one[0]).intervals(), 60u);
  EXPECT_THROW((void)split_trace(path, 5), trace_error);
  EXPECT_THROW((void)split_trace(path, 0), trace_error);

  std::remove(path.c_str());
  for (const std::string& p : parts) std::remove(p.c_str());
  std::remove(one[0].c_str());
}

TEST(CorpusTest, ManifestListsEveryTraceInTheDirectory) {
  const std::string dir = temp_path("manifest_corpus");
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }
  capture(small_config(30, 1), dir + "/run_a.trc", 16);
  capture(small_config(20, 2), dir + "/run_b.trc", 16);
  {
    std::ofstream noise(dir + "/notes.txt");
    noise << "not a trace";
  }

  const std::vector<std::string> files = list_corpus_files(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_TRUE(files[0].ends_with("run_a.trc"));
  EXPECT_TRUE(files[1].ends_with("run_b.trc"));

  const std::vector<corpus_file_stat> stats = write_corpus_manifest(dir);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].intervals + stats[1].intervals, 50u);

  std::ifstream in(dir + "/corpus.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("run_a.trc"), std::string::npos);
  EXPECT_NE(json.find("run_b.trc"), std::string::npos);
  EXPECT_NE(json.find("total_intervals"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CorpusTest, StreamRangeMatchesTheFullReplay) {
  const std::string path = temp_path("range.trc");
  capture(small_config(60), path, 16);
  const trace_reader reader(path);
  const collect_sink whole = collect_all(reader);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 60}, {20, 25}, {59, 1}, {16, 16}, {5, 40}, {10, 0}};
  for (const auto& [first, count] : ranges) {
    collect_sink sink;
    reader.stream_range(sink, 13, first, count);
    ASSERT_EQ(sink.obs.size(), count) << first << "+" << count;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(sink.obs[i] == whole.obs[first + i]);
      EXPECT_TRUE(sink.truth[i] == whole.truth[first + i]);
    }
  }
  collect_sink sink;
  EXPECT_THROW(reader.stream_range(sink, 13, 50, 20), trace_error);
  EXPECT_THROW(reader.stream_range(sink, 13, 61, 1), trace_error);

  // The same windows through the scenario options (a sharded grid arm).
  run_config window;
  window.scenario = spec("trace")
                        .with_option("file", path)
                        .with_option("first", "20")
                        .with_option("count", "25");
  const run_artifacts run = prepare_run(window);
  ASSERT_EQ(run.data.intervals, 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_TRUE(run.data.congested_paths_at(i) == whole.obs[20 + i]);
  }
  run_config bad;
  bad.scenario = spec("trace")
                     .with_option("file", path)
                     .with_option("first", "55")
                     .with_option("count", "20");
  EXPECT_THROW((void)prepare_run(bad), spec_error);
  std::remove(path.c_str());
}

TEST(CorpusTest, CorruptedIndexEntryFailsTheScan) {
  const std::string path = temp_path("bad_index.trc");
  capture(small_config(60), path, 16);
  std::vector<unsigned char> bytes = read_bytes(path);

  // v2 trailer: "TRLR" + frames u64 + intervals u64 + index offset u64 +
  // CRC u32 = 32 bytes; CIDX body: magic + count u64 + 24-byte entries.
  const auto index_offset =
      static_cast<std::size_t>(get_u64_at(bytes, bytes.size() - 12));
  ASSERT_EQ(std::string(bytes.begin() + static_cast<std::ptrdiff_t>(index_offset),
                        bytes.begin() + static_cast<std::ptrdiff_t>(index_offset) + 4),
            "CIDX");
  const std::uint64_t n = get_u64_at(bytes, index_offset + 4);
  ASSERT_EQ(n, 4u);

  // Nudge the first entry's offset into the frame's interior and re-seal
  // the index CRC — the attacker controls the checksums too.
  put_u64_at(bytes, index_offset + 12, get_u64_at(bytes, index_offset + 12) + 4);
  const std::size_t body = 8 + static_cast<std::size_t>(n) * 24;
  put_u32_at(bytes, index_offset + 4 + body,
             crc32(bytes.data() + index_offset + 4, body));
  write_bytes(path, bytes);

  const trace_reader reader(path);  // structural checks alone can't see it.
  EXPECT_THROW(reader.scan_frames([](const trace_frame_stat&) {}), trace_error);
  EXPECT_THROW((void)stat_trace_file(path), trace_error);
  // A range seek through the poisoned entry lands mid-frame and fails.
  collect_sink sink;
  EXPECT_THROW(reader.stream_range(sink, 13, 5, 5), trace_error);
  std::remove(path.c_str());
}

TEST(CorpusTest, MaskedCaptureReplaysBitIdenticallyAtEveryGranularity) {
  // Probe-budget capture (tentpole acceptance): a policy-masked run
  // captured at chunk sizes 1/7/64/256 must replay with bit-identical
  // estimator rows — the v2 mask plane preserves which paths each
  // chunk observed.
  const estimator_cells cells(
      {"sparsity", "bayes-indep"},
      {.boolean_metrics = true, .link_error_metrics = false});
  for (const std::size_t chunk : {1ul, 7ul, 64ul, 256ul}) {
    run_config config;
    config.topo = "brite,n=10,hosts=30,paths=60";
    config.topo_seed = 3;
    config.scenario = "random_congestion";
    config.scenario_opts.seed = 11;
    config.sim.intervals = 60;
    config.sim.seed = 17;
    config.plan.policy = "uniform,frac=0.5";
    config.stream.chunk_intervals = chunk;
    const std::string path =
        temp_path("masked_" + std::to_string(chunk) + ".trc");
    config.capture.path = path;
    config.reconcile();
    ASSERT_TRUE(config.stream.enabled);

    const run_artifacts live = prepare_topology(config);
    // The capture rides the fit pass.
    const auto live_rows = cells.eval_all(config, live);

    const trace_reader reader(path);
    EXPECT_TRUE(reader.has_mask());
    EXPECT_TRUE(reader.has_truth());
    EXPECT_EQ(reader.intervals(), 60u);

    // Replay granularity is pinned to the stored frames for masked
    // files, so any requested chunk size yields the same rows.
    for (const std::size_t replay_chunk : {13ul, 256ul}) {
      run_config replay;
      replay.scenario = spec("trace").with_option("file", path);
      replay.stream.chunk_intervals = replay_chunk;
      const run_artifacts replayed = prepare_run(replay);
      EXPECT_TRUE(rows_identical(live_rows, cells.eval_all(replay, replayed)))
          << "capture chunk " << chunk << ", replay chunk " << replay_chunk;
    }

    // Masked corpora go through merge, too (mask propagates).
    const std::string doubled = temp_path("masked_merge.trc");
    EXPECT_EQ(merge_traces({path, path}, doubled), 120u);
    EXPECT_TRUE(trace_reader(doubled).has_mask());
    std::remove(doubled.c_str());
    std::remove(path.c_str());
  }
}

TEST(CorpusTest, VersionOneFilesFailAtOpen) {
  // Hand-built v1 file: header, two raw interleaved-row frames, 24-byte
  // trailer — the layout of the first format version, which no writer
  // emits any more. Its CRCs are all valid; the reader reads version 2
  // only, so the file must fail at open.
  const run_config config = small_config(3);
  const run_artifacts arts = prepare_topology(config);
  const std::size_t paths = arts.topo().num_paths();
  const std::size_t links = arts.topo().num_links();
  const std::size_t stride_p = (paths + 63) / 64;
  const std::size_t stride_l = (links + 63) / 64;
  std::ostringstream topo_text;
  save_topology(arts.topo(), topo_text);
  const std::string topo = topo_text.str();

  std::vector<unsigned char> bytes;
  const auto push_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
    }
  };
  const auto push_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
    }
  };
  const auto push_bytes = [&](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    bytes.insert(bytes.end(), c, c + n);
  };

  push_bytes(trace_magic, sizeof(trace_magic));
  push_u32(1);                     // version
  push_u32(trace_flag_has_truth);  // flags
  push_u64(3);                     // intervals
  push_u64(paths);
  push_u64(links);
  const std::string prov = "v1-test";
  push_u32(static_cast<std::uint32_t>(prov.size()));
  push_bytes(prov.data(), prov.size());
  push_u32(static_cast<std::uint32_t>(topo.size()));
  push_bytes(topo.data(), topo.size());
  push_u32(crc32(bytes.data(), bytes.size()));  // header CRC

  // obs row i sets path bit i; truth row i sets link bit 2i mod links.
  const auto push_frame = [&](std::uint64_t first, std::uint64_t count) {
    push_bytes(trace_frame_magic, sizeof(trace_frame_magic));
    const std::size_t head_at = bytes.size();
    push_u64(first);
    push_u64(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t interval = first + i;
      for (std::size_t w = 0; w < stride_p; ++w) {
        push_u64(w == (interval % paths) / 64
                     ? std::uint64_t{1} << ((interval % paths) % 64)
                     : 0);
      }
      for (std::size_t w = 0; w < stride_l; ++w) {
        const std::uint64_t bit = (2 * interval) % links;
        push_u64(w == bit / 64 ? std::uint64_t{1} << (bit % 64) : 0);
      }
    }
    push_u32(crc32(bytes.data() + head_at, bytes.size() - head_at));
  };
  push_frame(0, 2);
  push_frame(2, 1);

  push_bytes(trace_trailer_magic, sizeof(trace_trailer_magic));
  const std::size_t totals_at = bytes.size();
  push_u64(2);  // frames
  push_u64(3);  // intervals
  push_u32(crc32(bytes.data() + totals_at, 16));

  const std::string path = temp_path("handmade_v1.trc");
  write_bytes(path, bytes);

  EXPECT_THROW(trace_reader reader(path), trace_error);
  EXPECT_THROW((void)stat_trace_file(path), trace_error);
  std::remove(path.c_str());
}

TEST(CorpusTest, IndexlessFilesFailAtOpen) {
  // A writer-made file whose trailer index offset reads 0 (with the
  // trailer CRC re-sealed, so only the missing index is wrong): every
  // file carries its CIDX index, so this one must fail at open.
  const std::string path = temp_path("indexless.trc");
  capture(small_config(60), path, 16);
  std::vector<unsigned char> bytes = read_bytes(path);
  // Trailer: "TRLR", u64 frames, u64 intervals, u64 index offset, CRC.
  const std::size_t totals_at = bytes.size() - trace_trailer_bytes + 4;
  ASSERT_NE(get_u64_at(bytes, totals_at + 16), 0u);
  put_u64_at(bytes, totals_at + 16, 0);
  put_u32_at(bytes, bytes.size() - 4, crc32(bytes.data() + totals_at, 24));
  write_bytes(path, bytes);
  EXPECT_THROW(trace_reader reader(path), trace_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntom
