#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ntom/exp/runner.hpp"
#include "ntom/trace/trace_reader.hpp"
#include "ntom/trace/trace_writer.hpp"
#include "ntom/util/crc32.hpp"

namespace ntom {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

run_config small_config(std::size_t intervals = 60) {
  run_config config;
  config.topo = "toy";
  config.topo_seed = 3;
  config.scenario = "random_congestion";
  config.scenario_opts.seed = 11;
  config.sim.intervals = intervals;
  config.sim.packets_per_path = 50;
  config.sim.seed = 17;
  return config;
}

/// Captures the config's stream at the given chunk size and returns the
/// writer's bytes_written() after end().
std::uint64_t capture(const run_config& config, const std::string& path,
                      std::size_t chunk, bool store_truth = true) {
  run_config streaming = config;
  streaming.stream.chunk_intervals = chunk;
  const run_artifacts run = prepare_topology(streaming);
  trace_writer_options options;
  options.store_truth = store_truth;
  options.provenance = "test-capture";
  trace_writer writer(path, options);
  stream_experiment(run, streaming, writer);
  return writer.bytes_written();
}

/// Streams the whole file into a discarding sink (verifies every frame).
void null_replay(const trace_reader& reader) {
  struct discard final : measurement_sink {
    void consume(const measurement_chunk&) override {}
  } sink;
  reader.stream(sink, 32);
}

experiment_data replay_materialized(const std::string& path,
                                    std::size_t chunk) {
  const trace_reader reader(path);
  experiment_data data;
  materialize_sink sink(data);
  reader.stream(sink, chunk);
  return data;
}

void expect_data_equal(const experiment_data& a, const experiment_data& b,
                       bool compare_truth = true) {
  ASSERT_EQ(a.intervals, b.intervals);
  EXPECT_TRUE(a.path_good == b.path_good);
  EXPECT_EQ(a.always_good_paths.to_string(), b.always_good_paths.to_string());
  if (compare_truth) {
    EXPECT_TRUE(a.true_links == b.true_links);
  }
}

TEST(TraceFormatTest, RoundTripsDataAndMetadata) {
  const run_config config = small_config();
  const std::string path = temp_path("roundtrip.trc");
  capture(config, path, 16);

  const trace_reader reader(path);
  EXPECT_EQ(reader.intervals(), config.sim.intervals);
  EXPECT_TRUE(reader.has_truth());
  EXPECT_EQ(reader.provenance(), "test-capture");
  EXPECT_GT(reader.frames(), 1u);

  const run_artifacts live = prepare_run(config);
  EXPECT_EQ(reader.topology_ptr()->num_paths(), live.topo().num_paths());
  EXPECT_EQ(reader.topology_ptr()->num_links(), live.topo().num_links());

  expect_data_equal(replay_materialized(path, 64), live.data);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RechunkingIsBitIdentical) {
  const run_config config = small_config(70);
  const run_artifacts live = prepare_run(config);
  // Capture at several granularities, replay each at several different
  // granularities: every combination must materialize the same bits.
  for (const std::size_t capture_chunk : {1ul, 7ul, 64ul, 256ul}) {
    const std::string path = temp_path("rechunk.trc");
    capture(config, path, capture_chunk);
    for (const std::size_t replay_chunk : {1ul, 13ul, 1000ul}) {
      expect_data_equal(replay_materialized(path, replay_chunk), live.data);
    }
    std::remove(path.c_str());
  }
}

TEST(TraceFormatTest, TruthStrippedTraceOmitsThePlane) {
  const run_config config = small_config();
  const std::string with_truth = temp_path("with_truth.trc");
  const std::string without = temp_path("without_truth.trc");
  capture(config, with_truth, 32, true);
  capture(config, without, 32, false);

  const trace_reader reader(without);
  EXPECT_FALSE(reader.has_truth());

  const experiment_data stripped = replay_materialized(without, 64);
  const experiment_data full = replay_materialized(with_truth, 64);
  expect_data_equal(stripped, full, /*compare_truth=*/false);
  EXPECT_EQ(stripped.true_links.count(), 0u);
  EXPECT_GT(full.true_links.count(), 0u);

  // And the file actually shrinks.
  std::ifstream a(without, std::ios::binary | std::ios::ate);
  std::ifstream b(with_truth, std::ios::binary | std::ios::ate);
  EXPECT_LT(a.tellg(), b.tellg());
  std::remove(with_truth.c_str());
  std::remove(without.c_str());
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The corruption sweeps' inputs, each under 1 KB: a truth+mask capture
/// under a probe policy, and a truthless capture. Each sweep passes its
/// own scratch `path` (ctest runs the sweeps concurrently).
std::vector<std::vector<char>> sweep_inputs(const std::string& path) {
  run_config masked = small_config(40);
  masked.plan.policy = "uniform,frac=0.5";
  masked.stream.chunk_intervals = 16;
  masked.capture.path = path;
  const run_artifacts run = prepare_topology(masked);
  stream_experiment(run, masked, *make_capture_writer(masked, run));
  EXPECT_TRUE(trace_reader(path).has_mask());
  std::vector<std::vector<char>> inputs = {file_bytes(path)};
  capture(small_config(40), path, 16, /*store_truth=*/false);
  inputs.push_back(file_bytes(path));
  std::remove(path.c_str());
  return inputs;
}

/// Opens `path`, then runs full stream() and scan_frames() passes.
void open_and_walk(const std::string& path) {
  const trace_reader reader(path);
  null_replay(reader);
  reader.scan_frames([](const trace_frame_stat&) {});
}

/// Writes a fresh file: removing the old one first keeps the write from
/// truncating it, which some file systems (ext4's auto_da_alloc) turn
/// into a flush to disk at close — tens of milliseconds per sweep case.
void write_file(const std::string& path, const char* data, std::size_t n) {
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary);
  out.write(data, static_cast<std::streamsize>(n));
}

TEST(TraceFormatTest, TruncatedFilesFailCleanly) {
  // Every proper prefix of a file, the empty one included, must throw
  // trace_error and nothing else — at open, or at the latest during a
  // full pass.
  const std::string path = temp_path("truncate.trc");
  const std::vector<std::vector<char>> inputs = sweep_inputs(path);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<char>& bytes = inputs[i];
    ASSERT_LT(bytes.size(), 1024u);
    write_file(path, bytes.data(), bytes.size());
    ASSERT_NO_THROW(open_and_walk(path)) << "input " << i;
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      write_file(path, bytes.data(), keep);
      EXPECT_THROW(open_and_walk(path), trace_error)
          << "input " << i << " truncated to " << keep << " bytes";
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFormatTest, BitFlipsFailCleanly) {
  // Every byte of a file is either checked against a magic or covered
  // by a CRC, so flipping any one bit anywhere — header, frames, index,
  // trailer — must throw trace_error, at open or during a full pass.
  const std::string path = temp_path("bitflip.trc");
  const std::vector<std::vector<char>> inputs = sweep_inputs(path);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<char> bytes = inputs[i];
    ASSERT_LT(bytes.size(), 1024u);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
      write_file(path, bytes.data(), bytes.size());
      EXPECT_THROW(open_and_walk(path), trace_error)
          << "input " << i << " flip at byte " << pos;
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RejectsImplausibleIntervalCounts) {
  // A hostile header declaring a huge T with VALID CRCs (the attacker
  // controls the checksums too) must fail at open — never reach a
  // downstream consumer that sizes allocations from intervals().
  const std::string path = temp_path("huge.trc");
  capture(small_config(), path, 16);
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();

  const auto put_u64 = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<unsigned char>(v >> (8 * i));
    }
  };
  const auto put_u32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<unsigned char>(v >> (8 * i));
    }
  };
  const auto get_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[at + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  };

  const std::uint64_t huge = std::uint64_t{1} << 50;
  put_u64(16, huge);  // header intervals.
  // Re-seal the header CRC (header = everything before the CRC field;
  // its end is derived from the two length prefixes).
  const std::size_t prov_len = get_u32(40);
  const std::size_t topo_len_at = 44 + prov_len;
  const std::size_t header_end = topo_len_at + 4 + get_u32(topo_len_at);
  put_u32(header_end, crc32(bytes.data(), header_end));
  // Matching trailer totals, re-sealed too (trailer: magic + 24-byte
  // totals + CRC).
  const std::size_t totals_at = bytes.size() - 28;
  put_u64(totals_at + 8, huge);
  put_u32(bytes.size() - 4, crc32(bytes.data() + totals_at, 24));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(trace_reader reader(path), trace_error);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, RejectsOverflowingFrameCounts) {
  // A crafted frame whose count wraps `seen + count` must fail the
  // contiguity check, not bypass it into an out-of-bounds chunk write.
  const run_config config = small_config(60);
  const std::string path = temp_path("overflow.trc");
  capture(config, path, 16);  // frames of 16, 16, 16, 12 intervals.
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();

  // The second frame's count field sits 12 bytes into the frame; its
  // offset comes straight from the file's own CIDX index.
  const trace_reader valid(path);
  ASSERT_GE(valid.index().size(), 2u);
  const std::size_t frame2_count_at =
      static_cast<std::size_t>(valid.index()[1].offset) + 4 + 8;
  // count = 2^64 - 3: seen(16) + count wraps to a tiny value.
  const std::uint64_t huge = ~std::uint64_t{0} - 2;
  for (int i = 0; i < 8; ++i) {
    bytes[frame2_count_at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(huge >> (8 * i));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(
      {
        const trace_reader reader(path);
        null_replay(reader);
      },
      trace_error);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, MakeScenarioRejectsTraceSpecs) {
  // `trace` never builds a congestion model — an empty one would break
  // the simulator's at-least-one-phase invariant, so a direct
  // make_scenario call is rejected loudly.
  const run_config config = small_config();
  const run_artifacts run = prepare_topology(config);
  EXPECT_THROW((void)make_scenario(run.topo(),
                                   spec("trace").with_option("file", "x.trc")),
               spec_error);
}

TEST(TraceFormatTest, RejectsForeignAndFutureFiles) {
  const std::string path = temp_path("bogus.trc");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a trace file, but long enough to have "
           "a trailer-sized suffix";
  }
  EXPECT_THROW(trace_reader reader(path), trace_error);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "short";
  }
  EXPECT_THROW(trace_reader reader(path), trace_error);
  EXPECT_THROW(trace_reader reader(temp_path("does_not_exist.trc")),
               trace_error);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, UnmappableInputsThrowTraceError) {
  // The reader maps the file; anything that cannot be mapped fails at
  // open with trace_error instead of falling back to another reader.
  EXPECT_THROW(trace_reader reader(temp_path("unmappable_missing.trc")), trace_error);

  const std::string empty = temp_path("unmappable_empty.trc");
  { std::ofstream out(empty, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW(trace_reader reader(empty), trace_error);
  std::remove(empty.c_str());

  const std::string dir = temp_path("unmappable_dir.trc");
  ::rmdir(dir.c_str());  // a leftover of an interrupted run.
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  EXPECT_THROW(trace_reader reader(dir), trace_error);
  ::rmdir(dir.c_str());

  // Opening a FIFO must not block waiting for a writer.
  const std::string fifo = temp_path("unmappable_fifo.trc");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_THROW(trace_reader reader(fifo), trace_error);
  std::remove(fifo.c_str());
}

TEST(TraceFormatTest, TrailingGarbageFailsTheStream) {
  const std::string path = temp_path("garbage.trc");
  capture(small_config(), path, 16);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  // Appended bytes shift the end-relative trailer read (caught at
  // open); mid-file garbage that survives the trailer scan is caught by
  // the full-file stream pass's frames-end check.
  EXPECT_THROW(
      {
        const trace_reader reader(path);
        null_replay(reader);
      },
      trace_error);
  std::remove(path.c_str());
}

/// FNV-1a over the file's bytes.
std::uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct pinned_capture {
  std::size_t chunk;
  bool truth;
  std::size_t bytes;
  std::uint64_t digest;
};

/// Captures a seeded 70-interval run at each pinned chunk size and checks
/// the file's size and digest. The sizes and digests were recorded with
/// the earlier two-mode (background-thread and synchronous) writer, whose
/// modes wrote identical bytes; any drift is a format change.
void expect_pinned(const std::vector<pinned_capture>& pinned) {
  const run_config config = small_config(70);
  for (const pinned_capture& p : pinned) {
    // One file per case: ctest runs the two pinned tests concurrently.
    const std::string path = temp_path(
        "pinned_" + std::to_string(p.chunk) + (p.truth ? "_truth" : "") +
        ".trc");
    const std::uint64_t written = capture(config, path, p.chunk, p.truth);
    std::ifstream in(path, std::ios::binary);
    const std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(written, bytes.size()) << "chunk=" << p.chunk;
    EXPECT_EQ(bytes.size(), p.bytes)
        << "chunk=" << p.chunk << " truth=" << p.truth;
    EXPECT_EQ(fnv1a(bytes), p.digest)
        << "chunk=" << p.chunk << " truth=" << p.truth;
    std::remove(path.c_str());
  }
}

TEST(TraceWriterTest, CaptureBytesArePinned) {
  expect_pinned({
      {1, true, 4484, 11322543868955193110ull},
      {16, true, 584, 8546614470362105227ull},
  });
}

TEST(TraceWriterTest, TruthStrippedCaptureBytesArePinned) {
  expect_pinned({
      {1, false, 4049, 14182507126561027518ull},
      {16, false, 539, 1948225192968984405ull},
  });
}

TEST(TraceWriterTest, ChunkOneCaptureRoundTripsThroughReader) {
  // One frame per interval; the reader then verifies every frame CRC,
  // the index and the trailer.
  const run_config config = small_config(200);
  const std::string path = temp_path("chunk_one.trc");
  capture(config, path, 1);
  const trace_reader reader(path);
  EXPECT_EQ(reader.intervals(), 200u);
  EXPECT_EQ(reader.frames(), 200u);
  null_replay(reader);
  std::remove(path.c_str());
}

bool dev_full_available() {
  std::ofstream probe("/dev/full", std::ios::binary);
  if (!probe.is_open()) return false;
  probe.put('x');
  probe.flush();
  return probe.fail();  // ENOSPC on every flush — the fixture we need.
}

TEST(TraceWriterTest, WriteFailureSurfacesAsTraceError) {
  if (!dev_full_available()) {
    GTEST_SKIP() << "/dev/full not available on this platform";
  }
  // The header stays in the stream buffer (begin() does not flush), so
  // the device error hits at whichever buffer drain reaches the device
  // first — a write_frame state check mid-capture for large streams, or
  // end()'s flush for one this small. Either way the capture pass
  // observes a trace_error.
  EXPECT_THROW(capture(small_config(40), "/dev/full", 8), trace_error);
}

TEST(TraceWriterTest, CaptureOverExistingFileEqualsFreshCapture) {
  const std::string fresh = temp_path("overwrite_fresh.trc");
  const std::string reused = temp_path("overwrite_reused.trc");
  std::remove(fresh.c_str());
  capture(small_config(40), fresh, 8);

  // A longer capture sits at the reused path, and a reader maps it
  // while the shorter capture is written over it.
  capture(small_config(200), reused, 8);
  const trace_reader old_reader(reused);
  capture(small_config(40), reused, 8);

  const std::vector<char> want = file_bytes(fresh);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(file_bytes(reused), want);
  // The old capture is replaced, not truncated under its reader.
  EXPECT_EQ(old_reader.intervals(), 200u);
  null_replay(old_reader);
  EXPECT_EQ(trace_reader(reused).intervals(), 40u);
  std::remove(fresh.c_str());
  std::remove(reused.c_str());
}

TEST(TraceWriterTest, AbandonedCaptureFailsToOpen) {
  // Destroying a writer without end() must not throw; the file simply
  // has no trailer.
  const run_config config = small_config(30);
  const std::string path = temp_path("abandoned.trc");
  {
    const run_artifacts run = prepare_topology(config);
    trace_writer writer(path, {});
    writer.begin(run.topo(), config.sim.intervals);
    // No frames, no end(): destructor path only.
  }
  EXPECT_THROW(trace_reader reader(path), trace_error);  // no trailer
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntom
