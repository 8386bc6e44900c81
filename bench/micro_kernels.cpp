// Microbenchmark + self-check for the dispatched SIMD bit kernels
// (util/simd): per-kernel throughput at every dispatch level available
// on the host, plus the cache-blocked bit transpose, plus a
// scalar-vs-SIMD bit-identity sweep.
//
//   ./micro_kernels                      # defaults: 65536-word arrays
//   ./micro_kernels --words=1048576 --json
//
// --json[=<path>] writes BENCH_micro_kernels.json. The per-level
// throughput cells (<level>_gbps, speedup_vs_scalar_x, Melem/s) are
// recorded for trend reading, never gated — they differ per machine and
// per ISA. The one gated headline cell is identity/identical: every
// available level must agree bit-for-bit with the scalar reference on
// ragged sizes, asserted here and exact-checked by tools/bench_check.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ntom/exp/report.hpp"
#include "ntom/util/bit_matrix.hpp"
#include "ntom/util/crc32.hpp"
#include "ntom/util/flags.hpp"
#include "ntom/util/rng.hpp"
#include "ntom/util/simd/simd.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
namespace simd = ntom::simd;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  ntom::rng r(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = r.next_u64();
  return out;
}

/// Repeats `op` until ~50 ms have elapsed; returns seconds per call.
template <typename Op>
double time_op(Op&& op) {
  op();  // warm-up (page-in, dispatch init)
  std::size_t iters = 0;
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    op();
    ++iters;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.05);
  return elapsed / static_cast<double>(iters);
}

/// Defeats dead-code elimination of the popcount results.
volatile std::size_t g_sink = 0;

struct kernel_case {
  const char* name;
  std::size_t bytes_per_word;  // bytes touched per array word
  std::size_t (*run)(const std::uint64_t*, const std::uint64_t*,
                     const std::uint64_t*, std::uint64_t*, std::size_t);
};

std::size_t run_popcount_words(const std::uint64_t* a, const std::uint64_t*,
                               const std::uint64_t*, std::uint64_t*,
                               std::size_t n) {
  return simd::popcount_words(a, n);
}
std::size_t run_popcount_and2(const std::uint64_t* a, const std::uint64_t* b,
                              const std::uint64_t*, std::uint64_t*,
                              std::size_t n) {
  return simd::popcount_and2(a, b, n);
}
std::size_t run_popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                              const std::uint64_t* c, std::uint64_t*,
                              std::size_t n) {
  return simd::popcount_and3(a, b, c, n);
}
std::size_t run_andnot_count(const std::uint64_t* a, const std::uint64_t* b,
                             const std::uint64_t*, std::uint64_t*,
                             std::size_t n) {
  return simd::andnot_count(a, b, n);
}
std::size_t run_or_accumulate(const std::uint64_t* a, const std::uint64_t*,
                              const std::uint64_t*, std::uint64_t* dst,
                              std::size_t n) {
  simd::or_accumulate(dst, a, n);
  return dst[n / 2];
}

constexpr kernel_case kernel_cases[] = {
    {"popcount_words", 8, run_popcount_words},
    {"popcount_and2", 16, run_popcount_and2},
    {"popcount_and3", 24, run_popcount_and3},
    {"andnot_count", 16, run_andnot_count},
    {"or_accumulate", 24, run_or_accumulate},  // read dst+src, write dst
};

/// Every kernel x every level vs the scalar reference on ragged sizes.
bool identity_sweep() {
  const std::size_t sizes[] = {0, 1, 5, 63, 64, 65, 129, 1000, 4097};
  bool ok = true;
  for (const std::size_t n : sizes) {
    const auto a = random_words(n, 11 + n);
    const auto b = random_words(n, 22 + n);
    const auto c = random_words(n, 33 + n);
    const auto base = random_words(n, 44 + n);

    simd::set_level(simd::level::scalar);
    const std::size_t ref_w = simd::popcount_words(a.data(), n);
    const std::size_t ref_2 = simd::popcount_and2(a.data(), b.data(), n);
    const std::size_t ref_3 =
        simd::popcount_and3(a.data(), b.data(), c.data(), n);
    const std::size_t ref_an = simd::andnot_count(a.data(), b.data(), n);
    auto ref_or = base;
    simd::or_accumulate(ref_or.data(), a.data(), n);

    for (const simd::level l : simd::available_levels()) {
      simd::set_level(l);
      ok &= simd::popcount_words(a.data(), n) == ref_w;
      ok &= simd::popcount_and2(a.data(), b.data(), n) == ref_2;
      ok &= simd::popcount_and3(a.data(), b.data(), c.data(), n) == ref_3;
      ok &= simd::andnot_count(a.data(), b.data(), n) == ref_an;
      auto dst = base;
      simd::or_accumulate(dst.data(), a.data(), n);
      ok &= dst == ref_or;
    }
  }
  // xoshiro256++ lane counts: final states and per-run counts against
  // the scalar rung, at probe counts around the sampler's 256 limit and
  // one to three runs per lane.
  {
    constexpr std::size_t L = simd::xoshiro_lanes;
    constexpr std::size_t kSegments = 3;
    ntom::rng r(66);
    for (const std::size_t steps : {0u, 1u, 7u, 200u, 256u, 1000u}) {
      const std::size_t segments = 1 + steps % kSegments;
      std::uint64_t state0[4 * L];
      for (auto& w : state0) w = r.next_u64();
      std::uint64_t limit[kSegments * L];
      for (std::size_t j = 0; j < kSegments * L; ++j) {
        limit[j] = j == 0 ? 0 : j == 1 ? std::uint64_t{1} << 53
                                       : r.next_u64() >> (11 + j % 3);
      }
      simd::set_level(simd::level::scalar);
      std::uint64_t ref_state[4 * L];
      std::uint64_t ref_counts[kSegments * L];
      std::copy(state0, state0 + 4 * L, ref_state);
      simd::xoshiro_count_below(ref_state, limit, steps, segments,
                                ref_counts);
      for (const simd::level l : simd::available_levels()) {
        simd::set_level(l);
        std::uint64_t state[4 * L];
        std::uint64_t counts[kSegments * L];
        std::copy(state0, state0 + 4 * L, state);
        simd::xoshiro_count_below(state, limit, steps, segments, counts);
        ok &= std::equal(state, state + 4 * L, ref_state);
        ok &= std::equal(counts, counts + segments * L, ref_counts);
      }
    }
  }
  // CRC-32: the CLMUL folding core (active at any non-scalar level)
  // against the slicing-by-8 reference, on ragged byte lengths.
  {
    const auto pool = random_words(520, 77);
    const auto* bytes = reinterpret_cast<const unsigned char*>(pool.data());
    const std::size_t lens[] = {0, 1, 63, 64, 65, 127, 128, 200, 4096, 4133};
    for (const std::size_t len : lens) {
      simd::set_level(simd::level::scalar);
      const std::uint32_t ref = ntom::crc32(bytes, len, 0x5EED);
      for (const simd::level l : simd::available_levels()) {
        simd::set_level(l);
        ok &= ntom::crc32(bytes, len, 0x5EED) == ref;
      }
    }
  }
  // Blocked transpose: round-trip plus spot bits on a ragged shape.
  ntom::bit_matrix m(1030, 517);
  ntom::rng r(55);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t col = 0; col < m.cols(); ++col) {
      if (r.next_u64() & 1u) m.set(i, col);
    }
  }
  const ntom::bit_matrix t = m.transposed();
  ok &= t.transposed() == m;
  for (std::size_t i = 0; i < m.rows(); i += 97) {
    for (std::size_t col = 0; col < m.cols(); col += 83) {
      ok &= m.test(i, col) == t.test(col, i);
    }
  }
  simd::set_level(simd::detected_level());
  return ok;
}

}  // namespace

int run(const ntom::flags& opts) {
  using namespace ntom;
  const auto words = opts.get_size("words", 65536);
  const auto tdim = opts.get_size("tdim", 4096);

  const auto a = random_words(words, 1);
  const auto b = random_words(words, 2);
  const auto c = random_words(words, 3);
  std::vector<std::uint64_t> dst = random_words(words, 4);

  const auto levels = simd::available_levels();
  std::printf("micro_kernels: %zu-word arrays (%.1f KiB), detected ISA %s\n\n",
              words, static_cast<double>(words) * 8.0 / 1024.0,
              simd::level_name(simd::detected_level()));

  batch_report report;
  run_result result;
  result.index = 0;
  result.label = "kernels";
  double total_seconds = 0.0;

  for (const kernel_case& kc : kernel_cases) {
    double scalar_gbps = 0.0;
    for (const simd::level l : levels) {
      simd::set_level(l);
      const double secs = time_op([&] {
        g_sink = g_sink + kc.run(a.data(), b.data(), c.data(), dst.data(),
                                 words);
      });
      total_seconds += secs;
      const double gbps =
          static_cast<double>(words) * static_cast<double>(kc.bytes_per_word) /
          secs / 1e9;
      if (l == simd::level::scalar) scalar_gbps = gbps;
      const double speedup = scalar_gbps > 0.0 ? gbps / scalar_gbps : 0.0;
      std::printf("  %-16s %-7s %8.2f GB/s  (%5.2fx vs scalar)\n", kc.name,
                  simd::level_name(l), gbps, speedup);
      result.measurements.push_back(
          {kc.name, std::string(simd::level_name(l)) + "_gbps", gbps});
      if (l != simd::level::scalar) {
        result.measurements.push_back(
            {kc.name,
             std::string(simd::level_name(l)) + "_speedup_vs_scalar_x",
             speedup});
      }
    }
    std::printf("\n");
  }
  simd::set_level(simd::detected_level());

  // CRC-32: slicing-by-8 reference vs the CLMUL folding core the trace
  // frames go through (any non-scalar level dispatches to it).
  {
    const std::size_t bytes_len = words * 8;
    const auto* bytes = reinterpret_cast<const unsigned char*>(a.data());
    simd::set_level(simd::level::scalar);
    const double scalar_secs = time_op(
        [&] { g_sink = g_sink + crc32(bytes, bytes_len); });
    const double scalar_gbps =
        static_cast<double>(bytes_len) / scalar_secs / 1e9;
    total_seconds += scalar_secs;
    std::printf("  %-16s %-7s %8.2f GB/s\n", "crc32", "scalar", scalar_gbps);
    result.measurements.push_back({"crc32", "scalar_gbps", scalar_gbps});
    simd::set_level(simd::detected_level());
    if (simd::crc32_fold() != nullptr) {
      const double clmul_secs = time_op(
          [&] { g_sink = g_sink + crc32(bytes, bytes_len); });
      const double clmul_gbps =
          static_cast<double>(bytes_len) / clmul_secs / 1e9;
      total_seconds += clmul_secs;
      std::printf("  %-16s %-7s %8.2f GB/s  (%5.2fx vs scalar)\n", "crc32",
                  "clmul", clmul_gbps, clmul_gbps / scalar_gbps);
      result.measurements.push_back({"crc32", "clmul_gbps", clmul_gbps});
      result.measurements.push_back(
          {"crc32", "clmul_speedup_vs_scalar_x", clmul_gbps / scalar_gbps});
    }
    std::printf("\n");
  }

  // Cache-blocked transpose (level-independent: pure shuffle work).
  {
    bit_matrix m(tdim, tdim);
    rng r(6);
    for (std::size_t i = 0; i < tdim; ++i) {
      for (std::size_t w = 0; w < tdim; w += 61) m.set(i, w);
    }
    (void)r;
    bit_matrix out;
    const double secs = time_op([&] { out = m.transposed(); });
    total_seconds += secs;
    const double melems =
        static_cast<double>(tdim) * static_cast<double>(tdim) / secs / 1e6;
    const double gbps = 2.0 * static_cast<double>(tdim) *
                        static_cast<double>(tdim) / 8.0 / secs / 1e9;
    std::printf("  %-16s %-7s %8.2f GB/s  (%.0f Mbit/s elements)\n",
                "transpose", "blocked", gbps, melems);
    result.measurements.push_back({"transpose", "blocked_gbps", gbps});
    result.measurements.push_back({"transpose", "melems_per_s", melems});
  }

  // Identity self-check: the gated headline cell. Any level disagreeing
  // with scalar on any ragged size fails the binary and the gate.
  const bool identical = identity_sweep();
  std::printf("\n  scalar-vs-SIMD identity sweep %s\n",
              identical ? "BIT-IDENTICAL" : "DIFFER (BUG)");
  result.measurements.push_back(
      {"identity", "identical", identical ? 1.0 : 0.0});

  result.seconds = total_seconds;
  report.total_seconds = total_seconds;
  report.add(std::move(result));
  maybe_write_bench_json(report, opts, "micro_kernels",
                         {{"words", std::to_string(words)},
                          {"tdim", std::to_string(tdim)},
                          {"detected", simd::level_name(
                                           simd::detected_level())}});
  return identical ? 0 : 1;
}

int main(int argc, char** argv) {
  return ntom::run_cli(argc, argv, {"words", "tdim", "json"}, run);
}
