// Runtime-dispatched SIMD kernels for the packed bit stores, the
// least-squares row updates and the probe simulation.
//
// Every estimator reduces to fused AND+popcount sweeps over bit_matrix
// rows, so these four kernels bound the whole stack; the float row walk
// (reflect_rows) carries the Householder QR behind every log-domain
// fit, and the xoshiro count kernel draws the simulated probes
// (util/rng.hpp). The dispatch ladder is probed once at startup (cpuid)
// and selects the widest implementation the hardware supports; every
// level computes bit-identical results, with the scalar level serving
// as the reference the tests and benches check the others against.
// Callers never pick a level — bit_matrix and bitvec route through the
// dispatched free functions below — but tests, benches, and the
// NTOM_SIMD env override (or the CLIs' --simd flag) can force one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ntom::simd {

/// Dispatch ladder, ascending. Higher levels require hardware support.
enum class level : int {
  scalar = 0,  ///< portable SWAR popcount, plain word loops
  popcnt = 1,  ///< hardware POPCNT, four-accumulator unrolled loops
  avx2 = 2,    ///< 256-bit Harley–Seal carry-save adder popcount
  avx512 = 3,  ///< 512-bit VPOPCNTDQ vertical popcount
};

[[nodiscard]] const char* level_name(level l) noexcept;

/// Parses "scalar" / "popcnt" / "avx2" / "avx512" (the NTOM_SIMD and
/// --simd vocabulary); false on anything else, leaving `out` untouched.
[[nodiscard]] bool parse_level(const std::string& name, level& out) noexcept;

/// Highest level this hardware (and this build) supports.
[[nodiscard]] level detected_level() noexcept;

/// Level currently driving the dispatched kernels. Defaults to
/// detected_level(); NTOM_SIMD=<name> in the environment overrides it
/// at startup (unknown names warn and are ignored, levels above the
/// hardware warn and clamp to detected).
[[nodiscard]] level active_level() noexcept;

/// Switches dispatch at runtime (tests and benches sweep the ladder
/// this way). Returns false — and changes nothing — when `l` exceeds
/// detected_level().
bool set_level(level l) noexcept;

/// The CLIs' `--simd=<name>` handler, with NTOM_SIMD's semantics: an
/// unknown name prints an error to stderr and returns false (the CLI
/// then exits 2); a level above this host prints a warning, keeps the
/// current level and returns true.
[[nodiscard]] bool apply_level_flag(const std::string& name);

/// Every level this host can run: scalar .. detected_level(), ascending.
[[nodiscard]] std::vector<level> available_levels();

// ----------------------------------------------------------- kernels
// The bit kernels operate on packed 64-bit word arrays; no kernel has
// an alignment requirement and all tolerate n == 0.

/// Total set bits in a[0..n).
[[nodiscard]] std::size_t popcount_words(const std::uint64_t* a,
                                         std::size_t n) noexcept;

/// Set bits of the elementwise AND of two word arrays — the fused
/// pair-query kernel (no intermediate is materialized).
[[nodiscard]] std::size_t popcount_and2(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t n) noexcept;

/// Set bits of the elementwise AND of three word arrays.
[[nodiscard]] std::size_t popcount_and3(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        const std::uint64_t* c,
                                        std::size_t n) noexcept;

/// Set bits of the elementwise a AND NOT b — the fused complement
/// query (set-difference cardinality without the copy+flip round trip
/// the scorers used to pay per interval).
[[nodiscard]] std::size_t andnot_count(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t n) noexcept;

/// dst[i] |= src[i] for i in [0, n) — the OR-reduction kernel.
void or_accumulate(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t n) noexcept;

/// The row walk of the Householder QR (linalg/qr.cpp). For each row
/// r = 0 .. count-1 in turn and each j in [0, n):
///   when a != nullptr:  rows[r][j] = rows[r][j] + a[r] * x[j]
///   when b != nullptr:  y[j] = y[j] + b[r] * rows[r][j]  (updated row)
/// that is, one reflector's update and the next reflector's dot in one
/// pass over each row. Every product and every sum is rounded on its
/// own (never fused) and y sums the rows in the given order, so every
/// level matches the scalar loop bit for bit. The rows, x and y must
/// not overlap.
void reflect_rows(double* const* rows, std::size_t count, const double* a,
                  const double* x, const double* b, double* y,
                  std::size_t n) noexcept;

/// Generators advanced side by side by xoshiro_count_below.
inline constexpr std::size_t xoshiro_lanes = 16;

/// Advances xoshiro_lanes xoshiro256++ generators by `segments` runs of
/// `steps` draws each and counts, per lane and run, the draws whose top
/// 53 bits (x >> 11) are below that run's limit: with
/// limit = ceil(p * 2^53) that is the count of uniform() < p. `state`
/// holds the lanes in SoA layout (state[xoshiro_lanes * w + j] is word
/// w of lane j) and is advanced in place, by steps * segments draws per
/// lane. `limit` (each at most 2^53) and `counts` hold xoshiro_lanes
/// entries per run: entry xoshiro_lanes * g + j is run g of lane j, and
/// lane j draws its runs in order g = 0, 1, ... Every level gives the
/// same counts and states as the scalar loop. The batched binomial
/// sampler's kernel (util/rng.hpp binomial_batch).
void xoshiro_count_below(std::uint64_t* state, const std::uint64_t* limit,
                         std::size_t steps, std::size_t segments,
                         std::uint64_t* counts) noexcept;

/// CLMUL-folded CRC-32 core used by ntom::crc32 for bulk input:
/// advances the raw (pre-conditioned) CRC register over `len` bytes,
/// where `len` must be a non-zero multiple of 64. Returns nullptr when
/// the hardware lacks PCLMULQDQ, the build could not compile it, or
/// dispatch is forced to the scalar level (NTOM_SIMD=scalar keeps the
/// whole stack scalar, including checksums).
using crc32_fold_fn = std::uint32_t (*)(const unsigned char* data,
                                        std::size_t len, std::uint32_t crc);
[[nodiscard]] crc32_fold_fn crc32_fold() noexcept;

}  // namespace ntom::simd
