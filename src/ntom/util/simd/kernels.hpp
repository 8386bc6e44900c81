// Internal kernel tables behind the ntom::simd dispatch layer.
//
// One table per dispatch level; the per-ISA translation units
// (kernels_avx2.cpp, kernels_avx512.cpp) are compiled with the matching
// -m flags and expose their table through a factory that returns
// nullptr when the build targets a toolchain or architecture without
// that ISA — runtime cpuid gating happens in simd.cpp on top. Every
// rung has its own bit kernels, QR row walk (8 lanes at avx512, 4 at
// avx2) and xoshiro count kernel; popcnt reuses the scalar row walk
// and xoshiro loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ntom::simd::detail {

struct kernel_table {
  std::size_t (*popcount_words)(const std::uint64_t*, std::size_t);
  std::size_t (*popcount_and2)(const std::uint64_t*, const std::uint64_t*,
                               std::size_t);
  std::size_t (*popcount_and3)(const std::uint64_t*, const std::uint64_t*,
                               const std::uint64_t*, std::size_t);
  std::size_t (*popcount_andnot)(const std::uint64_t*, const std::uint64_t*,
                                 std::size_t);
  void (*reflect_rows)(double* const*, std::size_t, const double*,
                       const double*, const double*, double*, std::size_t);
  void (*xoshiro_count_below)(std::uint64_t*, const std::uint64_t*,
                              std::size_t, std::size_t, std::uint64_t*);
};

/// Always available: the portable SWAR reference.
[[nodiscard]] const kernel_table& scalar_table() noexcept;

/// Always available: hardware-POPCNT multi-accumulator loops (the
/// instruction itself is guaranteed by the build's -mpopcnt baseline;
/// dispatch only selects this level when cpuid reports POPCNT).
[[nodiscard]] const kernel_table& popcnt_table() noexcept;

/// Null when the build could not compile the ISA (non-x86 target or a
/// compiler without the -m flag).
[[nodiscard]] const kernel_table* avx2_table() noexcept;
[[nodiscard]] const kernel_table* avx512_table() noexcept;

/// CLMUL-folded CRC-32 core: advances the raw (pre-conditioned) CRC
/// register over `len` bytes of `data`, where `len` is a non-zero
/// multiple of 64 — callers handle shorter inputs and ragged tails
/// with the table loop. Null when the build could not compile
/// PCLMULQDQ; runtime cpuid gating happens in simd.cpp on top.
using crc32_fold_fn = std::uint32_t (*)(const unsigned char* data,
                                        std::size_t len, std::uint32_t crc);
[[nodiscard]] crc32_fold_fn crc32_clmul_fold() noexcept;

}  // namespace ntom::simd::detail
