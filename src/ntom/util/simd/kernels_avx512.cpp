// AVX-512 kernel table: the VPOPCNTDQ instruction counts eight 64-bit
// lanes per cycle, so the kernels are plain vertical accumulate loops —
// four independent 512-bit accumulators hide the add latency, the AND
// fusion folds into the loads, and the tail falls back to scalar
// POPCNT. The xoshiro count kernel holds its sixteen generators in two
// 512-bit vectors per state word, stepped in one loop so the two
// dependency chains overlap, with native rotates (VPROLQ) and an
// unsigned compare into a mask (VPCMPUQ). The QR row walk is an 8-lane
// multiply-then-add loop blocked over four rows, with a masked tail.
//
// Compiled with -mavx512f -mavx512vpopcntdq (set per-file by
// CMakeLists.txt); selected at runtime only when cpuid reports both
// features.
#include "ntom/util/simd/kernels.hpp"

#if defined(NTOM_SIMD_BUILD_AVX512)

#include <immintrin.h>

#include "ntom/util/simd/simd.hpp"

namespace ntom::simd::detail {

namespace {

/// `load(v)` yields the v-th 512-bit vector (8 words) of the fused
/// input stream, `tail(w)` the w-th word.
template <typename Load, typename Tail>
std::size_t vpopcnt(std::size_t n, Load load, Tail tail) noexcept {
  const std::size_t nvec = n / 8;
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t v = 0;
  for (; v + 4 <= nvec; v += 4) {
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(load(v + 0)));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(load(v + 1)));
    acc2 = _mm512_add_epi64(acc2, _mm512_popcnt_epi64(load(v + 2)));
    acc3 = _mm512_add_epi64(acc3, _mm512_popcnt_epi64(load(v + 3)));
  }
  for (; v < nvec; ++v) {
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(load(v)));
  }
  acc0 = _mm512_add_epi64(_mm512_add_epi64(acc0, acc1),
                          _mm512_add_epi64(acc2, acc3));
  // Horizontal sum via a stack store: _mm512_reduce_add_epi64 trips a
  // spurious -Wuninitialized inside GCC 12's intrinsics header.
  std::uint64_t lanes[8];
  _mm512_storeu_si512(lanes, acc0);
  std::size_t count = 0;
  for (const std::uint64_t lane : lanes) {
    count += static_cast<std::size_t>(lane);
  }
  for (std::size_t w = nvec * 8; w < n; ++w) {
    count += static_cast<std::size_t>(__builtin_popcountll(tail(w)));
  }
  return count;
}

inline __m512i loadu(const std::uint64_t* p) noexcept {
  return _mm512_loadu_si512(p);
}

std::size_t popcount_words_avx512(const std::uint64_t* a, std::size_t n) {
  return vpopcnt(
      n, [a](std::size_t v) { return loadu(a + 8 * v); },
      [a](std::size_t w) { return a[w]; });
}

std::size_t popcount_and2_avx512(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  return vpopcnt(
      n,
      [a, b](std::size_t v) {
        return _mm512_and_si512(loadu(a + 8 * v), loadu(b + 8 * v));
      },
      [a, b](std::size_t w) { return a[w] & b[w]; });
}

std::size_t popcount_and3_avx512(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 const std::uint64_t* c, std::size_t n) {
  return vpopcnt(
      n,
      [a, b, c](std::size_t v) {
        return _mm512_and_si512(
            _mm512_and_si512(loadu(a + 8 * v), loadu(b + 8 * v)),
            loadu(c + 8 * v));
      },
      [a, b, c](std::size_t w) { return a[w] & b[w] & c[w]; });
}

std::size_t popcount_andnot_avx512(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  // VPANDNQ computes ~first & second, so b rides in the first operand.
  return vpopcnt(
      n,
      [a, b](std::size_t v) {
        return _mm512_andnot_si512(loadu(b + 8 * v), loadu(a + 8 * v));
      },
      [a, b](std::size_t w) { return a[w] & ~b[w]; });
}

/// Eight xoshiro256++ generators, one per 64-bit lane, and the running
/// count of one run. Lane stride in memory is simd::xoshiro_lanes.
struct xoshiro8 {
  __m512i s0, s1, s2, s3, limit, count;

  static xoshiro8 load(const std::uint64_t* state) noexcept {
    constexpr std::size_t L = xoshiro_lanes;
    const __m512i zero = _mm512_setzero_si512();
    return {loadu(state), loadu(state + L), loadu(state + 2 * L),
            loadu(state + 3 * L), zero, zero};
  }

  void begin(const std::uint64_t* lim) noexcept {
    limit = loadu(lim);
    count = _mm512_setzero_si512();
  }

  void step() noexcept {
    const __m512i out =
        _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    const __mmask8 below =
        _mm512_cmplt_epu64_mask(_mm512_srli_epi64(out, 11), limit);
    count = _mm512_mask_add_epi64(count, below, count, _mm512_set1_epi64(1));
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
  }

  void store(std::uint64_t* state) const noexcept {
    constexpr std::size_t L = xoshiro_lanes;
    _mm512_storeu_si512(state, s0);
    _mm512_storeu_si512(state + L, s1);
    _mm512_storeu_si512(state + 2 * L, s2);
    _mm512_storeu_si512(state + 3 * L, s3);
  }
};

// Sixteen generators as two independent 8-lane vectors, stepped in one
// loop; both stay in registers from one run to the next.
void xoshiro_count_below_avx512(std::uint64_t* state,
                                const std::uint64_t* limit, std::size_t steps,
                                std::size_t segments, std::uint64_t* counts) {
  constexpr std::size_t L = xoshiro_lanes;
  static_assert(L == 16);
  xoshiro8 lo = xoshiro8::load(state);
  xoshiro8 hi = xoshiro8::load(state + 8);
  for (std::size_t g = 0; g < segments; ++g) {
    lo.begin(limit + L * g);
    hi.begin(limit + L * g + 8);
    for (std::size_t k = 0; k < steps; ++k) {
      lo.step();
      hi.step();
    }
    _mm512_storeu_si512(counts + L * g, lo.count);
    _mm512_storeu_si512(counts + L * g + 8, hi.count);
  }
  lo.store(state);
  hi.store(state + 8);
}

// QR row walk (simd::reflect_rows), `Block` rows at a time: per 8-lane
// column chunk, x and the running y stay in registers across the
// block's rows, so y is loaded and stored once per block rather than
// once per row; the ragged tail runs the same loop under a lane mask.
// Separate VMULPD and VADDPD (the build turns FP contraction off), and
// every element sees the rows in the given order, as in the scalar
// loop.
template <bool Update, bool Dot, std::size_t Block>
void reflect_block_avx512(double* const* rows, const double* a,
                          const double* x, const double* b, double* y,
                          std::size_t n) noexcept {
  __m512d av[Block];
  __m512d bv[Block];
  for (std::size_t q = 0; q < Block; ++q) {
    if constexpr (Update) av[q] = _mm512_set1_pd(a[q]);
    if constexpr (Dot) bv[q] = _mm512_set1_pd(b[q]);
  }
  const auto chunk = [&](std::size_t j, __mmask8 lanes) {
    __m512d xs = _mm512_setzero_pd();
    __m512d acc = _mm512_setzero_pd();
    if constexpr (Update) xs = _mm512_maskz_loadu_pd(lanes, x + j);
    if constexpr (Dot) acc = _mm512_maskz_loadu_pd(lanes, y + j);
    for (std::size_t q = 0; q < Block; ++q) {
      __m512d v = _mm512_maskz_loadu_pd(lanes, rows[q] + j);
      if constexpr (Update) {
        v = _mm512_add_pd(v, _mm512_mul_pd(av[q], xs));
        _mm512_mask_storeu_pd(rows[q] + j, lanes, v);
      }
      if constexpr (Dot) acc = _mm512_add_pd(acc, _mm512_mul_pd(bv[q], v));
    }
    if constexpr (Dot) _mm512_mask_storeu_pd(y + j, lanes, acc);
  };
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) chunk(j, 0xFF);
  if (j < n) chunk(j, static_cast<__mmask8>((1u << (n - j)) - 1));
}

template <bool Update, bool Dot>
void reflect_walk_avx512(double* const* rows, std::size_t count,
                         const double* a, const double* x, const double* b,
                         double* y, std::size_t n) noexcept {
  std::size_t r = 0;
  const auto at = [&](const double* c) { return c == nullptr ? c : c + r; };
  for (; r + 4 <= count; r += 4) {
    reflect_block_avx512<Update, Dot, 4>(rows + r, at(a), x, at(b), y, n);
  }
  for (; r < count; ++r) {
    reflect_block_avx512<Update, Dot, 1>(rows + r, at(a), x, at(b), y, n);
  }
}

void reflect_rows_avx512(double* const* rows, std::size_t count,
                         const double* a, const double* x, const double* b,
                         double* y, std::size_t n) {
  if (a != nullptr && b != nullptr) {
    reflect_walk_avx512<true, true>(rows, count, a, x, b, y, n);
  } else if (a != nullptr) {
    reflect_walk_avx512<true, false>(rows, count, a, x, b, y, n);
  } else if (b != nullptr) {
    reflect_walk_avx512<false, true>(rows, count, a, x, b, y, n);
  }
}

constexpr kernel_table table = {popcount_words_avx512, popcount_and2_avx512,
                                popcount_and3_avx512, popcount_andnot_avx512,
                                reflect_rows_avx512,
                                xoshiro_count_below_avx512};

}  // namespace

const kernel_table* avx512_table() noexcept { return &table; }

}  // namespace ntom::simd::detail

#else  // !NTOM_SIMD_BUILD_AVX512

namespace ntom::simd::detail {

const kernel_table* avx512_table() noexcept { return nullptr; }

}  // namespace ntom::simd::detail

#endif
