// AVX2 kernel table: Harley–Seal carry-save popcount (Muła/Kurz/Lemire
// style). Sixteen 256-bit lanes per iteration feed a carry-save adder
// network so only one in sixteen vectors pays the VPSHUFB
// nibble-lookup popcount; the ones/twos/fours/eights residues are
// folded in after the main loop with their binary weights. The QR row
// walk is a 4-lane multiply-then-add loop blocked over four rows, and
// the xoshiro count kernel steps its sixteen generators eight at a
// time, as two interleaved groups of four 64-bit lanes.
//
// Compiled with -mavx2 (set per-file by CMakeLists.txt); selected at
// runtime only when cpuid reports AVX2, so the rest of the library
// never executes these instructions on older hardware.
#include "ntom/util/simd/kernels.hpp"

#if defined(NTOM_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include "ntom/util/simd/simd.hpp"

namespace ntom::simd::detail {

namespace {

/// Per-64-bit-lane popcount of one 256-bit vector via the nibble
/// lookup table + horizontal byte sums (VPSADBW).
inline __m256i popcount_lanes(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i sums = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                       _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(sums, _mm256_setzero_si256());
}

/// Carry-save full adder over bit-sliced counters: consumes a and b
/// into the running parity `lo`, emitting the carries in `hi`.
inline void csa(__m256i& hi, __m256i& lo, __m256i a, __m256i b) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  hi = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, lo));
  lo = _mm256_xor_si256(u, lo);
}

inline std::uint64_t horizontal_sum(__m256i v) noexcept {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// `load(v)` yields the v-th 256-bit vector (4 words) of the fused
/// input stream, `tail(w)` the w-th word — the AND fusion lives in the
/// callers' lambdas so one adder network serves all three kernels.
template <typename Load, typename Tail>
std::size_t harley_seal(std::size_t n, Load load, Tail tail) noexcept {
  const std::size_t nvec = n / 4;
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  std::size_t v = 0;
  for (; v + 16 <= nvec; v += 16) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    csa(twos_a, ones, load(v + 0), load(v + 1));
    csa(twos_b, ones, load(v + 2), load(v + 3));
    csa(fours_a, twos, twos_a, twos_b);
    csa(twos_a, ones, load(v + 4), load(v + 5));
    csa(twos_b, ones, load(v + 6), load(v + 7));
    csa(fours_b, twos, twos_a, twos_b);
    csa(eights_a, fours, fours_a, fours_b);
    csa(twos_a, ones, load(v + 8), load(v + 9));
    csa(twos_b, ones, load(v + 10), load(v + 11));
    csa(fours_a, twos, twos_a, twos_b);
    csa(twos_a, ones, load(v + 12), load(v + 13));
    csa(twos_b, ones, load(v + 14), load(v + 15));
    csa(fours_b, twos, twos_a, twos_b);
    csa(eights_b, fours, fours_a, fours_b);
    csa(sixteens, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, popcount_lanes(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(popcount_lanes(eights), 3));
  total =
      _mm256_add_epi64(total, _mm256_slli_epi64(popcount_lanes(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_lanes(twos), 1));
  total = _mm256_add_epi64(total, popcount_lanes(ones));
  for (; v < nvec; ++v) {
    total = _mm256_add_epi64(total, popcount_lanes(load(v)));
  }
  std::size_t count = static_cast<std::size_t>(horizontal_sum(total));
  for (std::size_t w = nvec * 4; w < n; ++w) {
    count += static_cast<std::size_t>(__builtin_popcountll(tail(w)));
  }
  return count;
}

inline __m256i loadu(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

std::size_t popcount_words_avx2(const std::uint64_t* a, std::size_t n) {
  return harley_seal(
      n, [a](std::size_t v) { return loadu(a + 4 * v); },
      [a](std::size_t w) { return a[w]; });
}

std::size_t popcount_and2_avx2(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  return harley_seal(
      n,
      [a, b](std::size_t v) {
        return _mm256_and_si256(loadu(a + 4 * v), loadu(b + 4 * v));
      },
      [a, b](std::size_t w) { return a[w] & b[w]; });
}

std::size_t popcount_and3_avx2(const std::uint64_t* a, const std::uint64_t* b,
                               const std::uint64_t* c, std::size_t n) {
  return harley_seal(
      n,
      [a, b, c](std::size_t v) {
        return _mm256_and_si256(
            _mm256_and_si256(loadu(a + 4 * v), loadu(b + 4 * v)),
            loadu(c + 4 * v));
      },
      [a, b, c](std::size_t w) { return a[w] & b[w] & c[w]; });
}

std::size_t popcount_andnot_avx2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  // VPANDN computes ~first & second, so b rides in the first operand.
  return harley_seal(
      n,
      [a, b](std::size_t v) {
        return _mm256_andnot_si256(loadu(b + 4 * v), loadu(a + 4 * v));
      },
      [a, b](std::size_t w) { return a[w] & ~b[w]; });
}

void or_accumulate_avx2(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i d = loadu(dst + w);
    const __m256i s = loadu(src + w);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, s));
  }
  for (; w < n; ++w) dst[w] |= src[w];
}

inline __m256i rotl_lanes(__m256i x, int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

/// Four xoshiro256++ generators, one per 64-bit lane, and the running
/// count of one run. Lane stride in memory is simd::xoshiro_lanes.
struct xoshiro4 {
  __m256i s0, s1, s2, s3, limit, count;

  static xoshiro4 load(const std::uint64_t* state) noexcept {
    constexpr std::size_t L = xoshiro_lanes;
    const __m256i zero = _mm256_setzero_si256();
    return {loadu(state),         loadu(state + L), loadu(state + 2 * L),
            loadu(state + 3 * L), zero,             zero};
  }

  void begin(const std::uint64_t* lim) noexcept {
    limit = loadu(lim);
    count = _mm256_setzero_si256();
  }

  void step() noexcept {
    const __m256i out =
        _mm256_add_epi64(rotl_lanes(_mm256_add_epi64(s0, s3), 23), s0);
    // The compare yields -1 per counted lane.
    count = _mm256_sub_epi64(
        count, _mm256_cmpgt_epi64(limit, _mm256_srli_epi64(out, 11)));
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl_lanes(s3, 45);
  }

  void store(std::uint64_t* state) const noexcept {
    constexpr std::size_t L = xoshiro_lanes;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state), s0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + L), s1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 2 * L), s2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 3 * L), s3);
  }
};

// Sixteen generators, eight at a time as two independent groups of four
// lanes stepped in one loop so the two dependency chains overlap; each
// group stays in registers from one run to the next. AVX2 has only a
// signed 64-bit compare; x >> 11 is below 2^53 and a limit is at most
// 2^53, so both are non-negative as signed values.
void xoshiro_count_below_avx2(std::uint64_t* state,
                              const std::uint64_t* limit, std::size_t steps,
                              std::size_t segments, std::uint64_t* counts) {
  constexpr std::size_t L = xoshiro_lanes;
  static_assert(L % 8 == 0);
  for (std::size_t half = 0; half < L; half += 8) {
    xoshiro4 lo = xoshiro4::load(state + half);
    xoshiro4 hi = xoshiro4::load(state + half + 4);
    for (std::size_t g = 0; g < segments; ++g) {
      lo.begin(limit + L * g + half);
      hi.begin(limit + L * g + half + 4);
      for (std::size_t k = 0; k < steps; ++k) {
        lo.step();
        hi.step();
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + L * g + half),
                          lo.count);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(counts + L * g + half + 4), hi.count);
    }
    lo.store(state + half);
    hi.store(state + half + 4);
  }
}

// QR row walk (simd::reflect_rows), `Block` rows at a time: per 4-lane
// column chunk, x and the running y stay in registers across the
// block's rows, so y is loaded and stored once per block rather than
// once per row. Separate VMULPD and VADDPD (the build turns FP
// contraction off), and every element sees the rows in the given order,
// as in the scalar loop.
template <bool Update, bool Dot, std::size_t Block>
void reflect_block_avx2(double* const* rows, const double* a,
                        const double* x, const double* b, double* y,
                        std::size_t n) noexcept {
  __m256d av[Block];
  __m256d bv[Block];
  for (std::size_t q = 0; q < Block; ++q) {
    if constexpr (Update) av[q] = _mm256_set1_pd(a[q]);
    if constexpr (Dot) bv[q] = _mm256_set1_pd(b[q]);
  }
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d xs = _mm256_setzero_pd();
    __m256d acc = _mm256_setzero_pd();
    if constexpr (Update) xs = _mm256_loadu_pd(x + j);
    if constexpr (Dot) acc = _mm256_loadu_pd(y + j);
    for (std::size_t q = 0; q < Block; ++q) {
      __m256d v = _mm256_loadu_pd(rows[q] + j);
      if constexpr (Update) {
        v = _mm256_add_pd(v, _mm256_mul_pd(av[q], xs));
        _mm256_storeu_pd(rows[q] + j, v);
      }
      if constexpr (Dot) acc = _mm256_add_pd(acc, _mm256_mul_pd(bv[q], v));
    }
    if constexpr (Dot) _mm256_storeu_pd(y + j, acc);
  }
  for (; j < n; ++j) {
    double yj = 0.0;
    if constexpr (Dot) yj = y[j];
    for (std::size_t q = 0; q < Block; ++q) {
      double v = rows[q][j];
      if constexpr (Update) {
        v = v + a[q] * x[j];
        rows[q][j] = v;
      }
      if constexpr (Dot) yj = yj + b[q] * v;
    }
    if constexpr (Dot) y[j] = yj;
  }
}

template <bool Update, bool Dot>
void reflect_walk_avx2(double* const* rows, std::size_t count,
                       const double* a, const double* x, const double* b,
                       double* y, std::size_t n) noexcept {
  std::size_t r = 0;
  const auto at = [&](const double* c) { return c == nullptr ? c : c + r; };
  for (; r + 4 <= count; r += 4) {
    reflect_block_avx2<Update, Dot, 4>(rows + r, at(a), x, at(b), y, n);
  }
  for (; r < count; ++r) {
    reflect_block_avx2<Update, Dot, 1>(rows + r, at(a), x, at(b), y, n);
  }
}

void reflect_rows_avx2(double* const* rows, std::size_t count,
                       const double* a, const double* x, const double* b,
                       double* y, std::size_t n) {
  if (a != nullptr && b != nullptr) {
    reflect_walk_avx2<true, true>(rows, count, a, x, b, y, n);
  } else if (a != nullptr) {
    reflect_walk_avx2<true, false>(rows, count, a, x, b, y, n);
  } else if (b != nullptr) {
    reflect_walk_avx2<false, true>(rows, count, a, x, b, y, n);
  }
}

constexpr kernel_table table = {popcount_words_avx2,  popcount_and2_avx2,
                                popcount_and3_avx2,   popcount_andnot_avx2,
                                or_accumulate_avx2,   reflect_rows_avx2,
                                xoshiro_count_below_avx2};

}  // namespace

const kernel_table* avx2_table() noexcept { return &table; }

}  // namespace ntom::simd::detail

#else  // !NTOM_SIMD_BUILD_AVX2

namespace ntom::simd::detail {

const kernel_table* avx2_table() noexcept { return nullptr; }

}  // namespace ntom::simd::detail

#endif
