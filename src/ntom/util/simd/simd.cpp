#include "ntom/util/simd/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "ntom/util/simd/kernels.hpp"

namespace ntom::simd {

namespace {

// ------------------------------------------------------------- scalar
// Portable SWAR popcount: the reference implementation every other
// level is checked against (tests/util/simd_kernel_test.cpp, the
// micro_kernels identity cell). No builtins, so the object code stays
// honest even on builds whose baseline includes POPCNT.

inline std::size_t soft_popcount(std::uint64_t x) noexcept {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

std::size_t scalar_popcount_words(const std::uint64_t* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) total += soft_popcount(a[w]);
  return total;
}

std::size_t scalar_popcount_and2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) total += soft_popcount(a[w] & b[w]);
  return total;
}

std::size_t scalar_popcount_and3(const std::uint64_t* a,
                                 const std::uint64_t* b,
                                 const std::uint64_t* c, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total += soft_popcount(a[w] & b[w] & c[w]);
  }
  return total;
}

std::size_t scalar_popcount_andnot(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n; ++w) total += soft_popcount(a[w] & ~b[w]);
  return total;
}

// One multiply and one add per element and step, each rounded, one
// row at a time: the reference the vector rungs must match bit for bit.
void plain_reflect_rows(double* const* rows, std::size_t count,
                        const double* a, const double* x, const double* b,
                        double* y, std::size_t n) {
  for (std::size_t r = 0; r < count; ++r) {
    double* row = rows[r];
    if (a != nullptr) {
      for (std::size_t j = 0; j < n; ++j) row[j] += a[r] * x[j];
    }
    if (b != nullptr) {
      for (std::size_t j = 0; j < n; ++j) y[j] += b[r] * row[j];
    }
  }
}

// One generator at a time, one draw at a time: the reference for the
// vector rungs. Matches rng::next_u64 and rng::uniform() < p.
void plain_xoshiro_count_below(std::uint64_t* state,
                               const std::uint64_t* limit, std::size_t steps,
                               std::size_t segments, std::uint64_t* counts) {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  constexpr std::size_t L = xoshiro_lanes;
  for (std::size_t j = 0; j < L; ++j) {
    std::uint64_t s0 = state[j], s1 = state[L + j], s2 = state[2 * L + j],
                  s3 = state[3 * L + j];
    for (std::size_t g = 0; g < segments; ++g) {
      const std::uint64_t lim = limit[L * g + j];
      std::uint64_t count = 0;
      for (std::size_t k = 0; k < steps; ++k) {
        count += ((rotl(s0 + s3, 23) + s0) >> 11) < lim ? 1 : 0;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
      }
      counts[L * g + j] = count;
    }
    state[j] = s0;
    state[L + j] = s1;
    state[2 * L + j] = s2;
    state[3 * L + j] = s3;
  }
}

// ------------------------------------------------------------- popcnt
// Four independent accumulators break the POPCNT output-register
// dependency chain (a false dependency on several x86 generations) and
// let the strided loads pipeline; worth ~1.5x on the fused kernels.

std::size_t hw_popcount_words(const std::uint64_t* a, std::size_t n) {
  std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    t0 += static_cast<std::size_t>(__builtin_popcountll(a[w]));
    t1 += static_cast<std::size_t>(__builtin_popcountll(a[w + 1]));
    t2 += static_cast<std::size_t>(__builtin_popcountll(a[w + 2]));
    t3 += static_cast<std::size_t>(__builtin_popcountll(a[w + 3]));
  }
  std::size_t total = t0 + t1 + t2 + t3;
  for (; w < n; ++w) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[w]));
  }
  return total;
}

std::size_t hw_popcount_and2(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    t0 += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
    t1 += static_cast<std::size_t>(__builtin_popcountll(a[w + 1] & b[w + 1]));
    t2 += static_cast<std::size_t>(__builtin_popcountll(a[w + 2] & b[w + 2]));
    t3 += static_cast<std::size_t>(__builtin_popcountll(a[w + 3] & b[w + 3]));
  }
  std::size_t total = t0 + t1 + t2 + t3;
  for (; w < n; ++w) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

std::size_t hw_popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                             const std::uint64_t* c, std::size_t n) {
  std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    t0 += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w] & c[w]));
    t1 += static_cast<std::size_t>(
        __builtin_popcountll(a[w + 1] & b[w + 1] & c[w + 1]));
    t2 += static_cast<std::size_t>(
        __builtin_popcountll(a[w + 2] & b[w + 2] & c[w + 2]));
    t3 += static_cast<std::size_t>(
        __builtin_popcountll(a[w + 3] & b[w + 3] & c[w + 3]));
  }
  std::size_t total = t0 + t1 + t2 + t3;
  for (; w < n; ++w) {
    total +=
        static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w] & c[w]));
  }
  return total;
}

std::size_t hw_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  std::size_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    t0 += static_cast<std::size_t>(__builtin_popcountll(a[w] & ~b[w]));
    t1 += static_cast<std::size_t>(__builtin_popcountll(a[w + 1] & ~b[w + 1]));
    t2 += static_cast<std::size_t>(__builtin_popcountll(a[w + 2] & ~b[w + 2]));
    t3 += static_cast<std::size_t>(__builtin_popcountll(a[w + 3] & ~b[w + 3]));
  }
  std::size_t total = t0 + t1 + t2 + t3;
  for (; w < n; ++w) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[w] & ~b[w]));
  }
  return total;
}

// ----------------------------------------------------------- dispatch

using detail::kernel_table;

const kernel_table* table_for(level l) noexcept {
  switch (l) {
    case level::avx512:
      return detail::avx512_table();
    case level::avx2:
      return detail::avx2_table();
    case level::popcnt:
      return &detail::popcnt_table();
    case level::scalar:
      break;
  }
  return &detail::scalar_table();
}

bool probe_clmul() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return detail::crc32_clmul_fold() != nullptr &&
         __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

level probe_hardware() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (detail::avx512_table() != nullptr && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return level::avx512;
  }
  if (detail::avx2_table() != nullptr && __builtin_cpu_supports("avx2")) {
    return level::avx2;
  }
  if (__builtin_cpu_supports("popcnt")) return level::popcnt;
#endif
  return level::scalar;
}

std::atomic<const kernel_table*> g_table{nullptr};
std::atomic<int> g_active{0};
int g_detected = 0;
bool g_clmul = false;
std::once_flag g_init_once;

void initialize() noexcept {
  std::call_once(g_init_once, [] {
    level lvl = probe_hardware();
    g_detected = static_cast<int>(lvl);
    g_clmul = probe_clmul();
    if (const char* env = std::getenv("NTOM_SIMD");
        env != nullptr && *env != '\0') {
      level want{};
      if (!parse_level(env, want)) {
        std::fprintf(stderr,
                     "ntom: NTOM_SIMD='%s' is not one of "
                     "scalar|popcnt|avx2|avx512 — ignored\n",
                     env);
      } else if (static_cast<int>(want) > g_detected) {
        std::fprintf(stderr,
                     "ntom: NTOM_SIMD=%s exceeds hardware support — "
                     "using %s\n",
                     level_name(want), level_name(lvl));
      } else {
        lvl = want;
      }
    }
    g_active.store(static_cast<int>(lvl), std::memory_order_relaxed);
    g_table.store(table_for(lvl), std::memory_order_release);
  });
}

inline const kernel_table* active_table() noexcept {
  const kernel_table* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  initialize();
  return g_table.load(std::memory_order_acquire);
}

}  // namespace

namespace detail {

const kernel_table& scalar_table() noexcept {
  static constexpr kernel_table table = {
      scalar_popcount_words, scalar_popcount_and2, scalar_popcount_and3,
      scalar_popcount_andnot, plain_reflect_rows,
      plain_xoshiro_count_below};
  return table;
}

const kernel_table& popcnt_table() noexcept {
  static constexpr kernel_table table = {
      hw_popcount_words, hw_popcount_and2, hw_popcount_and3,
      hw_popcount_andnot, plain_reflect_rows,
      plain_xoshiro_count_below};
  return table;
}

}  // namespace detail

const char* level_name(level l) noexcept {
  switch (l) {
    case level::scalar:
      return "scalar";
    case level::popcnt:
      return "popcnt";
    case level::avx2:
      return "avx2";
    case level::avx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_level(const std::string& name, level& out) noexcept {
  if (name == "scalar") {
    out = level::scalar;
  } else if (name == "popcnt") {
    out = level::popcnt;
  } else if (name == "avx2") {
    out = level::avx2;
  } else if (name == "avx512") {
    out = level::avx512;
  } else {
    return false;
  }
  return true;
}

level detected_level() noexcept {
  initialize();
  return static_cast<level>(g_detected);
}

level active_level() noexcept {
  initialize();
  return static_cast<level>(g_active.load(std::memory_order_relaxed));
}

bool set_level(level l) noexcept {
  initialize();
  if (static_cast<int>(l) > g_detected) return false;
  g_active.store(static_cast<int>(l), std::memory_order_relaxed);
  g_table.store(table_for(l), std::memory_order_release);
  return true;
}

bool apply_level_flag(const std::string& name) {
  level want{};
  if (!parse_level(name, want)) {
    std::fprintf(stderr,
                 "--simd=%s: unknown level (scalar|popcnt|avx2|avx512)\n",
                 name.c_str());
    return false;
  }
  if (!set_level(want)) {
    std::fprintf(stderr, "--simd=%s exceeds this host; staying at %s\n",
                 name.c_str(), level_name(active_level()));
  }
  return true;
}

std::vector<level> available_levels() {
  initialize();
  std::vector<level> out;
  for (int i = 0; i <= g_detected; ++i) out.push_back(static_cast<level>(i));
  return out;
}

std::size_t popcount_words(const std::uint64_t* a, std::size_t n) noexcept {
  return active_table()->popcount_words(a, n);
}

std::size_t popcount_and2(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) noexcept {
  return active_table()->popcount_and2(a, b, n);
}

std::size_t popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* c, std::size_t n) noexcept {
  return active_table()->popcount_and3(a, b, c, n);
}

std::size_t andnot_count(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  return active_table()->popcount_andnot(a, b, n);
}

void reflect_rows(double* const* rows, std::size_t count, const double* a,
                  const double* x, const double* b, double* y,
                  std::size_t n) noexcept {
  active_table()->reflect_rows(rows, count, a, x, b, y, n);
}

void xoshiro_count_below(std::uint64_t* state, const std::uint64_t* limit,
                         std::size_t steps, std::size_t segments,
                         std::uint64_t* counts) noexcept {
  active_table()->xoshiro_count_below(state, limit, steps, segments, counts);
}

crc32_fold_fn crc32_fold() noexcept {
  initialize();
  if (!g_clmul) return nullptr;
  // Forcing the scalar level keeps checksums scalar too, so the
  // NTOM_SIMD=scalar CI leg and the identity sweeps exercise the
  // slicing-by-8 reference end to end.
  if (g_active.load(std::memory_order_relaxed) ==
      static_cast<int>(level::scalar)) {
    return nullptr;
  }
  return detail::crc32_clmul_fold();
}

}  // namespace ntom::simd
