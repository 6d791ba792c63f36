// Backend selection, resolved once per process. Order of precedence:
//  1. The PICO_SIMD override (util/simd_override.hpp owns its rule, shared
//     with the CRC-64 fold): "scalar" | "avx2" | "avx512" | "neon" |
//     "native". Forcing a backend the build or CPU lacks silently falls back
//     to scalar — tests use this to run the reference path on any host.
//  2. CPU detection: __builtin_cpu_supports on x86 (avx512f, else avx2+fma;
//     the TUs are only compiled in when the toolchain takes the flags),
//     compile-time __ARM_NEON on aarch64.
// This TU is compiled WITHOUT vector flags: it must run on pre-AVX2 hosts
// up to the point of deciding they are pre-AVX2.
#include "tensor/simd/simd.hpp"

#include "util/simd_override.hpp"

namespace pico::tensor::simd {

namespace {

// A backend runs when the build compiled its TU and the CPU executes it.
bool cpu_has_avx2() {
#if defined(PICO_HAVE_AVX2)
  return util::cpu_supports(util::SimdBackend::kAvx2);
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(PICO_HAVE_AVX512)
  return util::cpu_supports(util::SimdBackend::kAvx512);
#else
  return false;
#endif
}

bool cpu_has_neon() {
#if defined(PICO_HAVE_NEON)
  return util::cpu_supports(util::SimdBackend::kNeon);
#else
  return false;
#endif
}

Level detect() {
  if (const auto forced = util::simd_forced()) {
    switch (*forced) {
      case util::SimdBackend::kScalar: return Level::kScalar;
      case util::SimdBackend::kAvx2:
        return cpu_has_avx2() ? Level::kAvx2 : Level::kScalar;
      case util::SimdBackend::kAvx512:
        return cpu_has_avx512() ? Level::kAvx512 : Level::kScalar;
      case util::SimdBackend::kNeon:
        return cpu_has_neon() ? Level::kNeon : Level::kScalar;
    }
  }
  if (cpu_has_avx512()) return Level::kAvx512;
  if (cpu_has_avx2()) return Level::kAvx2;
  if (cpu_has_neon()) return Level::kNeon;
  return Level::kScalar;
}

}  // namespace

Level active_level() {
  static const Level kLevel = detect();
  return kLevel;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
    case Level::kNeon: return "neon";
    case Level::kScalar: return "scalar";
  }
  return "scalar";
}

const char* active_level_name() { return level_name(active_level()); }

MinMax64 minmax_f64(const double* p, size_t n) {
  switch (active_level()) {
#if defined(PICO_HAVE_AVX2)
    case Level::kAvx2: return avx2::minmax_f64(p, n);
#endif
#if defined(PICO_HAVE_AVX512)
    case Level::kAvx512: return avx512::minmax_f64(p, n);
#endif
#if defined(PICO_HAVE_NEON)
    case Level::kNeon: return neon::minmax_f64(p, n);
#endif
    default: return scalar::minmax_f64(p, n);
  }
}

double sum_f64(const double* p, size_t n) {
  switch (active_level()) {
#if defined(PICO_HAVE_AVX2)
    case Level::kAvx2: return avx2::sum_f64(p, n);
#endif
#if defined(PICO_HAVE_AVX512)
    case Level::kAvx512: return avx512::sum_f64(p, n);
#endif
#if defined(PICO_HAVE_NEON)
    case Level::kNeon: return neon::sum_f64(p, n);
#endif
    default: return scalar::sum_f64(p, n);
  }
}

void add_f64(double* acc, const double* p, size_t n) {
  switch (active_level()) {
#if defined(PICO_HAVE_AVX2)
    case Level::kAvx2: return avx2::add_f64(acc, p, n);
#endif
#if defined(PICO_HAVE_AVX512)
    case Level::kAvx512: return avx512::add_f64(acc, p, n);
#endif
#if defined(PICO_HAVE_NEON)
    case Level::kNeon: return neon::add_f64(acc, p, n);
#endif
    default: return scalar::add_f64(acc, p, n);
  }
}

void scale_to_u8(const double* src, uint8_t* dst, size_t n, double lo,
                 double scale) {
  switch (active_level()) {
#if defined(PICO_HAVE_AVX2)
    case Level::kAvx2: return avx2::scale_to_u8(src, dst, n, lo, scale);
#endif
#if defined(PICO_HAVE_AVX512)
    case Level::kAvx512: return avx512::scale_to_u8(src, dst, n, lo, scale);
#endif
#if defined(PICO_HAVE_NEON)
    case Level::kNeon: return neon::scale_to_u8(src, dst, n, lo, scale);
#endif
    default: return scalar::scale_to_u8(src, dst, n, lo, scale);
  }
}

}  // namespace pico::tensor::simd
