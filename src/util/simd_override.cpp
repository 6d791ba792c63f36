#include "util/simd_override.hpp"

#include <cstdlib>
#include <string_view>

namespace pico::util {

bool cpu_supports(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar: return true;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case SimdBackend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
    case SimdBackend::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
#endif
#if defined(__aarch64__)
    case SimdBackend::kNeon: return true;  // NEON is baseline on aarch64
#endif
    default: return false;
  }
}

std::optional<SimdBackend> simd_forced() {
  static const std::optional<SimdBackend> kForced =
      []() -> std::optional<SimdBackend> {
    const char* env = std::getenv("PICO_SIMD");
    if (env == nullptr) return std::nullopt;
    const std::string_view name(env);
    SimdBackend named;
    if (name == "scalar") {
      named = SimdBackend::kScalar;
    } else if (name == "avx2") {
      named = SimdBackend::kAvx2;
    } else if (name == "avx512") {
      named = SimdBackend::kAvx512;
    } else if (name == "neon") {
      named = SimdBackend::kNeon;
    } else {
      return std::nullopt;  // "native" or unrecognized
    }
    return cpu_supports(named) ? named : SimdBackend::kScalar;
  }();
  return kForced;
}

}  // namespace pico::util
