// Baseline build of the frame kernels (SSE2 on x86-64, NEON on aarch64, the
// target's default vector width elsewhere) and the dispatch that picks a
// backend once per process.
#include <cstring>

#include "tensor/simd/simd.hpp"
#include "vision/kernels.hpp"

namespace pico::vision::detail {

namespace baseline {
#define PICO_VEC_BYTES 16
#include "vision/frame_kernels.inc"
#undef PICO_VEC_BYTES
}  // namespace baseline

const FrameKernels& frame_kernels() {
  static const FrameKernels& kSelected = []() -> const FrameKernels& {
#if defined(PICO_HAVE_AVX2)
    const tensor::simd::Level level = tensor::simd::active_level();
    if ((level == tensor::simd::Level::kAvx2 ||
         level == tensor::simd::Level::kAvx512) &&
        __builtin_cpu_supports("avx2")) {
      return avx2::kFrameKernels;
    }
#endif
    return baseline::kFrameKernels;
  }();
  return kSelected;
}

}  // namespace pico::vision::detail
