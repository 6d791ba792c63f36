// AVX2 build of the frame kernels: compiled with -mavx2 but without -mfma,
// so no multiply-add can fuse even by accident. Empty where the toolchain
// has no -mavx2 (pico_tensor then leaves PICO_HAVE_AVX2 undefined).
#include <cstring>

#include "vision/kernels.hpp"

#if defined(PICO_HAVE_AVX2)
namespace pico::vision::detail::avx2 {
#define PICO_VEC_BYTES 32
#include "vision/frame_kernels.inc"
#undef PICO_VEC_BYTES
}  // namespace pico::vision::detail::avx2
#endif
