#pragma once
// The PICO_SIMD override, shared by every runtime-dispatched kernel (the
// tensor SIMD backends and the CRC-64 fold), so the rule lives in one place:
//  - unset, "native" or unrecognized: no override, each kernel detects;
//  - "scalar": every kernel takes its portable path;
//  - "avx2" | "avx512" | "neon": that backend where the CPU runs it, else
//    scalar, so forcing a backend the host lacks pins the portable paths.
#include <optional>

namespace pico::util {

enum class SimdBackend { kScalar, kAvx2, kAvx512, kNeon };

/// Whether this CPU executes `backend` (AVX2 includes FMA, which the AVX2
/// tensor backend uses). Scalar always runs.
bool cpu_supports(SimdBackend backend);

/// The backend PICO_SIMD forces, read once per process; nullopt when there
/// is no override.
std::optional<SimdBackend> simd_forced();

}  // namespace pico::util
