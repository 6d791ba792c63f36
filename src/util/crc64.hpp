#pragma once
// CRC-64 (ECMA-182 polynomial) used as the integrity checksum for EMD-lite
// dataset payloads and simulated Globus transfers ("checksum verification").
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pico::util {

/// One-shot CRC-64/ECMA of a byte buffer. Inputs of 64+ bytes fold with
/// carry-less multiply (PCLMULQDQ) when the CPU has it, resolved once per
/// process; a PICO_SIMD override that pins the portable paths (see
/// util/simd_override.hpp) selects slicing-by-8, which also serves shorter
/// inputs and every tail. Both paths are bit-identical.
uint64_t crc64(const void* data, size_t n);
uint64_t crc64(std::string_view s);
uint64_t crc64(const std::vector<uint8_t>& v);

/// Byte-at-a-time reference implementation. Same polynomial semantics as
/// crc64(); kept so tests and bench_dataplane can cross-check the fast
/// paths against the value baked into existing EMD files.
uint64_t crc64_bytewise(const void* data, size_t n);

/// Fused copy + checksum: copies n bytes from src to dst (which must not
/// overlap) and returns crc64(src, n), touching the source exactly once.
/// The data plane uses this wherever bytes were previously landed with
/// memcpy and then re-scanned for their checksum.
uint64_t crc64_copy(void* dst, const void* src, size_t n);

/// Incremental CRC-64 for streaming (chunked transfer) use.
class Crc64 {
 public:
  void update(const void* data, size_t n);
  /// update(src, n) fused with a copy to dst (see crc64_copy).
  void update_copy(void* dst, const void* src, size_t n);
  uint64_t value() const { return ~state_; }
  void reset() { state_ = ~0ull; }

 private:
  uint64_t state_ = ~0ull;
};

}  // namespace pico::util
