#include "util/crc64.hpp"

#include <array>
#include <cstring>

#include "util/simd_override.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PICO_CRC64_CLMUL 1
#include <immintrin.h>
#endif

namespace pico::util {
namespace {

// ECMA-182 polynomial, reflected form (CRC-64/XZ parameters: init ~0,
// reflected in/out, xorout ~0; check("123456789") = 0x995DC9BBDF1939FA).
constexpr uint64_t kPoly = 0xC96C5795D7870F42ull;

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[j][b]
// advances a byte seen j positions earlier through j extra zero bytes, so
// eight table lookups retire eight input bytes per iteration.
using Tables = std::array<std::array<uint64_t, 256>, 8>;

Tables build_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t j = 1; j < 8; ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint64_t crc = t[j - 1][i];
      t[j][i] = t[0][crc & 0xFF] ^ (crc >> 8);
    }
  }
  return t;
}

const Tables& tables() {
  static const auto kTables = build_tables();
  return kTables;
}

inline uint64_t load_le64(const uint8_t* p) {
  // Bytewise assembly is endian-portable; compilers lower it to one load on
  // little-endian targets.
  return static_cast<uint64_t>(p[0]) | (static_cast<uint64_t>(p[1]) << 8) |
         (static_cast<uint64_t>(p[2]) << 16) |
         (static_cast<uint64_t>(p[3]) << 24) |
         (static_cast<uint64_t>(p[4]) << 32) |
         (static_cast<uint64_t>(p[5]) << 40) |
         (static_cast<uint64_t>(p[6]) << 48) |
         (static_cast<uint64_t>(p[7]) << 56);
}

/// Slicing-by-8 over [p, p + n), continuing from register value `crc`.
uint64_t update_tables(uint64_t crc, const uint8_t* p, size_t n) {
  const auto& t = tables();
  while (n >= 8) {
    uint64_t x = crc ^ load_le64(p);
    crc = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^
          t[4][(x >> 24) & 0xFF] ^ t[3][(x >> 32) & 0xFF] ^
          t[2][(x >> 40) & 0xFF] ^ t[1][(x >> 48) & 0xFF] ^ t[0][x >> 56];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(PICO_CRC64_CLMUL)

// Carry-less-multiply folding (the PCLMULQDQ scheme of Gopal et al., Intel
// 2009, for reflected CRCs). A 16-byte block loaded little-endian is a
// 128-bit polynomial whose bit i is the coefficient of x^(127-i), so its low
// qword L and high qword H stand for L*x^64 + H. Moving the block d bits
// further down the message multiplies it by x^d, and modulo P
//   L*x^(64+d) + H*x^d  ==  L*(x^(d+64) mod P) + H*(x^d mod P).
// PCLMULQDQ of two reflected 64-bit operands yields the reflected 127-bit
// product one position short of the 128-bit convention (an extra factor x),
// hence the constants x^(d+63) mod P and x^(d-1) mod P.

/// x^k mod P in the reflected register form (bit i <-> x^(63-i)): start from
/// 1 (bit 63) and multiply by x k times — exactly one CRC bit step each.
uint64_t xpow_mod(unsigned k) {
  uint64_t v = 1ull << 63;
  for (unsigned i = 0; i < k; ++i) v = (v & 1) ? (v >> 1) ^ kPoly : v >> 1;
  return v;
}

struct FoldKeys {
  __m128i by512;  ///< fold one lane across the other three (64 bytes)
  __m128i by128;  ///< fold into the adjacent 16-byte block
};

FoldKeys build_fold_keys() {
  const auto pair = [](unsigned d) {
    return _mm_set_epi64x(static_cast<long long>(xpow_mod(d - 1)),
                          static_cast<long long>(xpow_mod(d + 63)));
  };
  return {pair(512), pair(128)};
}

const FoldKeys& fold_keys() {
  static const FoldKeys kKeys = build_fold_keys();
  return kKeys;
}

__attribute__((target("pclmul"))) inline __m128i fold(__m128i acc,
                                                      __m128i keys) {
  return _mm_xor_si128(_mm_clmulepi64_si128(acc, keys, 0x00),
                       _mm_clmulepi64_si128(acc, keys, 0x11));
}

inline __m128i load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Four-lane fold over the longest 16-byte-multiple prefix of [p, p + n)
/// (n >= 64), also copying the bytes to `q` when kCopy. The folded 128-bit
/// remainder is then reduced through the slicing tables, and the tail under
/// 16 bytes continues there too, so no Barrett step is needed.
template <bool kCopy>
__attribute__((target("pclmul"))) uint64_t update_clmul(uint64_t crc,
                                                        uint8_t* q,
                                                        const uint8_t* p,
                                                        size_t n) {
  const FoldKeys& k = fold_keys();
  const auto take = [&](size_t off) {
    const __m128i v = load128(p + off);
    if constexpr (kCopy) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + off), v);
    }
    return v;
  };
  __m128i x0 =
      _mm_xor_si128(take(0), _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = take(16), x2 = take(32), x3 = take(48);
  size_t off = 64;
  for (; n - off >= 64; off += 64) {
    x0 = _mm_xor_si128(fold(x0, k.by512), take(off));
    x1 = _mm_xor_si128(fold(x1, k.by512), take(off + 16));
    x2 = _mm_xor_si128(fold(x2, k.by512), take(off + 32));
    x3 = _mm_xor_si128(fold(x3, k.by512), take(off + 48));
  }
  __m128i x = _mm_xor_si128(fold(x0, k.by128), x1);
  x = _mm_xor_si128(fold(x, k.by128), x2);
  x = _mm_xor_si128(fold(x, k.by128), x3);
  for (; n - off >= 16; off += 16) {
    x = _mm_xor_si128(fold(x, k.by128), take(off));
  }
  if constexpr (kCopy) std::memcpy(q + off, p + off, n - off);
  alignas(16) uint8_t rest[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rest), x);
  crc = update_tables(0, rest, sizeof(rest));
  return update_tables(crc, p + off, n - off);
}

// Dispatch, resolved once per process: the CLMUL fold when the CPU has it,
// unless the PICO_SIMD override pins the portable paths (the rule the
// tensor kernels follow too; see util/simd_override.hpp).
bool use_clmul() {
  static const bool kClmul = simd_forced() != SimdBackend::kScalar &&
                             __builtin_cpu_supports("pclmul") != 0;
  return kClmul;
}

#endif  // PICO_CRC64_CLMUL

}  // namespace

void Crc64::update(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
#if defined(PICO_CRC64_CLMUL)
  if (n >= 64 && use_clmul()) {
    state_ = update_clmul<false>(state_, nullptr, p, n);
    return;
  }
#endif
  state_ = update_tables(state_, p, n);
}

void Crc64::update_copy(void* dst, const void* src, size_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  auto* q = static_cast<uint8_t*>(dst);
#if defined(PICO_CRC64_CLMUL)
  if (n >= 64 && use_clmul()) {
    state_ = update_clmul<true>(state_, q, p, n);
    return;
  }
#endif
  const auto& t = tables();
  uint64_t crc = state_;
  while (n >= 8) {
    const uint64_t word = load_le64(p);
    std::memcpy(q, p, 8);  // single 8-byte store on LE targets
    const uint64_t x = crc ^ word;
    crc = t[7][x & 0xFF] ^ t[6][(x >> 8) & 0xFF] ^ t[5][(x >> 16) & 0xFF] ^
          t[4][(x >> 24) & 0xFF] ^ t[3][(x >> 32) & 0xFF] ^
          t[2][(x >> 40) & 0xFF] ^ t[1][(x >> 48) & 0xFF] ^ t[0][x >> 56];
    p += 8;
    q += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    q[i] = p[i];
    crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  state_ = crc;
}

uint64_t crc64_copy(void* dst, const void* src, size_t n) {
  Crc64 c;
  c.update_copy(dst, src, n);
  return c.value();
}

uint64_t crc64(const void* data, size_t n) {
  Crc64 c;
  c.update(data, n);
  return c.value();
}

uint64_t crc64(std::string_view s) { return crc64(s.data(), s.size()); }

uint64_t crc64(const std::vector<uint8_t>& v) {
  return crc64(v.data(), v.size());
}

uint64_t crc64_bytewise(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = tables();
  uint64_t crc = ~0ull;
  for (size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace pico::util
