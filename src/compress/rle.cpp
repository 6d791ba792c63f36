#include <algorithm>
#include <bit>
#include <cstring>

#include "compress/codec.hpp"

namespace pico::compress {

// Format: sequence of (control, payload) records.
//   control 0x00..0x7F: literal run of (control+1) bytes follows
//   control 0x80..0xFF: repeat next byte (control-0x7F+1) times, i.e. runs of
//                       2..129 identical bytes
//
// Grammar decisions (the encoder's output is pinned byte for byte):
//   - at a record start, a run of >= 2 equal bytes (capped at 129) is a run
//     record;
//   - otherwise a literal record extends until the first position where a
//     run of >= 3 starts (short runs of 2 are cheaper as literals than
//     breaking the record), or 128 bytes, or the end of input.
// Both scans below go eight bytes at a time; the tails go byte by byte.
namespace {

constexpr size_t kMaxRun = 129;
constexpr size_t kMaxLiteral = 128;
constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

/// Eight bytes at p, byte p[j] in bits [8j, 8j + 8).
uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Index (0..7) of the lowest zero byte of v; v must have one. The classic
/// has-zero test may also flag a byte above a true zero (borrow), never one
/// below it, so its lowest flag is exact.
size_t first_zero_byte(uint64_t v) {
  return static_cast<size_t>(
             std::countr_zero((v - kOnes) & ~v & kHighs)) / 8;
}

bool has_zero_byte(uint64_t v) { return ((v - kOnes) & ~v & kHighs) != 0; }

/// Length of the run of in[i] starting at i, capped at kMaxRun.
size_t run_length(const uint8_t* in, size_t i, size_t n) {
  const size_t end = std::min(n, i + kMaxRun);
  const uint64_t pattern = kOnes * in[i];
  size_t p = i + 1;
  for (; p + 8 <= end; p += 8) {
    const uint64_t diff = load_le64(in + p) ^ pattern;
    if (diff != 0) {
      return p + static_cast<size_t>(std::countr_zero(diff)) / 8 - i;
    }
  }
  while (p < end && in[p] == in[i]) ++p;
  return p - i;
}

/// First p in [from, end) at which a run of >= 3 starts (in[p] == in[p+1]
/// == in[p+2], all below n), or `end`. A zero byte of
/// (x[p] ^ x[p+1]) | (x[p+1] ^ x[p+2]) marks such a p.
size_t next_triple(const uint8_t* in, size_t from, size_t end, size_t n) {
  size_t p = from;
  for (; p < end && p + 10 <= n; p += 8) {
    const uint64_t a = load_le64(in + p);
    const uint64_t b = load_le64(in + p + 1);
    const uint64_t c = load_le64(in + p + 2);
    const uint64_t x = (a ^ b) | (b ^ c);
    if (has_zero_byte(x)) return std::min(end, p + first_zero_byte(x));
  }
  for (; p < end; ++p) {
    if (p + 2 < n && in[p] == in[p + 1] && in[p + 1] == in[p + 2]) return p;
  }
  return end;
}

}  // namespace

size_t RleCodec::compress_into(ByteView input, uint8_t* out) const {
  const uint8_t* in = input.data();
  const size_t n = input.size();
  size_t i = 0, o = 0;
  while (i < n) {
    const size_t run = i + 1 < n && in[i + 1] == in[i] ? run_length(in, i, n) : 1;
    if (run >= 2) {
      out[o++] = static_cast<uint8_t>(0x7F + run - 1);
      out[o++] = in[i];
      i += run;
      continue;
    }
    // in[i] starts no run, so the literal holds at least it.
    const size_t end = next_triple(in, i + 1, std::min(n, i + kMaxLiteral), n);
    out[o++] = static_cast<uint8_t>(end - i - 1);
    std::memcpy(out + o, in + i, end - i);
    o += end - i;
    i = end;
  }
  return o;
}

Bytes RleCodec::compress(ByteView input) const {
  Bytes out(max_compressed_size(input.size()));
  out.resize(compress_into(input, out.data()));
  return out;
}

util::Result<Bytes> RleCodec::decompress(const Bytes& input) const {
  using R = util::Result<Bytes>;
  Bytes out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    uint8_t control = input[i++];
    if (control < 0x80) {
      size_t lit_len = static_cast<size_t>(control) + 1;
      if (i + lit_len > n) return R::err("RLE literal overruns input", "corrupt");
      out.insert(out.end(), input.begin() + static_cast<ptrdiff_t>(i),
                 input.begin() + static_cast<ptrdiff_t>(i + lit_len));
      i += lit_len;
    } else {
      if (i >= n) return R::err("RLE run missing byte", "corrupt");
      size_t run = static_cast<size_t>(control) - 0x7F + 1;
      out.insert(out.end(), run, input[i++]);
    }
  }
  return R::ok(std::move(out));
}

}  // namespace pico::compress
