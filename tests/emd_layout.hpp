#pragma once
// Byte-level EMD-lite layout helpers for tests: read the header a writer
// produced, and move the blob by appending JSON whitespace to the header,
// which the parser accepts, so a payload can be placed off its alignment.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/json.hpp"

namespace pico::test {

/// Magic, version and header length precede the header JSON.
constexpr size_t kEmdPreamble = 16;

inline uint64_t emd_header_len(const std::vector<uint8_t>& bytes) {
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 8, 8);
  return n;
}

inline util::Json emd_header(const std::vector<uint8_t>& bytes) {
  return util::Json::parse(
             std::string_view(
                 reinterpret_cast<const char*>(bytes.data()) + kEmdPreamble,
                 emd_header_len(bytes)))
      .value();
}

/// The same file with `extra` spaces appended to its header: every payload
/// moves `extra` bytes further into the buffer.
inline std::vector<uint8_t> with_header_padding(
    const std::vector<uint8_t>& bytes, size_t extra) {
  const uint64_t header_len = emd_header_len(bytes);
  std::vector<uint8_t> out;
  util::ByteWriter w(&out);
  w.bytes(bytes.data(), 8);
  w.u64(header_len + extra);
  w.bytes(bytes.data() + kEmdPreamble, header_len);
  const std::string spaces(extra, ' ');
  w.bytes(spaces.data(), spaces.size());
  const size_t blob = kEmdPreamble + header_len;
  w.bytes(bytes.data() + blob, bytes.size() - blob);
  return out;
}

}  // namespace pico::test
