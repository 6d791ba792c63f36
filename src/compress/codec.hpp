#pragma once
// Compression codecs. The paper lists "data compression algorithms" as future
// work to relieve the transfer bottleneck; the A3 ablation bench uses these
// codecs on real EMD payloads to quantify the trade. Frames are
// self-describing (codec name, original size, CRC-64), so a transfer can
// negotiate per-file compression and verify integrity after decode.
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace pico::util {
class ThreadPool;
}

namespace pico::compress {

using Bytes = std::vector<uint8_t>;
/// Non-owning input view: codecs compress straight out of mapped files,
/// store objects, or arena buffers without staging a Bytes copy first.
/// A Bytes lvalue converts implicitly.
using ByteView = std::span<const uint8_t>;

/// Stateless codec interface. Implementations must be inverse pairs:
/// decompress(compress(x)) == x for every byte string x.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::string name() const = 0;
  virtual Bytes compress(ByteView input) const = 0;
  /// Fails on malformed streams (fuzz-safe: never reads out of bounds).
  virtual util::Result<Bytes> decompress(const Bytes& input) const = 0;
};

/// Identity codec (baseline for the ablation).
class NullCodec final : public Codec {
 public:
  std::string name() const override { return "null"; }
  Bytes compress(ByteView input) const override {
    return Bytes(input.begin(), input.end());
  }
  util::Result<Bytes> decompress(const Bytes& input) const override {
    return util::Result<Bytes>::ok(input);
  }
};

/// Byte-level run-length encoding; wins on sparse detector frames.
class RleCodec final : public Codec {
 public:
  std::string name() const override { return "rle"; }
  Bytes compress(ByteView input) const override;
  util::Result<Bytes> decompress(const Bytes& input) const override;

  /// Upper bound on compress(input).size() for an n-byte input.
  static size_t max_compressed_size(size_t n) { return n + n / 128 + 1; }
  /// compress() written straight to `out`, which must hold
  /// max_compressed_size(input.size()) bytes; returns the bytes written.
  size_t compress_into(ByteView input, uint8_t* out) const;
};

/// Per-byte delta + RLE of the deltas; wins on smooth image rows.
class DeltaCodec final : public Codec {
 public:
  std::string name() const override { return "delta"; }
  Bytes compress(ByteView input) const override;
  util::Result<Bytes> decompress(const Bytes& input) const override;
};

/// LZ77 with a 64 KiB window and hash-chain matching ("lz-lite").
class LzCodec final : public Codec {
 public:
  std::string name() const override { return "lz"; }
  Bytes compress(ByteView input) const override;
  util::Result<Bytes> decompress(const Bytes& input) const override;
};

/// Byte-shuffle (HDF5-style filter for f64 words) + LZ: the right codec for
/// the floating-point detector counts EMD files carry.
class ShuffleLzCodec final : public Codec {
 public:
  std::string name() const override { return "shuffle-lz"; }
  Bytes compress(ByteView input) const override;
  util::Result<Bytes> decompress(const Bytes& input) const override;
};

/// Block-parallel LZ ("lz-par"): the input is split into fixed-size blocks,
/// each compressed independently (and concurrently, on the shared data-plane
/// pool) and carried as a standard self-describing "lz" frame inside the
/// stream. Block boundaries depend only on the input size, so the output is
/// byte-identical for any pool width. Blocks cost a little ratio (no
/// cross-block matches) and buy node-level compression throughput — the
/// trade the paper's future-work compression needs for the 65 GB/s detector.
class BlockLzCodec final : public Codec {
 public:
  /// pool == nullptr compresses blocks on the shared data-plane pool.
  explicit BlockLzCodec(size_t block_size = kDefaultBlockSize,
                        util::ThreadPool* pool = nullptr)
      : block_size_(block_size == 0 ? kDefaultBlockSize : block_size),
        pool_(pool) {}

  static constexpr size_t kDefaultBlockSize = 256 * 1024;

  std::string name() const override { return "lz-par"; }
  Bytes compress(ByteView input) const override;
  util::Result<Bytes> decompress(const Bytes& input) const override;

 private:
  size_t block_size_;
  util::ThreadPool* pool_;
};

/// Registry of known codecs by name.
class CodecRegistry {
 public:
  /// The default registry with null/rle/delta/lz registered.
  static const CodecRegistry& standard();

  const Codec* find(const std::string& name) const;
  std::vector<std::string> names() const;

  void add(std::unique_ptr<Codec> codec);

 private:
  std::vector<std::unique_ptr<Codec>> codecs_;
};

/// Self-describing frame: "PCZ1" | codec name | original size | crc64 | body.
/// Reads the input exactly once: the frame checksum is computed by the same
/// pass that frames the body.
Bytes encode_frame(const Codec& codec, ByteView input);

/// Decode a frame, looking up the codec in `registry`; validates size + CRC.
/// When `crc_out` is non-null it receives the verified payload checksum, so
/// callers landing the result can skip their own scan (fused-CRC contract).
util::Result<Bytes> decode_frame(const CodecRegistry& registry,
                                 const Bytes& frame,
                                 uint64_t* crc_out = nullptr);

/// decode_frame over a non-owning view (e.g. a slice of a block stream).
util::Result<Bytes> decode_frame_view(const CodecRegistry& registry,
                                      ByteView frame,
                                      uint64_t* crc_out = nullptr);

/// Convenience stats for benches.
struct CompressionStats {
  std::string codec;
  size_t input_bytes = 0;
  size_t output_bytes = 0;
  double ratio() const {
    return output_bytes == 0 ? 0.0
                             : static_cast<double>(input_bytes) /
                                   static_cast<double>(output_bytes);
  }
};

}  // namespace pico::compress
