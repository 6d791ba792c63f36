#include "video/mpk.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "compress/codec.hpp"
#include "util/bytes.hpp"

namespace pico::video {
namespace {
constexpr char kMagic[4] = {'M', 'P', 'K', '1'};

/// Bytes of v as an unsigned LEB128 varint (util::ByteWriter::varint).
size_t varint_size(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// util::ByteWriter::varint's encoding, written in place at p.
size_t write_varint(uint8_t* p, uint64_t v) {
  size_t n = 0;
  for (; v >= 0x80; v >>= 7) p[n++] = static_cast<uint8_t>(v) | 0x80;
  p[n++] = static_cast<uint8_t>(v);
  return n;
}
}  // namespace

MpkVideo MpkVideo::from_stack(const tensor::Tensor<uint8_t>& stack) {
  assert(stack.rank() == 3);
  MpkVideo video(stack.dim(1), stack.dim(2));
  for (size_t t = 0; t < stack.dim(0); ++t) {
    video.append_frame(stack.slice0(t));
  }
  return video;
}

void MpkVideo::append_frame(tensor::Tensor<uint8_t> frame) {
  assert(frame.rank() == 2);
  if (frames_.empty() && height_ == 0 && width_ == 0) {
    height_ = frame.dim(0);
    width_ = frame.dim(1);
  }
  assert(frame.dim(0) == height_ && frame.dim(1) == width_);
  frames_.push_back(std::move(frame));
}

std::vector<uint8_t> MpkVideo::to_bytes(bool compress) const {
  // Frames are encoded straight into the output: reserve the worst case up
  // front, leave room for the largest length varint, then close the gap if
  // the actual length's varint came out shorter.
  const size_t frame_bytes = height_ * width_;
  const size_t bound =
      compress ? compress::RleCodec::max_compressed_size(frame_bytes)
               : frame_bytes;
  const size_t len_room = varint_size(bound);
  std::vector<uint8_t> out;
  out.reserve(32 + frames_.size() * (len_room + bound));
  util::ByteWriter w(&out);
  w.bytes(kMagic, 4);
  w.u8(compress ? 1 : 0);
  w.varint(height_);
  w.varint(width_);
  w.varint(frames_.size());
  compress::RleCodec rle;
  for (const auto& f : frames_) {
    if (!compress) {
      w.varint(f.size());
      w.bytes(f.data().data(), f.size());
      continue;
    }
    const size_t at = out.size();
    out.resize(at + len_room + bound);
    const size_t packed = rle.compress_into(f.data(), out.data() + at + len_room);
    const size_t len_size = write_varint(out.data() + at, packed);
    if (len_size < len_room) {
      std::memmove(out.data() + at + len_size, out.data() + at + len_room,
                   packed);
    }
    out.resize(at + len_size + packed);
  }
  return out;
}

util::Result<MpkVideo> MpkVideo::from_bytes(const std::vector<uint8_t>& data) {
  using R = util::Result<MpkVideo>;
  util::ByteReader r(data);
  const uint8_t* magic = nullptr;
  if (!r.view(&magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return R::err("not an MPK file", "parse");
  }
  uint8_t compressed = 0;
  uint64_t height = 0, width = 0, count = 0;
  if (!r.u8(&compressed) || !r.varint(&height) || !r.varint(&width) ||
      !r.varint(&count)) {
    return R::err("truncated MPK header", "parse");
  }
  if (height == 0 || width == 0 || height * width > (1ull << 32)) {
    return R::err("implausible MPK dimensions", "parse");
  }

  MpkVideo video(height, width);
  compress::RleCodec rle;
  for (uint64_t t = 0; t < count; ++t) {
    uint64_t n = 0;
    if (!r.varint(&n)) return R::err("truncated MPK frame header", "parse");
    std::vector<uint8_t> payload;
    if (!r.bytes(&payload, n)) return R::err("truncated MPK frame", "parse");
    if (compressed) {
      auto unpacked = rle.decompress(payload);
      if (!unpacked) return R::err("MPK frame: " + unpacked.error().message, "corrupt");
      payload = std::move(unpacked).value();
    }
    if (payload.size() != height * width) {
      return R::err("MPK frame size mismatch", "corrupt");
    }
    video.append_frame(tensor::Tensor<uint8_t>(
        tensor::Shape{height, width}, std::move(payload)));
  }
  return R::ok(std::move(video));
}

util::Status MpkVideo::save(const std::string& path, bool compress) const {
  return util::write_file(path, to_bytes(compress));
}

util::Result<MpkVideo> MpkVideo::load(const std::string& path) {
  auto data = util::read_file(path);
  if (!data) return util::Result<MpkVideo>::err(data.error());
  return from_bytes(data.value());
}

MpkVideo annotate(
    const MpkVideo& video,
    const std::vector<std::vector<vision::Detection>>& detections) {
  MpkVideo out(video.height(), video.width());
  const long h = static_cast<long>(video.height());
  const long w = static_cast<long>(video.width());
  for (size_t t = 0; t < video.frame_count(); ++t) {
    tensor::Tensor<uint8_t> frame = video.frame(t);
    if (t < detections.size()) {
      for (const auto& det : detections[t]) {
        uint8_t shade =
            static_cast<uint8_t>(128 + std::lround(det.confidence * 127));
        long x1 = static_cast<long>(std::lround(det.box.x));
        long y1 = static_cast<long>(std::lround(det.box.y));
        long x2 = static_cast<long>(std::lround(det.box.x2()));
        long y2 = static_cast<long>(std::lround(det.box.y2()));
        auto put = [&](long yy, long xx) {
          if (yy < 0 || xx < 0 || yy >= h || xx >= w) return;
          frame(static_cast<size_t>(yy), static_cast<size_t>(xx)) = shade;
        };
        for (long xx = x1; xx <= x2; ++xx) {
          put(y1, xx);
          put(y2, xx);
        }
        for (long yy = y1; yy <= y2; ++yy) {
          put(yy, x1);
          put(yy, x2);
        }
      }
    }
    out.append_frame(std::move(frame));
  }
  return out;
}

}  // namespace pico::video
