// Bit-exactness oracles for the detector and the RLE encoder.
//
// DetectorPin / RlePin hold CRC-64s of the pipeline's outputs on fixed
// inputs. The detector is compared bit for bit (box doubles, confidence
// bits), so any change to rounding, accumulation order, tie-breaking or
// detection order moves a pin. DetectorOracle / RleOracle pit the library's
// fast paths against the verbatim reference copies in reference_detect.cpp
// on randomized and edge-case inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "compress/codec.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "reference_detect.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"
#include "vision/detect.hpp"
#include "vision/image.hpp"
#include "vision/kernels.hpp"

namespace pico {
namespace {

using vision::Detection;
using vision::DetectorConfig;
using vision::ImageF;
using vision::ImageU8;

void put_bits(std::vector<uint8_t>& out, double v) {
  uint64_t b = std::bit_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(b >> (8 * i)));
}

/// Every detection's box doubles and confidence as raw bit patterns, framed
/// by the per-frame count.
void append_detections(std::vector<uint8_t>& out,
                       const std::vector<Detection>& dets) {
  put_bits(out, static_cast<double>(dets.size()));
  for (const auto& d : dets) {
    put_bits(out, d.box.x);
    put_bits(out, d.box.y);
    put_bits(out, d.box.w);
    put_bits(out, d.box.h);
    put_bits(out, d.confidence);
  }
}

std::string describe(const std::vector<Detection>& dets) {
  std::string s;
  for (const auto& d : dets) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "[%a %a %a %a | %a] ", d.box.x, d.box.y,
                  d.box.w, d.box.h, d.confidence);
    s += buf;
  }
  return s;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool same_detections(const std::vector<Detection>& a,
                     const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].box.x, b[i].box.x) ||
        !same_bits(a[i].box.y, b[i].box.y) ||
        !same_bits(a[i].box.w, b[i].box.w) ||
        !same_bits(a[i].box.h, b[i].box.h) ||
        !same_bits(a[i].confidence, b[i].confidence)) {
      return false;
    }
  }
  return true;
}

bool same_image(const ImageF& a, const ImageF& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Pins. Values taken from the original byte-at-a-time / deque-BFS pipeline.

/// First 40 frames of the Fig. 3 sequence (touching particles that the
/// detector splits at their summits) plus 6 particle-free frames of the same
/// configuration (noise rejection by the median + MAD gate).
std::vector<ImageF> fig3_pin_frames() {
  std::vector<ImageF> frames;
  auto cfg = instrument::SpatiotemporalConfig::fig3_sample();
  cfg.frames = 40;
  auto sample = instrument::generate_spatiotemporal(cfg);
  for (size_t t = 0; t < cfg.frames; ++t) frames.push_back(sample.stack.slice0(t));
  cfg.frames = 6;
  cfg.particle_count = 0;
  auto empty = instrument::generate_spatiotemporal(cfg);
  for (size_t t = 0; t < cfg.frames; ++t) frames.push_back(empty.stack.slice0(t));
  return frames;
}

TEST(DetectorPin, Fig3DetectionsCrc64) {
  const std::vector<ImageF> frames = fig3_pin_frames();
  vision::BlobDetector detector;
  std::vector<uint8_t> bits;
  size_t total = 0;
  for (const auto& f : frames) {
    auto dets = detector.detect(f);
    total += dets.size();
    append_detections(bits, dets);
  }
  EXPECT_EQ(total, 377u);
  EXPECT_EQ(util::crc64(bits), 0x7223aa38cd47d45full)
      << std::hex << util::crc64(bits);
}

TEST(DetectorPin, Fig3FramesCoverSplitsAndRejections) {
  // The pin above only guards the paths its frames reach: prove that both
  // the touching-particle split and the noise-rejection exit are among them.
  reference::DetectPaths paths;
  for (const auto& f : fig3_pin_frames()) reference::detect(f, {}, &paths);
  EXPECT_EQ(paths.frames, 46u);
  EXPECT_GE(paths.split_components, 5u);
  EXPECT_EQ(paths.rejected_frames, 6u);
}

/// The spatio-real benchmark payload (core::run_campaign's 8 MB synthetic
/// acquisition: 61 frames of 128x128 fp64, 6 particles, seed 20230408)
/// through the facility's chain: convert, detect, annotate, serialize.
std::vector<uint8_t> spatio_real_annotated_mpk() {
  instrument::SpatiotemporalConfig gen;
  gen.height = gen.width = 128;
  gen.frames = 61;
  gen.particle_count = 6;
  gen.seed = 20230408;
  auto sample = instrument::generate_spatiotemporal(gen);
  auto frames_u8 = video::convert_fast(sample.stack);
  video::MpkVideo mpk = video::MpkVideo::from_stack(frames_u8);
  vision::BlobDetector detector;
  std::vector<std::vector<Detection>> detections;
  for (size_t t = 0; t < gen.frames; ++t) {
    detections.push_back(detector.detect(sample.stack.slice0(t)));
  }
  return video::annotate(mpk, detections).to_bytes();
}

TEST(RlePin, SpatioRealAnnotatedMpkCrc64) {
  std::vector<uint8_t> bytes = spatio_real_annotated_mpk();
  EXPECT_EQ(bytes.size(), 997339u);
  EXPECT_EQ(util::crc64(bytes), 0xa77799c048e14d66ull)
      << std::hex << util::crc64(bytes);
}

// ---------------------------------------------------------------------------
// Detector oracle: randomized frames against the reference pipeline.

struct BlobSpec {
  double cx, cy, radius, amplitude;
};

void add_blob(ImageF& img, const BlobSpec& b) {
  const size_t h = img.dim(0), w = img.dim(1);
  for (size_t y = 0; y < h; ++y) {
    for (size_t x = 0; x < w; ++x) {
      const double dx = static_cast<double>(x) - b.cx;
      const double dy = static_cast<double>(y) - b.cy;
      img(y, x) += b.amplitude *
                   std::exp(-(dx * dx + dy * dy) / (2 * b.radius * b.radius));
    }
  }
}

enum class FrameKind {
  kNoisyBlobs,     // background + noise + blobs anywhere
  kTouching,       // two blobs closer than their radii sum
  kBorder,         // blobs centred on edges and corners
  kConstant,       // one value everywhere (incl. +-0)
  kPlateau,        // values quantized to a few levels: tied medians
  kSignedZeros,    // only -0.0, +0.0 and a couple of levels
};

ImageF make_frame(util::Rng& rng, size_t h, size_t w, FrameKind kind) {
  ImageF img(tensor::Shape{h, w});
  const double fw = static_cast<double>(w), fh = static_cast<double>(h);
  auto blob_at = [&](double cx, double cy) {
    return BlobSpec{cx, cy, rng.uniform(0.8, 6.0), rng.uniform(0.5, 6.0)};
  };
  switch (kind) {
    case FrameKind::kConstant: {
      const double choices[] = {0.0, -0.0, 1.0, 1e6, rng.uniform(-5, 5)};
      const double v = choices[rng.uniform_int(0, 4)];
      for (double& p : img.data()) p = v;
      return img;
    }
    case FrameKind::kSignedZeros: {
      for (double& p : img.data()) {
        const int64_t c = rng.uniform_int(0, 9);
        p = c < 4 ? -0.0 : c < 8 ? 0.0 : c == 8 ? 1.0 : 3.0;
      }
      return img;
    }
    default:
      break;
  }
  const double background = rng.uniform(0.0, 2.0);
  const double noise = rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 0.3);
  for (double& p : img.data()) p = background + noise * rng.normal();
  if (kind == FrameKind::kTouching) {
    BlobSpec a = blob_at(rng.uniform(0, fw), rng.uniform(0, fh));
    BlobSpec b = blob_at(0, 0);
    const double angle = rng.uniform(0, 6.283185307179586);
    const double d = (a.radius + b.radius) * rng.uniform(0.6, 1.3);
    b.cx = a.cx + d * std::cos(angle);
    b.cy = a.cy + d * std::sin(angle);
    add_blob(img, a);
    add_blob(img, b);
  } else if (kind == FrameKind::kBorder) {
    const int64_t count = rng.uniform_int(1, 4);
    for (int64_t i = 0; i < count; ++i) {
      const double edge_x[] = {0.0, fw - 1, rng.uniform(0, fw)};
      const double edge_y[] = {0.0, fh - 1, rng.uniform(0, fh)};
      add_blob(img, blob_at(edge_x[rng.uniform_int(0, 2)],
                            edge_y[rng.uniform_int(0, 1)]));
      add_blob(img, blob_at(edge_x[rng.uniform_int(0, 1)],
                            edge_y[rng.uniform_int(0, 2)]));
    }
  } else {
    const int64_t count = rng.uniform_int(0, 6);
    for (int64_t i = 0; i < count; ++i) {
      add_blob(img, blob_at(rng.uniform(-2, fw + 2), rng.uniform(-2, fh + 2)));
    }
  }
  if (kind == FrameKind::kPlateau) {
    const double step = rng.uniform(0.25, 1.5);
    for (double& p : img.data()) p = std::round(p / step) * step;
  }
  return img;
}

DetectorConfig random_config(util::Rng& rng) {
  DetectorConfig cfg;
  switch (rng.uniform_int(0, 5)) {
    case 0: cfg.blur_sigma = 0.0; break;  // the frame itself is "smooth"
    case 1: cfg.blur_sigma = 0.6; break;
    case 2: cfg.blur_sigma = 2.5; break;  // taps wider than tiny frames
    case 3: cfg.contrast_sigma = 0.0; cfg.min_area_px = 1; break;
    case 4: cfg.box_margin_px = 1.5; cfg.max_area_frac = 0.9; break;
    default: break;
  }
  return cfg;
}

void expect_same_components(const std::vector<vision::Component>& a,
                            const std::vector<vision::Component>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].area, b[i].area) << i;
    EXPECT_TRUE(same_bits(a[i].mass, b[i].mass)) << i;
    EXPECT_TRUE(same_bits(a[i].centroid_x, b[i].centroid_x)) << i;
    EXPECT_TRUE(same_bits(a[i].centroid_y, b[i].centroid_y)) << i;
    EXPECT_TRUE(same_bits(a[i].box.x, b[i].box.x) &&
                same_bits(a[i].box.y, b[i].box.y) &&
                same_bits(a[i].box.w, b[i].box.w) &&
                same_bits(a[i].box.h, b[i].box.h))
        << i;
  }
}

/// Median / MAD as the original detector computed them, with a zero
/// median canonicalised to +0.0 (nth_element may land on either zero).
vision::detail::RobustStats reference_stats(std::span<const double> in) {
  std::vector<double> values(in.begin(), in.end());
  auto mid = values.begin() + static_cast<ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  const double median = *mid;
  for (double& v : values) v = std::abs(v - median);
  std::nth_element(values.begin(), mid, values.end());
  return {median + 0.0, *mid};
}

/// The detector's median / MAD, on buffers of the sample's size.
vision::detail::RobustStats radix_stats(std::span<const double> values) {
  if (values.empty()) return {};
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  std::vector<uint16_t> digits(values.size());
  std::vector<uint64_t> keys(values.size());
  std::vector<uint32_t> hist(vision::detail::kHistBins);
  return vision::detail::median_mad(values.data(), values.size(), *lo, *hi,
                                    digits.data(), keys.data(), hist.data());
}

void expect_stats_match(std::span<const double> values) {
  const vision::detail::RobustStats want = reference_stats(values);
  const vision::detail::RobustStats got = radix_stats(values);
  EXPECT_TRUE(same_bits(got.median, want.median))
      << got.median << " vs " << want.median << " (n=" << values.size() << ")";
  EXPECT_TRUE(same_bits(got.mad, want.mad))
      << got.mad << " vs " << want.mad << " (n=" << values.size() << ")";
}

void check_frame(const ImageF& frame, const DetectorConfig& cfg,
                 const std::string& what,
                 reference::DetectPaths* paths = nullptr) {
  SCOPED_TRACE(what);
  // Kernels one by one, so a failure names the stage.
  if (cfg.blur_sigma > 0) {
    ASSERT_TRUE(same_image(vision::gaussian_blur(frame, cfg.blur_sigma),
                           reference::gaussian_blur(frame, cfg.blur_sigma)));
  }
  const ImageF smooth = reference::gaussian_blur(frame, cfg.blur_sigma);
  expect_stats_match(smooth.data());
  const double thr = reference::otsu_threshold(smooth);
  ASSERT_TRUE(same_bits(vision::otsu_threshold(smooth), thr));
  const ImageU8 mask = reference::threshold_mask(smooth, thr);
  ASSERT_EQ(vision::threshold_mask(smooth, thr).storage(), mask.storage());
  expect_same_components(vision::connected_components(mask, smooth),
                         reference::connected_components(mask, smooth));

  // The whole detector, through both entry points.
  const auto want = reference::detect(frame, cfg, paths);
  vision::BlobDetector detector(cfg);
  const auto got = detector.detect(frame);
  EXPECT_TRUE(same_detections(got, want))
      << "got  " << describe(got) << "\nwant " << describe(want);
  ImageF stacked(tensor::Shape{2, frame.dim(0), frame.dim(1)});
  std::copy(frame.data().begin(), frame.data().end(),
            stacked.data().begin() + static_cast<ptrdiff_t>(frame.size()));
  EXPECT_TRUE(same_detections(
      detector.detect(vision::FrameView::of_stack(stacked, 1)), want));
}

TEST(DetectorOracle, RandomizedFramesMatchReferenceBitForBit) {
  util::Rng rng(0x0DE7EC7);
  reference::DetectPaths paths;
  size_t detections = 0;
  const FrameKind kinds[] = {FrameKind::kNoisyBlobs, FrameKind::kTouching,
                             FrameKind::kBorder,     FrameKind::kConstant,
                             FrameKind::kPlateau,    FrameKind::kSignedZeros};
  for (int trial = 0; trial < 240; ++trial) {
    size_t h, w;
    switch (trial % 6) {
      case 0: h = w = 1; break;
      case 1: h = 1; w = static_cast<size_t>(rng.uniform_int(2, 50)); break;
      case 2: h = static_cast<size_t>(rng.uniform_int(2, 50)); w = 1; break;
      case 3: h = w = trial % 12 == 3 ? 128 : 64; break;
      default:
        h = static_cast<size_t>(rng.uniform_int(2, 40));
        w = static_cast<size_t>(rng.uniform_int(2, 40));
    }
    const FrameKind kind = kinds[(trial / 6) % 6];
    const ImageF frame = make_frame(rng, h, w, kind);
    const DetectorConfig cfg = random_config(rng);
    check_frame(frame, cfg,
                "trial " + std::to_string(trial) + " " + std::to_string(h) +
                    "x" + std::to_string(w) + " kind " +
                    std::to_string(static_cast<int>(kind)) + " sigma " +
                    std::to_string(cfg.blur_sigma),
                &paths);
    if (HasFatalFailure()) return;
    detections += reference::detect(frame, cfg).size();
  }
  // The cases reach every exit of the pipeline.
  EXPECT_GT(detections, 200u);
  EXPECT_GT(paths.rejected_frames, 50u);
  EXPECT_GT(paths.split_components, 10u);
}

TEST(DetectorOracle, Fig3FramesMatchReference) {
  for (const auto& frame : fig3_pin_frames()) {
    check_frame(frame, {}, "fig3");
    if (HasFatalFailure()) return;
  }
}

TEST(DetectorOracle, MedianMadMatchesNthElement) {
  util::Rng rng(0x3AD);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 3000));
    std::vector<double> v(n);
    const int64_t mode = trial % 6;
    const double kMax = std::numeric_limits<double>::max();
    const double kInf = std::numeric_limits<double>::infinity();
    for (double& x : v) {
      switch (mode) {
        case 0: x = rng.normal(1.0, 0.05); break;             // one binade
        case 1: x = rng.uniform(-1e3, 1e3); break;            // both signs
        case 2: x = static_cast<double>(rng.uniform_int(-3, 3)); break;  // ties
        case 3: x = rng.chance(0.5) ? -0.0 : 0.0; break;      // signed zeros
        case 4:  // the ends of the key range: +-inf and +-max (a minority,
                 // so the median stays finite and no deviation is inf - inf)
          x = rng.chance(0.7) ? rng.normal(0.0, 1.0)
                              : std::array<double, 4>{kInf, -kInf, kMax, -kMax}
                                    [static_cast<size_t>(rng.uniform_int(0, 3))];
          break;
        default: x = std::ldexp(rng.uniform(1, 2), static_cast<int>(rng.uniform_int(-60, 60)));
      }
    }
    expect_stats_match(v);
    if (HasFailure()) return;
  }
}

TEST(DetectorOracle, ZeroMedianIsCanonicalPositiveZero) {
  // Rank n/2 lands on a zero; under operator< the zeros tie, so the exact
  // answer is "zero" and the contract returns +0.0 whatever mix of signed
  // zeros surrounds it.
  for (std::vector<double> v : {std::vector<double>{-0.0, -0.0, -0.0, 0.0, 0.0},
                                std::vector<double>{-0.0, -0.0, 0.0},
                                std::vector<double>{-1.0, -0.0, -0.0, 0.0, 4.0},
                                std::vector<double>{-0.0}}) {
    const vision::detail::RobustStats got = radix_stats(v);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.median), 0u);
    expect_stats_match(v);
  }
}

// ---------------------------------------------------------------------------
// RLE oracle.

void expect_rle_matches(std::span<const uint8_t> input, const std::string& what) {
  SCOPED_TRACE(what);
  compress::RleCodec rle;
  const std::vector<uint8_t> want = reference::rle_compress(input);
  const compress::Bytes got = rle.compress(input);
  ASSERT_EQ(got, want);
  // compress_into never needs more than the advertised bound (ASan checks
  // the exact-size buffer).
  std::vector<uint8_t> exact(compress::RleCodec::max_compressed_size(input.size()));
  ASSERT_EQ(rle.compress_into(input, exact.data()), want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), exact.begin()));
  auto back = rle.decompress(got);
  ASSERT_TRUE(back);
  ASSERT_TRUE(std::equal(back.value().begin(), back.value().end(),
                         input.begin(), input.end()));
}

/// `len` bytes with no run of 3 (and, with `pairs`, runs of exactly 2).
std::vector<uint8_t> literal_stretch(size_t len, bool pairs, uint8_t seed) {
  std::vector<uint8_t> out;
  for (size_t i = 0; out.size() < len; ++i) {
    const uint8_t b = static_cast<uint8_t>(seed + 3 * i);
    out.push_back(b);
    if (pairs && i % 2 == 0 && out.size() < len) out.push_back(b);
  }
  return out;
}

TEST(RleOracle, RunAndLiteralBoundariesMatchReference) {
  const size_t run_lengths[] = {1, 2, 3, 4, 127, 128, 129, 130, 131, 257, 258, 259};
  const size_t literal_lengths[] = {1, 2, 126, 127, 128, 129, 130, 255, 256, 257};
  for (size_t run : run_lengths) {
    for (size_t lit : literal_lengths) {
      for (bool pairs : {false, true}) {
        const std::vector<uint8_t> stretch = literal_stretch(lit, pairs, 7);
        std::vector<uint8_t> runs(run, 0xAB);
        std::string tag = "run " + std::to_string(run) + " lit " +
                          std::to_string(lit) + (pairs ? " pairs" : "");
        std::vector<uint8_t> v;
        v.insert(v.end(), runs.begin(), runs.end());
        expect_rle_matches(v, tag + " run only");
        v.insert(v.end(), stretch.begin(), stretch.end());
        expect_rle_matches(v, tag + " run,lit");
        v.insert(v.end(), runs.begin(), runs.end());
        expect_rle_matches(v, tag + " run,lit,run");
        std::vector<uint8_t> u(stretch);
        u.insert(u.end(), runs.begin(), runs.end());
        u.insert(u.end(), stretch.begin(), stretch.end());
        expect_rle_matches(u, tag + " lit,run,lit");
        if (HasFatalFailure()) return;
      }
    }
  }
  expect_rle_matches({}, "empty");
}

TEST(RleOracle, RandomizedInputsMatchReference) {
  util::Rng rng(0x41E);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = static_cast<size_t>(rng.uniform_int(0, 3000));
    const int64_t alphabet = rng.uniform_int(1, trial % 3 == 0 ? 256 : 4);
    const double repeat = rng.uniform(0.0, 0.98);
    std::vector<uint8_t> v;
    uint8_t cur = 0;
    while (v.size() < n + 16) {
      if (!rng.chance(repeat)) cur = static_cast<uint8_t>(rng.uniform_int(0, alphabet - 1));
      v.push_back(cur);
    }
    // Sub-spans at every alignment of the eight-byte scans.
    const size_t off = static_cast<size_t>(trial % 8);
    expect_rle_matches(std::span<const uint8_t>(v.data() + off, n),
                       "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

TEST(RleOracle, WorstCaseHitsTheBound) {
  // Alternating bytes: every record is a literal, the last one short.
  for (size_t n : {1, 128, 129, 256, 1000}) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i & 1);
    compress::RleCodec rle;
    EXPECT_EQ(rle.compress(v).size(), n + (n + 127) / 128);
    EXPECT_LE(rle.compress(v).size(), compress::RleCodec::max_compressed_size(n));
    expect_rle_matches(v, "alternating " + std::to_string(n));
  }
}

/// MPK serialisation as the original to_bytes produced it.
std::vector<uint8_t> reference_mpk_bytes(const video::MpkVideo& video,
                                         bool compress) {
  std::vector<uint8_t> out;
  util::ByteWriter w(&out);
  w.bytes("MPK1", 4);
  w.u8(compress ? 1 : 0);
  w.varint(video.height());
  w.varint(video.width());
  w.varint(video.frame_count());
  for (size_t t = 0; t < video.frame_count(); ++t) {
    auto raw = video.frame(t).data();
    std::vector<uint8_t> packed =
        compress ? reference::rle_compress(raw)
                 : std::vector<uint8_t>(raw.begin(), raw.end());
    w.varint(packed.size());
    w.bytes(packed.data(), packed.size());
  }
  return out;
}

TEST(RleOracle, MpkToBytesMatchesReference) {
  util::Rng rng(0x3B4);
  // Shapes whose packed frames need 1-, 2- and 3-byte length varints, and
  // frames that pack much smaller than the bound (closing the gap).
  const std::pair<size_t, size_t> shapes[] = {{1, 1}, {1, 100}, {3, 60},
                                              {128, 128}, {130, 131}};
  for (auto [h, w] : shapes) {
    tensor::Tensor<uint8_t> stack(tensor::Shape{4, h, w});
    auto data = stack.data();
    for (size_t i = 0; i < data.size(); ++i) {
      const size_t t = i / (h * w);
      data[i] = t == 0   ? 0
                : t == 1 ? static_cast<uint8_t>(rng.next_u64())
                : t == 2 ? static_cast<uint8_t>((i / 5) & 3)
                         : static_cast<uint8_t>(i & 1);
    }
    const video::MpkVideo video = video::MpkVideo::from_stack(stack);
    for (bool compress : {true, false}) {
      EXPECT_EQ(video.to_bytes(compress), reference_mpk_bytes(video, compress))
          << h << "x" << w << " compress=" << compress;
    }
  }
}

}  // namespace
}  // namespace pico
