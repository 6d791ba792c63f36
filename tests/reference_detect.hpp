#pragma once
// Test-only reference copies of the original, straightforward detector
// pipeline (allocate-per-frame blur, nth_element median/MAD, std::deque BFS)
// and RLE encoder (byte-at-a-time). The library's fast paths must reproduce
// them bit for bit; the oracle tests in oracle_test.cpp pit one against the
// other on randomized and edge-case inputs. Never linked into src/.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vision/detect.hpp"
#include "vision/image.hpp"

namespace pico::reference {

/// What the reference pipeline did on the frames it saw: lets a test prove
/// that its inputs exercise the noise-rejection and touching-particle paths.
struct DetectPaths {
  size_t frames = 0;
  size_t rejected_frames = 0;    ///< stopped by the median + MAD gate
  size_t split_components = 0;   ///< components boxed per peak (>= 2 peaks)
};

vision::ImageF gaussian_blur(const vision::ImageF& image, double sigma);
double otsu_threshold(const vision::ImageF& image);
vision::ImageU8 threshold_mask(const vision::ImageF& image, double threshold);
std::vector<vision::Component> connected_components(
    const vision::ImageU8& mask, const vision::ImageF& intensity);

std::vector<vision::Detection> detect(const vision::ImageF& frame,
                                      const vision::DetectorConfig& config = {},
                                      DetectPaths* paths = nullptr);

std::vector<uint8_t> rle_compress(std::span<const uint8_t> input);

}  // namespace pico::reference
