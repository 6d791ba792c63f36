#pragma once
// Classical image operations underpinning the nanoparticle detector:
// separable Gaussian blur, Otsu automatic thresholding, and connected
// component labeling. All operate on rank-2 tensors.
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/geometry.hpp"
#include "util/threadpool.hpp"

namespace pico::vision {

using ImageF = tensor::Tensor<double>;
using ImageU8 = tensor::Tensor<uint8_t>;

/// Read-only view of one row-major [height, width] fp64 frame: an ImageF, or
/// frame t of a [T, H, W] stack without copying it out.
struct FrameView {
  const double* data = nullptr;
  size_t height = 0;
  size_t width = 0;

  size_t size() const { return height * width; }
  /// A rank-2 image.
  static FrameView of(const ImageF& image) {
    return FrameView{image.data().data(), image.dim(0), image.dim(1)};
  }
  /// Frame t of a rank-3 [T, H, W] stack.
  static FrameView of_stack(const tensor::Tensor<double>& stack, size_t t) {
    const size_t h = stack.dim(1), w = stack.dim(2);
    return FrameView{stack.data().data() + t * h * w, h, w};
  }
};

/// Separable Gaussian blur with reflective borders. sigma <= 0 returns input.
/// Rows are read through a reflect-padded copy (no per-tap border test) and
/// vectorised across adjacent pixels; with a pool, rows of each separable
/// pass are distributed across it. Every choice preserves the per-pixel tap
/// order and roundings, so output is bit-identical to the sequential
/// clamped scalar implementation for any pool width and SIMD backend.
ImageF gaussian_blur(const ImageF& image, double sigma,
                     util::ThreadPool* pool = nullptr);

/// Otsu's threshold over a 256-bin histogram of a min-max normalized image.
/// Returns the threshold in the image's own intensity units.
double otsu_threshold(const ImageF& image);

/// Binary mask: pixel > threshold.
ImageU8 threshold_mask(const ImageF& image, double threshold);

struct Component {
  util::Box box;         ///< tight bounding box (pixel units)
  size_t area = 0;       ///< member pixel count
  double mass = 0;       ///< sum of source intensities over members
  double centroid_x = 0;
  double centroid_y = 0;
};

/// 8-connected component labeling of a binary mask; `intensity` (same shape)
/// provides the mass/centroid weights.
std::vector<Component> connected_components(const ImageU8& mask,
                                            const ImageF& intensity);

}  // namespace pico::vision
