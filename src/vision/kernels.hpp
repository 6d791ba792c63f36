#pragma once
// Allocation-free kernels behind vision/image.hpp and the detector. Each
// writes into caller-owned buffers, so BlobDetector can run a frame entirely
// in per-thread scratch; the public image.hpp functions wrap them with
// freshly allocated outputs. Every kernel reproduces the original
// straightforward implementation bit for bit (see DESIGN.md §6).
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vision/image.hpp"

namespace pico::vision::detail {

struct Range {
  double lo;  ///< NaN-ignoring minimum (`v < lo ? v : lo`), +inf if none
  double hi;  ///< NaN-ignoring maximum, -inf if none
};

/// Per-backend kernels, vectorised across adjacent pixels. The blur rows
/// give each output pixel its own accumulator, starting at +0.0 and adding
/// taps[j] * in[j] for j = 0..n_taps-1 in order, one rounding for the
/// multiply and one for the add (vision sources compile without FP
/// contraction), so every backend matches the scalar loop bit for bit. The
/// mask is exact by construction.
struct FrameKernels {
  /// out[x] = sum_j taps[j] * pad[x + j] for x < w.
  void (*blur_horizontal_row)(const double* pad, const double* taps,
                              size_t n_taps, double* out, size_t w);
  /// out[x] = sum_j taps[j] * rows[j][x] for x < w; folds out into *range.
  void (*blur_vertical_row)(const double* const* rows, const double* taps,
                            size_t n_taps, double* out, size_t w,
                            Range* range);
  /// mask[i] = values[i] > threshold.
  void (*threshold_mask)(const double* values, size_t n, double threshold,
                         uint8_t* mask);
};

/// Kernels for the active tensor::simd level (AVX2 where the host has it,
/// baseline otherwise; PICO_SIMD=scalar forces the baseline).
const FrameKernels& frame_kernels();

namespace baseline {
extern const FrameKernels kFrameKernels;
}
#if defined(PICO_HAVE_AVX2)
namespace avx2 {
extern const FrameKernels kFrameKernels;
}
#endif

/// Normalised Gaussian taps for sigma > 0 (radius max(1, ceil(3 sigma))).
void gaussian_taps(double sigma, std::vector<double>& taps);

/// Horizontal pass over rows [yb, ye): tmp row y = taps (*) reflect-padded
/// src row y. `pad` holds w + taps - 1 doubles.
void blur_horizontal(const double* src, size_t w,
                     const std::vector<double>& taps, double* tmp, size_t yb,
                     size_t ye, double* pad);

/// Vertical pass over rows [yb, ye) of the output; returns the range of the
/// rows written. `rows` holds taps.size() pointers.
Range blur_vertical(const double* tmp, size_t h, size_t w,
                    const std::vector<double>& taps, double* out, size_t yb,
                    size_t ye, const double** rows);

/// Exact robust statistics of a sample: `median` is the element std::
/// nth_element places at index n/2 (a zero median is returned as +0.0) and
/// `mad` the element at index n/2 of the |v - median| values.
struct RobustStats {
  double median = 0;
  double mad = 0;
};

/// Median / MAD of values[0, n) whose range is [lo, hi], by radix
/// selection (no sort); NaN-free input, n == 0 gives {0, 0}. `digits`
/// holds n uint16_t, `keys` n uint64_t, `hist` kHistBins uint32_t.
constexpr size_t kHistBins = 2048;
RobustStats median_mad(const double* values, size_t n, double lo, double hi,
                       uint16_t* digits, uint64_t* keys, uint32_t* hist);

/// Otsu threshold of values[0, n) whose range is [lo, hi].
double otsu_threshold(const double* values, size_t n, double lo, double hi);

/// 8-connected BFS labelling of `state` (nonzero = foreground), appending
/// one Component per region to `out` in raster order of its first pixel.
/// Visited foreground pixels are rewritten to 2 (still nonzero, so the mask
/// reads the same afterwards); the input must hold only 0 and 1. `queue`
/// holds h * w uint64_t.
void label_components(uint8_t* state, const double* intensity, size_t h,
                      size_t w, uint64_t* queue, std::vector<Component>& out);

}  // namespace pico::vision::detail
