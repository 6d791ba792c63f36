#include "video/convert.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/simd/simd.hpp"

namespace pico::video {

tensor::Tensor<uint8_t> convert_naive(const tensor::ConstView<double>& stack) {
  assert(stack.rank() == 3);
  const size_t frames = stack.dim(0);
  const size_t frame_px = stack.dim(1) * stack.dim(2);
  tensor::Tensor<uint8_t> out(stack.shape());
  auto src = stack.data();
  auto dst = out.data();

  for (size_t t = 0; t < frames; ++t) {
    // Pessimal: recompute the global range for every frame.
    double lo = src.empty() ? 0.0 : src[0];
    double hi = lo;
    for (size_t i = 0; i < src.size(); ++i) {
      if (src[i] < lo) lo = src[i];
      if (src[i] > hi) hi = src[i];
    }
    double span = hi - lo;
    for (size_t i = t * frame_px; i < (t + 1) * frame_px; ++i) {
      double v = src[i];
      double scaled;
      if (span <= 0) {
        scaled = 0;
      } else {
        scaled = (v - lo) / span * 255.0;
      }
      if (scaled < 0) scaled = 0;
      if (scaled > 255) scaled = 255;
      dst[i] = static_cast<uint8_t>(std::lround(scaled));
    }
  }
  return out;
}

void convert_fast_into(const tensor::ConstView<double>& stack,
                       tensor::Tensor<uint8_t>& out) {
  assert(stack.rank() == 3);
  assert(out.shape() == stack.shape());
  auto src = stack.data();
  auto dst = out.data();
  if (src.empty()) return;

  tensor::simd::MinMax64 mm = tensor::simd::minmax_f64(src.data(), src.size());
  double scale = mm.max > mm.min ? 255.0 / (mm.max - mm.min) : 0.0;
  tensor::simd::scale_to_u8(src.data(), dst.data(), src.size(), mm.min, scale);
}

void convert_parallel_into(const tensor::ConstView<double>& stack,
                           tensor::Tensor<uint8_t>& out,
                           util::ThreadPool& pool) {
  assert(stack.rank() == 3);
  assert(out.shape() == stack.shape());
  auto src = stack.data();
  auto dst = out.data();
  if (src.empty()) return;

  tensor::MinMax mm = tensor::minmax_value(stack, pool);
  double lo = mm.min;
  double scale = mm.max > lo ? 255.0 / (mm.max - lo) : 0.0;
  // Cache-line-aligned grain: chunk edges never split a 64-byte dst line.
  size_t grain = std::max<size_t>(1, src.size() / (4 * pool.thread_count()));
  grain = ((grain + 63) / 64) * 64;
  pool.parallel_chunks(src.size(), grain, [&](size_t b, size_t e) {
    tensor::simd::scale_to_u8(src.data() + b, dst.data() + b, e - b, lo, scale);
  });
}

tensor::Tensor<uint8_t> convert_fast(const tensor::ConstView<double>& stack) {
  tensor::Tensor<uint8_t> out(stack.shape());
  convert_fast_into(stack, out);
  return out;
}

tensor::Tensor<uint8_t> convert_parallel(const tensor::ConstView<double>& stack,
                                         util::ThreadPool& pool) {
  tensor::Tensor<uint8_t> out(stack.shape());
  convert_parallel_into(stack, out, pool);
  return out;
}

}  // namespace pico::video
