#pragma once
// EMD -> video conversion. The paper identifies "a slow data type casting
// operation from fp64 to uint8" during EMD->MP4 conversion as the dominant
// cost of the spatiotemporal compute phase. Both the naive path (per-frame
// range rescan + branchy per-element conversion, what the Python pipeline
// effectively does) and an optimized single-pass path are implemented so the
// A4 ablation can quantify the difference.
#include <cstdint>

#include "tensor/tensor.hpp"
#include "util/threadpool.hpp"

namespace pico::video {

/// Every variant reads the stack through a view: a Tensor, or an EMD
/// dataset's landed bytes (emd::Dataset::view).

/// Naive conversion: for every frame, rescan the *entire stack* for min/max
/// (the pessimal global-normalization-per-frame behaviour of a naive
/// implementation), then convert elementwise with bounds checks.
tensor::Tensor<uint8_t> convert_naive(const tensor::ConstView<double>& stack);

/// Optimized conversion: one min/max pass over the stack, then a fused
/// scale+clamp loop. Identical output to convert_naive.
tensor::Tensor<uint8_t> convert_fast(const tensor::ConstView<double>& stack);

/// Node-parallel conversion: the min/max reduction and the scale+cast pass
/// both fan out over the pool (the paper's compute function owns a whole
/// Polaris node). min/max combination is order-independent and the cast is
/// elementwise, so the output is bit-identical to convert_fast (and hence
/// convert_naive) for any pool width.
tensor::Tensor<uint8_t> convert_parallel(const tensor::ConstView<double>& stack,
                                         util::ThreadPool& pool);

/// Output-reuse twins of convert_fast / convert_parallel: write into a
/// caller-owned tensor whose shape matches the stack (asserted). The pooled
/// streaming path hands frames the same destination buffers repeatedly, so
/// skipping the per-stack allocation (and its zero-fill page faults) is
/// where the steady-state throughput lives. Output bytes are identical to
/// the allocating overloads.
void convert_fast_into(const tensor::ConstView<double>& stack,
                       tensor::Tensor<uint8_t>& out);
void convert_parallel_into(const tensor::ConstView<double>& stack,
                           tensor::Tensor<uint8_t>& out,
                           util::ThreadPool& pool);

}  // namespace pico::video
