#pragma once
// Tensor reductions and conversions backing the paper's analyses:
//  - sum along the spectral axis -> per-pixel intensity image (Fig. 2A)
//  - sum over both pixel axes    -> aggregate spectrum        (Fig. 2B)
//  - fp64 -> uint8 normalization -> video conversion          (Sec. 3.3)
#include <vector>

#include "tensor/tensor.hpp"
#include "util/threadpool.hpp"

namespace pico::tensor {

/// Sum a rank-3 tensor along one axis, producing the remaining rank-2 tensor
/// in f64. axis must be < 3.
Tensor<double> sum_axis3(const Tensor<double>& t, size_t axis);

/// Parallel twin of sum_axis3: output rows (or, for axis 0/2 reductions,
/// disjoint output ranges) are distributed over the pool while every output
/// element keeps the sequential accumulation order — bit-identical to
/// sum_axis3 for any pool width.
Tensor<double> sum_axis3(const Tensor<double>& t, size_t axis,
                         util::ThreadPool& pool);

/// Sum a rank-3 tensor over two axes, producing a rank-1 f64 tensor over the
/// remaining axis. keep < 3; the other two axes are reduced.
Tensor<double> sum_keep_axis3(const Tensor<double>& t, size_t keep);

/// Parallel twin of sum_keep_axis3 (bit-identical, see sum_axis3).
Tensor<double> sum_keep_axis3(const Tensor<double>& t, size_t keep,
                              util::ThreadPool& pool);

double min_value(const Tensor<double>& t);
double max_value(const Tensor<double>& t);
double sum_value(const Tensor<double>& t);
double mean_value(const Tensor<double>& t);

/// Fused single-pass min+max (one scan where min_value + max_value take two).
struct MinMax {
  double min = 0;
  double max = 0;
};
MinMax minmax_value(const ConstView<double>& t);

/// Parallel fused min+max. min/max combination is order-independent, so the
/// result equals the sequential scan exactly for any pool width.
MinMax minmax_value(const ConstView<double>& t, util::ThreadPool& pool);

/// Linear rescale of arbitrary range to [0, 255]; constant input maps to 0.
Tensor<uint8_t> to_u8_normalized(const Tensor<double>& t);

/// Parallel twin of to_u8_normalized: parallel fused min/max reduction, then
/// a parallel fused scale+cast pass. Bit-identical to the sequential path.
Tensor<uint8_t> to_u8_normalized(const Tensor<double>& t,
                                 util::ThreadPool& pool);

/// Output-reuse twins: write into a caller-owned tensor whose shape already
/// matches t (asserted). In the pooled steady state the destination comes
/// from an arena/pool lease, so reusing it skips the zero-fill page-fault
/// cost a fresh Tensor pays on every stack. Output bytes are identical to
/// the allocating overloads.
void to_u8_normalized_into(const Tensor<double>& t, Tensor<uint8_t>& out);
void to_u8_normalized_into(const Tensor<double>& t, Tensor<uint8_t>& out,
                           util::ThreadPool& pool);

/// Elementwise conversion helpers.
Tensor<double> to_f64(const Tensor<uint8_t>& t);
Tensor<double> to_f64(const Tensor<uint16_t>& t);
Tensor<double> to_f64(const Tensor<uint32_t>& t);
Tensor<float> to_f32(const Tensor<double>& t);
Tensor<double> from_f32(const Tensor<float>& t);

/// a += b (shapes must match).
void add_inplace(Tensor<double>& a, const Tensor<double>& b);

/// a *= k.
void scale_inplace(Tensor<double>& a, double k);

}  // namespace pico::tensor
