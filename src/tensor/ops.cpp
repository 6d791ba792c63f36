#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "tensor/simd/simd.hpp"

namespace pico::tensor {

namespace {

/// Row-partition grain for kernels whose outputs are positionally determined
/// (disjoint writes, per-element accumulation wholly inside one chunk): the
/// grain may adapt to the pool width without affecting results.
size_t row_grain(size_t rows, const util::ThreadPool& pool) {
  return std::max<size_t>(1, rows / (4 * pool.thread_count()));
}

/// Same, rounded up to a multiple of `align` elements so chunk boundaries
/// land on cache-line edges and adjacent chunks never write the same line
/// (the sum_keep_axis3 false-sharing fix). 8 doubles or 64 u8 = one 64-byte
/// line. Purely a partitioning choice — results are unaffected.
size_t aligned_grain(size_t n, const util::ThreadPool& pool, size_t align) {
  const size_t g = row_grain(n, pool);
  return ((g + align - 1) / align) * align;
}

constexpr size_t kLineF64 = 8;   // doubles per 64-byte cache line
constexpr size_t kLineU8 = 64;   // bytes per cache line

}  // namespace

Tensor<double> sum_axis3(const Tensor<double>& t, size_t axis) {
  assert(t.rank() == 3 && axis < 3);
  const size_t d0 = t.dim(0), d1 = t.dim(1), d2 = t.dim(2);
  Shape out_shape;
  if (axis == 0) out_shape = {d1, d2};
  else if (axis == 1) out_shape = {d0, d2};
  else out_shape = {d0, d1};
  Tensor<double> out(out_shape);

  // Specialized loops keep the innermost stride unit-length where possible;
  // the unit-stride inner loops are the vectorized simd primitives.
  if (axis == 2) {
    for (size_t i = 0; i < d0; ++i) {
      for (size_t j = 0; j < d1; ++j) {
        out(i, j) = simd::sum_f64(&t(i, j, 0), d2);
      }
    }
  } else if (axis == 1) {
    for (size_t i = 0; i < d0; ++i) {
      double* o = &out(i, 0);
      std::fill(o, o + d2, 0.0);
      for (size_t j = 0; j < d1; ++j) simd::add_f64(o, &t(i, j, 0), d2);
    }
  } else {
    for (size_t j = 0; j < d1; ++j) {
      double* o = &out(j, 0);
      std::fill(o, o + d2, 0.0);
    }
    for (size_t i = 0; i < d0; ++i) {
      for (size_t j = 0; j < d1; ++j) {
        simd::add_f64(&out(j, 0), &t(i, j, 0), d2);
      }
    }
  }
  return out;
}

Tensor<double> sum_keep_axis3(const Tensor<double>& t, size_t keep) {
  assert(t.rank() == 3 && keep < 3);
  const size_t d0 = t.dim(0), d1 = t.dim(1), d2 = t.dim(2);
  Tensor<double> out(Shape{t.dim(keep)});
  if (keep == 2) {
    for (size_t i = 0; i < d0; ++i) {
      for (size_t j = 0; j < d1; ++j) {
        simd::add_f64(&out(0), &t(i, j, 0), d2);
      }
    }
  } else if (keep == 0) {
    // The (j, k) slab for fixed i is contiguous: one flat reduction per i.
    for (size_t i = 0; i < d0; ++i) {
      out(i) = simd::sum_f64(&t(i, 0, 0), d1 * d2);
    }
  } else {
    for (size_t i = 0; i < d0; ++i) {
      for (size_t j = 0; j < d1; ++j) {
        out(j) += simd::sum_f64(&t(i, j, 0), d2);
      }
    }
  }
  return out;
}

Tensor<double> sum_axis3(const Tensor<double>& t, size_t axis,
                         util::ThreadPool& pool) {
  assert(t.rank() == 3 && axis < 3);
  const size_t d0 = t.dim(0), d1 = t.dim(1), d2 = t.dim(2);
  Shape out_shape;
  if (axis == 0) out_shape = {d1, d2};
  else if (axis == 1) out_shape = {d0, d2};
  else out_shape = {d0, d1};
  Tensor<double> out(out_shape);

  // Every output element is produced by exactly one chunk, accumulated in
  // the same index order (and with the same simd primitives) as the
  // sequential loops: bit-identical results.
  if (axis == 2) {
    pool.parallel_chunks(d0, row_grain(d0, pool), [&](size_t ib, size_t ie) {
      for (size_t i = ib; i < ie; ++i) {
        for (size_t j = 0; j < d1; ++j) {
          out(i, j) = simd::sum_f64(&t(i, j, 0), d2);
        }
      }
    });
  } else if (axis == 1) {
    pool.parallel_chunks(d0, row_grain(d0, pool), [&](size_t ib, size_t ie) {
      for (size_t i = ib; i < ie; ++i) {
        double* o = &out(i, 0);
        std::fill(o, o + d2, 0.0);
        for (size_t j = 0; j < d1; ++j) simd::add_f64(o, &t(i, j, 0), d2);
      }
    });
  } else {
    pool.parallel_chunks(d1, row_grain(d1, pool), [&](size_t jb, size_t je) {
      for (size_t j = jb; j < je; ++j) {
        double* o = &out(j, 0);
        std::fill(o, o + d2, 0.0);
      }
      for (size_t i = 0; i < d0; ++i) {
        for (size_t j = jb; j < je; ++j) {
          simd::add_f64(&out(j, 0), &t(i, j, 0), d2);
        }
      }
    });
  }
  return out;
}

Tensor<double> sum_keep_axis3(const Tensor<double>& t, size_t keep,
                              util::ThreadPool& pool) {
  assert(t.rank() == 3 && keep < 3);
  const size_t d0 = t.dim(0), d1 = t.dim(1), d2 = t.dim(2);
  Tensor<double> out(Shape{t.dim(keep)});
  if (keep == 2) {
    // Disjoint spectral ranges per chunk; each out(k) accumulates over (i, j)
    // in the sequential lexicographic order. The grain is cache-line-aligned
    // so neighbouring chunks never accumulate into the same output line —
    // unaligned grains false-shared out() rows and ran slower in parallel
    // than sequentially.
    pool.parallel_chunks(
        d2, aligned_grain(d2, pool, kLineF64), [&](size_t kb, size_t ke) {
          for (size_t i = 0; i < d0; ++i) {
            for (size_t j = 0; j < d1; ++j) {
              simd::add_f64(&out(kb), &t(i, j, kb), ke - kb);
            }
          }
        });
  } else if (keep == 0) {
    pool.parallel_chunks(d0, row_grain(d0, pool), [&](size_t ib, size_t ie) {
      for (size_t i = ib; i < ie; ++i) {
        out(i) = simd::sum_f64(&t(i, 0, 0), d1 * d2);
      }
    });
  } else {
    pool.parallel_chunks(d1, row_grain(d1, pool), [&](size_t jb, size_t je) {
      for (size_t i = 0; i < d0; ++i) {
        for (size_t j = jb; j < je; ++j) {
          out(j) += simd::sum_f64(&t(i, j, 0), d2);
        }
      }
    });
  }
  return out;
}

double min_value(const Tensor<double>& t) {
  return simd::minmax_f64(t.data().data(), t.size()).min;
}

double max_value(const Tensor<double>& t) {
  return simd::minmax_f64(t.data().data(), t.size()).max;
}

MinMax minmax_value(const ConstView<double>& t) {
  simd::MinMax64 mm = simd::minmax_f64(t.data().data(), t.size());
  return MinMax{mm.min, mm.max};
}

MinMax minmax_value(const ConstView<double>& t, util::ThreadPool& pool) {
  auto src = t.data();
  MinMax identity{std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity()};
  return pool.parallel_reduce<MinMax>(
      src.size(), util::ThreadPool::kReduceGrain, identity,
      [&src](size_t b, size_t e) {
        simd::MinMax64 mm = simd::minmax_f64(src.data() + b, e - b);
        return MinMax{mm.min, mm.max};
      },
      [](MinMax a, MinMax b) {
        // Same (v < acc) ? v : acc update rule as the scan itself.
        return MinMax{(b.min < a.min) ? b.min : a.min,
                      (b.max > a.max) ? b.max : a.max};
      });
}

double sum_value(const Tensor<double>& t) {
  return simd::sum_f64(t.data().data(), t.size());
}

double mean_value(const Tensor<double>& t) {
  return t.size() == 0 ? 0.0 : sum_value(t) / static_cast<double>(t.size());
}

void to_u8_normalized_into(const Tensor<double>& t, Tensor<uint8_t>& out) {
  assert(out.shape() == t.shape());
  if (t.size() == 0) return;
  MinMax mm = minmax_value(t);  // fused: one scan, not a min pass + max pass
  double scale = mm.max > mm.min ? 255.0 / (mm.max - mm.min) : 0.0;
  simd::scale_to_u8(t.data().data(), out.data().data(), t.size(), mm.min,
                    scale);
}

void to_u8_normalized_into(const Tensor<double>& t, Tensor<uint8_t>& out,
                           util::ThreadPool& pool) {
  assert(out.shape() == t.shape());
  if (t.size() == 0) return;
  MinMax mm = minmax_value(t, pool);
  double scale = mm.max > mm.min ? 255.0 / (mm.max - mm.min) : 0.0;
  auto src = t.data();
  auto dst = out.data();
  pool.parallel_chunks(src.size(), aligned_grain(src.size(), pool, kLineU8),
                       [&](size_t b, size_t e) {
                         simd::scale_to_u8(src.data() + b, dst.data() + b,
                                           e - b, mm.min, scale);
                       });
}

Tensor<uint8_t> to_u8_normalized(const Tensor<double>& t) {
  Tensor<uint8_t> out(t.shape());
  to_u8_normalized_into(t, out);
  return out;
}

Tensor<uint8_t> to_u8_normalized(const Tensor<double>& t,
                                 util::ThreadPool& pool) {
  Tensor<uint8_t> out(t.shape());
  to_u8_normalized_into(t, out, pool);
  return out;
}

namespace {
template <typename From, typename To>
Tensor<To> convert(const Tensor<From>& t) {
  Tensor<To> out(t.shape());
  auto src = t.data();
  auto dst = out.data();
  for (size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<To>(src[i]);
  return out;
}
}  // namespace

Tensor<double> to_f64(const Tensor<uint8_t>& t) { return convert<uint8_t, double>(t); }
Tensor<double> to_f64(const Tensor<uint16_t>& t) { return convert<uint16_t, double>(t); }
Tensor<double> to_f64(const Tensor<uint32_t>& t) { return convert<uint32_t, double>(t); }
Tensor<float> to_f32(const Tensor<double>& t) { return convert<double, float>(t); }
Tensor<double> from_f32(const Tensor<float>& t) { return convert<float, double>(t); }

void add_inplace(Tensor<double>& a, const Tensor<double>& b) {
  assert(a.shape() == b.shape());
  simd::add_f64(a.data().data(), b.data().data(), a.size());
}

void scale_inplace(Tensor<double>& a, double k) {
  for (double& v : a.data()) v *= k;
}

}  // namespace pico::tensor
