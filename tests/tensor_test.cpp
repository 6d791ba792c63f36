// Tensor tests: shapes, indexing, reductions (the Fig. 2 math), casts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.hpp"
#include "tensor/simd/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/simd_override.hpp"

namespace pico::tensor {
namespace {

TEST(DType, SizesAndNames) {
  EXPECT_EQ(dtype_size(DType::U8), 1u);
  EXPECT_EQ(dtype_size(DType::F64), 8u);
  EXPECT_EQ(dtype_name(DType::F32), "f32");
  EXPECT_EQ(dtype_from_name("u16").value(), DType::U16);
  EXPECT_FALSE(dtype_from_name("complex128"));
  // Round trip all dtypes.
  for (auto t : {DType::U8, DType::I8, DType::U16, DType::I16, DType::U32,
                 DType::I32, DType::U64, DType::I64, DType::F32, DType::F64}) {
    EXPECT_EQ(dtype_from_name(std::string(dtype_name(t))).value(), t);
  }
}

TEST(Tensor, ShapeAndIndexing) {
  Tensor<double> t(Shape{2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  t(1, 2, 3) = 7.5;
  EXPECT_DOUBLE_EQ(t[23], 7.5);  // row-major last element
  t(0, 0, 0) = 1.0;
  EXPECT_DOUBLE_EQ(t[0], 1.0);
}

TEST(Tensor, FullAndZeros) {
  auto z = Tensor<int32_t>::zeros(Shape{3, 3});
  for (auto v : z.data()) EXPECT_EQ(v, 0);
  auto f = Tensor<int32_t>::full(Shape{2, 2}, -5);
  for (auto v : f.data()) EXPECT_EQ(v, -5);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor<double> t(Shape{2, 6});
  for (size_t i = 0; i < 12; ++i) t[i] = static_cast<double>(i);
  auto r = t.reshaped(Shape{3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_DOUBLE_EQ(r(2, 3), 11.0);
}

TEST(Tensor, Slice0ExtractsFrame) {
  Tensor<double> stack(Shape{3, 2, 2});
  for (size_t i = 0; i < stack.size(); ++i) stack[i] = static_cast<double>(i);
  auto frame = stack.slice0(1);
  EXPECT_EQ(frame.shape(), (Shape{2, 2}));
  EXPECT_DOUBLE_EQ(frame(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(frame(1, 1), 7.0);
}

TEST(Ops, SumAxis3MatchesManual) {
  Tensor<double> t(Shape{2, 3, 4});
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<double>(i + 1);

  auto s2 = sum_axis3(t, 2);  // intensity-map style reduction
  EXPECT_EQ(s2.shape(), (Shape{2, 3}));
  double manual = 0;
  for (size_t k = 0; k < 4; ++k) manual += t(1, 2, k);
  EXPECT_DOUBLE_EQ(s2(1, 2), manual);

  auto s0 = sum_axis3(t, 0);
  EXPECT_EQ(s0.shape(), (Shape{3, 4}));
  EXPECT_DOUBLE_EQ(s0(0, 0), t(0, 0, 0) + t(1, 0, 0));

  auto s1 = sum_axis3(t, 1);
  EXPECT_EQ(s1.shape(), (Shape{2, 4}));
  EXPECT_DOUBLE_EQ(s1(0, 3), t(0, 0, 3) + t(0, 1, 3) + t(0, 2, 3));
}

TEST(Ops, SumKeepAxisMatchesManual) {
  Tensor<double> t(Shape{2, 3, 4});
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<double>(i);
  auto spec = sum_keep_axis3(t, 2);  // spectrum-style reduction
  EXPECT_EQ(spec.shape(), (Shape{4}));
  double manual = 0;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) manual += t(i, j, 1);
  }
  EXPECT_DOUBLE_EQ(spec(1), manual);

  auto keep0 = sum_keep_axis3(t, 0);
  EXPECT_EQ(keep0.shape(), (Shape{2}));
  auto keep1 = sum_keep_axis3(t, 1);
  EXPECT_EQ(keep1.shape(), (Shape{3}));
}

// Property: total mass is conserved by every reduction path.
class ReductionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionProperty, MassConservation) {
  util::Rng rng(GetParam());
  Shape shape{static_cast<size_t>(rng.uniform_int(1, 6)),
              static_cast<size_t>(rng.uniform_int(1, 6)),
              static_cast<size_t>(rng.uniform_int(1, 6))};
  Tensor<double> t(shape);
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-10, 10);
  double total = sum_value(t);
  for (size_t axis = 0; axis < 3; ++axis) {
    EXPECT_NEAR(sum_value(sum_axis3(t, axis)), total, 1e-9);
    Tensor<double> kept = sum_keep_axis3(t, axis);
    double kept_total = 0;
    for (double v : kept.data()) kept_total += v;
    EXPECT_NEAR(kept_total, total, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Range<uint64_t>(1, 13));

TEST(Ops, MinMaxMeanSum) {
  Tensor<double> t(Shape{4});
  t(0) = -2;
  t(1) = 8;
  t(2) = 0;
  t(3) = 2;
  EXPECT_DOUBLE_EQ(min_value(t), -2);
  EXPECT_DOUBLE_EQ(max_value(t), 8);
  EXPECT_DOUBLE_EQ(sum_value(t), 8);
  EXPECT_DOUBLE_EQ(mean_value(t), 2);
}

TEST(Ops, ToU8NormalizedRange) {
  Tensor<double> t(Shape{3});
  t(0) = -5;
  t(1) = 0;
  t(2) = 5;
  auto u = to_u8_normalized(t);
  EXPECT_EQ(u(0), 0);
  EXPECT_EQ(u(1), 128);  // midpoint rounds to 128
  EXPECT_EQ(u(2), 255);
}

TEST(Ops, ToU8NormalizedIntoMatchesAllocating) {
  util::Rng rng(0x1A70);
  Tensor<double> t(Shape{4, 9, 7});
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-50.0, 950.0);
  auto seq = to_u8_normalized(t);

  Tensor<uint8_t> into(t.shape());
  for (size_t i = 0; i < into.size(); ++i) into[i] = 0xCC;
  to_u8_normalized_into(t, into);
  EXPECT_EQ(into.storage(), seq.storage());

  util::ThreadPool pool(3);
  Tensor<uint8_t> par(t.shape());
  for (size_t i = 0; i < par.size(); ++i) par[i] = 0x33;
  to_u8_normalized_into(t, par, pool);
  EXPECT_EQ(par.storage(), seq.storage());
}

TEST(Ops, ToU8ConstantInputIsZero) {
  auto u = to_u8_normalized(Tensor<double>::full(Shape{5}, 3.14));
  for (auto v : u.data()) EXPECT_EQ(v, 0);
}

TEST(Ops, Conversions) {
  Tensor<uint16_t> a(Shape{3});
  a(0) = 0;
  a(1) = 1000;
  a(2) = 65535;
  auto d = to_f64(a);
  EXPECT_DOUBLE_EQ(d(2), 65535.0);
  auto f = to_f32(d);
  EXPECT_FLOAT_EQ(f(1), 1000.0f);
  auto back = from_f32(f);
  EXPECT_DOUBLE_EQ(back(0), 0.0);
}

TEST(Ops, AddAndScaleInplace) {
  auto a = Tensor<double>::full(Shape{2, 2}, 1.0);
  auto b = Tensor<double>::full(Shape{2, 2}, 2.0);
  add_inplace(a, b);
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  scale_inplace(a, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
}

// ------------------------------------------------------------ SIMD parity ----
// Contract (simd.hpp): every dispatched kernel is BIT-IDENTICAL to its
// always-compiled scalar twin — the scalar backend emulates the same 4-lane
// association the vector units use. These tests run whatever backend
// dispatch picked (CI also forces PICO_SIMD=scalar for the trivial case) and
// hammer the hazards vectorization introduces: unaligned base pointers,
// non-multiple-of-width tails, NaN/inf payloads, and empty inputs.

double fuzz_value(util::Rng& rng) {
  double r = rng.uniform(0.0, 1.0);
  if (r < 0.02) return std::numeric_limits<double>::quiet_NaN();
  if (r < 0.04) return std::numeric_limits<double>::infinity();
  if (r < 0.06) return -std::numeric_limits<double>::infinity();
  if (r < 0.08) return 0.0;
  return rng.uniform(-1e6, 1e6);
}

TEST(SimdParity, MinMaxSumMatchScalarOnUnalignedTails) {
  util::Rng rng(0x51D);
  // Over-allocate so every offset 0..3 and length keeps us in bounds.
  std::vector<double> buf(1024 + 8);
  for (size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 64u, 1000u}) {
    for (size_t off = 0; off < 4; ++off) {
      const double* p = buf.data() + off;
      for (auto& v : buf) v = rng.uniform(-4096.0, 4096.0);
      if (len > 0) {
        simd::MinMax64 vec = simd::minmax_f64(p, len);
        simd::MinMax64 ref = simd::scalar::minmax_f64(p, len);
        EXPECT_EQ(vec.min, ref.min) << "len=" << len << " off=" << off;
        EXPECT_EQ(vec.max, ref.max) << "len=" << len << " off=" << off;
      }
      // Bit-exact: memcmp via bit_cast-style comparison of doubles.
      double vs = simd::sum_f64(p, len);
      double rs = simd::scalar::sum_f64(p, len);
      EXPECT_EQ(std::memcmp(&vs, &rs, sizeof vs), 0)
          << "len=" << len << " off=" << off << " vec=" << vs
          << " ref=" << rs;
    }
  }
}

TEST(SimdParity, NanAndInfPropagateIdentically) {
  util::Rng rng(0xF1F);
  std::vector<double> buf(513);
  for (auto& v : buf) v = fuzz_value(rng);
  // The contract's NaN carve-out for sums: with NaN (or inf - inf) in the
  // inputs the result must be NaN on every backend, but its sign/payload
  // bits are unspecified — the compiler may swap operands of a commutative
  // `+` in the scalar reference while ADDPD propagates its first operand.
  double vs = simd::sum_f64(buf.data(), buf.size());
  double rs = simd::scalar::sum_f64(buf.data(), buf.size());
  if (std::isnan(rs)) {
    EXPECT_TRUE(std::isnan(vs));
  } else {
    EXPECT_EQ(std::memcmp(&vs, &rs, sizeof vs), 0);
  }
  // minmax ignores NaN by construction ((v < m) ? v : m); both backends must
  // agree even when the buffer is NaN-ridden.
  simd::MinMax64 vec = simd::minmax_f64(buf.data(), buf.size());
  simd::MinMax64 ref = simd::scalar::minmax_f64(buf.data(), buf.size());
  EXPECT_EQ(std::memcmp(&vec, &ref, sizeof vec), 0);

  std::vector<double> all_nan(37, std::numeric_limits<double>::quiet_NaN());
  simd::MinMax64 vn = simd::minmax_f64(all_nan.data(), all_nan.size());
  simd::MinMax64 rn = simd::scalar::minmax_f64(all_nan.data(), all_nan.size());
  EXPECT_EQ(std::memcmp(&vn, &rn, sizeof vn), 0);
}

TEST(SimdParity, AddF64MatchesScalar) {
  util::Rng rng(0xADD);
  for (size_t len : {0u, 1u, 3u, 4u, 6u, 129u}) {
    std::vector<double> src(len), acc_vec(len), acc_ref(len);
    for (size_t i = 0; i < len; ++i) {
      src[i] = rng.uniform(-10.0, 10.0);
      acc_vec[i] = acc_ref[i] = rng.uniform(-10.0, 10.0);
    }
    simd::add_f64(acc_vec.data(), src.data(), len);
    simd::scalar::add_f64(acc_ref.data(), src.data(), len);
    // len 0 leaves data() null, and memcmp on a null pointer is undefined.
    if (len == 0) continue;
    EXPECT_EQ(std::memcmp(acc_vec.data(), acc_ref.data(), len * 8), 0)
        << "len=" << len;
  }
}

TEST(SimdParity, ScaleToU8MatchesScalarIncludingNonFinite) {
  util::Rng rng(0x5CA1E);
  std::vector<double> src(777);
  for (auto& v : src) v = fuzz_value(rng);
  // NaN maps to 0, +inf clamps to 255, -inf clamps to 0 — defined on every
  // backend (the scalar formula clamps before the int cast).
  std::vector<uint8_t> out_vec(src.size(), 0xAA), out_ref(src.size(), 0xBB);
  for (size_t off = 0; off < 4; ++off) {
    const size_t n = src.size() - off;
    simd::scale_to_u8(src.data() + off, out_vec.data(), n, -100.0, 0.01);
    simd::scalar::scale_to_u8(src.data() + off, out_ref.data(), n, -100.0,
                              0.01);
    EXPECT_EQ(std::memcmp(out_vec.data(), out_ref.data(), n), 0)
        << "off=" << off;
  }
  // Empty input: no writes at all.
  uint8_t canary = 0x7F;
  simd::scale_to_u8(src.data(), &canary, 0, 0.0, 1.0);
  EXPECT_EQ(canary, 0x7F);
}

TEST(SimdParity, ActiveLevelIsReportable) {
  const char* name = simd::active_level_name();
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2" ||
              std::string(name) == "avx512" || std::string(name) == "neon");
}

TEST(SimdParity, OverrideRuleIsSharedWithDispatch) {
  // Whatever PICO_SIMD this process runs under, dispatch agrees with the
  // shared rule: a scalar-pinning override selects the scalar backend, and
  // a forced backend is one this CPU runs.
  EXPECT_TRUE(util::cpu_supports(util::SimdBackend::kScalar));
  const auto forced = util::simd_forced();
  if (forced == util::SimdBackend::kScalar) {
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  if (forced.has_value()) {
    EXPECT_TRUE(util::cpu_supports(*forced));
  }
}

}  // namespace
}  // namespace pico::tensor
