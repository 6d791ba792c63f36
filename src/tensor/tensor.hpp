#pragma once
// Row-major N-D tensor. The data plane of every experiment flows through
// this type: hyperspectral cubes [H, W, E], spatiotemporal stacks [T, H, W],
// intensity maps [H, W], and spectra [E].
#include <cassert>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "tensor/dtype.hpp"

namespace pico::tensor {

using Shape = std::vector<size_t>;

inline size_t shape_elements(const Shape& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

/// Byte size of a shape of `elem_size`-byte elements, or nullopt when the
/// product overflows size_t. Parsers size untrusted shapes through this one.
inline std::optional<size_t> checked_shape_bytes(const Shape& shape,
                                                 size_t elem_size) {
  size_t n = elem_size;
  for (size_t d : shape) {
    if (__builtin_mul_overflow(n, d, &n)) return std::nullopt;
  }
  return n;
}

template <typename T>
class Tensor;

/// Read-only view of contiguous row-major elements: a pointer plus a shape.
/// A view borrows: it is valid while the elements it points at are (a
/// Tensor, or the File whose landed bytes it reads). The one exception is a
/// view that owns its elements (`ConstView::owning`), the copy a misaligned
/// payload falls back to. Every Tensor converts to a view implicitly, so a
/// kernel that takes a view serves tensors and landed bytes alike.
template <typename T>
class ConstView {
 public:
  ConstView() = default;
  ConstView(const T* data, Shape shape)
      : data_(data), shape_(std::move(shape)) {}
  ConstView(const Tensor<T>& t)  // implicit: every tensor is a view
      : data_(t.data().data()), shape_(t.shape()) {}

  /// A view that keeps `elements` alive for as long as any copy of it.
  static ConstView owning(std::vector<T> elements, Shape shape) {
    auto keep = std::make_shared<const std::vector<T>>(std::move(elements));
    ConstView v(keep->data(), std::move(shape));
    v.keep_ = std::move(keep);
    return v;
  }

  const Shape& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t size() const { return shape_elements(shape_); }
  size_t dim(size_t axis) const { return shape_.at(axis); }
  std::span<const T> data() const { return {data_, size()}; }
  /// True when this view holds its own copy of the elements.
  bool owns() const { return keep_ != nullptr; }

  const T& operator[](size_t i) const { return data_[i]; }
  const T& operator()(size_t i, size_t j, size_t k) const {
    assert(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

 private:
  const T* data_ = nullptr;
  Shape shape_;
  std::shared_ptr<const void> keep_;
};

template <typename T>
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(shape_elements(shape_)) {
    compute_strides();
  }

  /// Adopt existing data (must match the shape's element count).
  Tensor(Shape shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    assert(data_.size() == shape_elements(shape_));
    compute_strides();
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, T value) {
    Tensor t(std::move(shape));
    std::fill(t.data_.begin(), t.data_.end(), value);
    return t;
  }

  const Shape& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  size_t dim(size_t axis) const { return shape_.at(axis); }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }
  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  /// Flat element access.
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  /// Indexed access for the common ranks.
  T& operator()(size_t i) {
    assert(rank() == 1);
    return data_[i];
  }
  const T& operator()(size_t i) const {
    assert(rank() == 1);
    return data_[i];
  }
  T& operator()(size_t i, size_t j) {
    assert(rank() == 2);
    return data_[i * strides_[0] + j];
  }
  const T& operator()(size_t i, size_t j) const {
    assert(rank() == 2);
    return data_[i * strides_[0] + j];
  }
  T& operator()(size_t i, size_t j, size_t k) {
    assert(rank() == 3);
    return data_[i * strides_[0] + j * strides_[1] + k];
  }
  const T& operator()(size_t i, size_t j, size_t k) const {
    assert(rank() == 3);
    return data_[i * strides_[0] + j * strides_[1] + k];
  }

  /// Reinterpret the same elements with a new shape (element count must match).
  Tensor reshaped(Shape new_shape) const {
    assert(shape_elements(new_shape) == data_.size());
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    t.compute_strides();
    return t;
  }

  /// Contiguous sub-tensor along axis 0 (e.g. one video frame of [T,H,W]).
  Tensor slice0(size_t index) const {
    assert(rank() >= 1 && index < shape_[0]);
    Shape sub(shape_.begin() + 1, shape_.end());
    size_t n = shape_elements(sub);
    std::vector<T> out(data_.begin() + static_cast<ptrdiff_t>(index * n),
                       data_.begin() + static_cast<ptrdiff_t>((index + 1) * n));
    return Tensor(std::move(sub), std::move(out));
  }

  static constexpr DType dtype() { return dtype_of<T>(); }

 private:
  void compute_strides() {
    strides_.assign(shape_.size(), 1);
    for (size_t i = shape_.size(); i-- > 1;) {
      strides_[i - 1] = strides_[i] * shape_[i];
    }
  }

  Shape shape_;
  std::vector<size_t> strides_;
  std::vector<T> data_;
};

}  // namespace pico::tensor
