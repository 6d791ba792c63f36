#pragma once
// EMD-lite: a from-scratch hierarchical binary container standing in for the
// Electron Microscopy Dataset format (an HDF5 subset) the paper's flows carry.
//
// Layout on disk:
//   magic "EMDL" | u32 version | u64 header_len | header (JSON, UTF-8)
//   | payload blob
// The header describes the group tree: attributes (JSON values), child
// groups, and datasets (dtype, shape, payload offset/length, CRC-64). Dataset
// payloads live in the blob. This mirrors HDF5's self-describing design while
// staying a few hundred lines, and supports the paper's key access pattern:
// a single read that serves both metadata extraction and analysis, plus a
// cheap metadata-only scan (header only) for cataloging.
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace pico::emd {

/// An N-D dataset. Payload may be absent after a metadata-only read; shape
/// and dtype are always available.
class Dataset {
 public:
  Dataset() = default;
  Dataset(tensor::DType dtype, tensor::Shape shape, std::vector<uint8_t> raw);

  /// Build from a typed tensor (copies the element bytes).
  template <typename T>
  static Dataset from_tensor(const tensor::Tensor<T>& t) {
    const auto* p = reinterpret_cast<const uint8_t*>(t.data().data());
    return Dataset(tensor::dtype_of<T>(), t.shape(),
                   std::vector<uint8_t>(p, p + t.size() * sizeof(T)));
  }

  /// Reinterpret the payload as a typed tensor (copies). Fails on dtype
  /// mismatch or missing payload.
  template <typename T>
  util::Result<tensor::Tensor<T>> as() const {
    using R = util::Result<tensor::Tensor<T>>;
    if (auto st = check_typed(tensor::dtype_of<T>()); !st) {
      return R::err(st.error());
    }
    return R::ok(tensor::Tensor<T>(shape_, copy_elements<T>()));
  }

  /// Read the payload in place as typed elements, with the errors of as<T>().
  /// Zero-copy when the payload is alignof(T)-aligned (every payload the
  /// writer lays out since blobs are 64-byte aligned); otherwise the view
  /// owns exactly one copy. A zero-copy view is valid while this Dataset
  /// (or its File) is alive.
  template <typename T>
  util::Result<tensor::ConstView<T>> view() const {
    using R = util::Result<tensor::ConstView<T>>;
    if (auto st = check_typed(tensor::dtype_of<T>()); !st) {
      return R::err(st.error());
    }
    const uint8_t* p = raw().data();
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) == 0) {
      return R::ok(
          tensor::ConstView<T>(reinterpret_cast<const T*>(p), shape_));
    }
    return R::ok(tensor::ConstView<T>::owning(copy_elements<T>(), shape_));
  }

  tensor::DType dtype() const { return dtype_; }
  const tensor::Shape& shape() const { return shape_; }
  size_t element_count() const { return tensor::shape_elements(shape_); }
  size_t nbytes() const {
    return element_count() * tensor::dtype_size(dtype_);
  }
  bool payload_loaded() const { return payload_loaded_; }
  /// Payload bytes: either owned storage or a zero-copy view into a mapped
  /// file (see attach_view). Valid only while this Dataset is alive.
  std::span<const uint8_t> raw() const {
    return owner_ ? view_ : std::span<const uint8_t>(raw_);
  }
  /// False when raw() aliases an external owner (mapped file or shared
  /// buffer) instead of dataset-owned storage.
  bool payload_owned() const { return owner_ == nullptr; }
  uint64_t crc() const { return crc_; }

  /// Rebuild from parsed header fields (loader use; payload attached later).
  static Dataset from_meta(tensor::DType dtype, tensor::Shape shape,
                           uint64_t crc);
  /// Attach a payload read from the blob section (loader use).
  void attach_payload(std::vector<uint8_t> raw);
  /// Attach a zero-copy payload view; `owner` keeps the bytes alive (a
  /// shared MappedFile or byte buffer) and is co-owned by every dataset of
  /// the file.
  void attach_view(std::span<const uint8_t> view,
                   std::shared_ptr<const void> owner);

 private:
  friend class File;
  /// The typed accessors' shared errors: dtype mismatch ("type"), payload
  /// absent ("state").
  util::Status check_typed(tensor::DType want) const {
    if (dtype_ != want) {
      return util::Status::err("dtype mismatch: dataset is " +
                                   std::string(tensor::dtype_name(dtype_)),
                               "type");
    }
    if (!payload_loaded_) {
      return util::Status::err("payload not loaded", "state");
    }
    return util::Status::ok();
  }
  template <typename T>
  std::vector<T> copy_elements() const {
    auto bytes = raw();
    std::vector<T> data(element_count());
    std::memcpy(data.data(), bytes.data(), bytes.size());
    return data;
  }

  tensor::DType dtype_ = tensor::DType::U8;
  tensor::Shape shape_;
  std::vector<uint8_t> raw_;
  std::span<const uint8_t> view_;
  std::shared_ptr<const void> owner_;  ///< non-null => raw() is view_
  bool payload_loaded_ = false;
  uint64_t crc_ = 0;
};

/// A group node: attributes + nested groups + datasets, as in HDF5.
struct Group {
  std::map<std::string, util::Json> attrs;
  std::map<std::string, Group> groups;
  std::map<std::string, Dataset> datasets;

  /// Get or create a nested group by "a/b/c" path.
  Group& ensure_group(const std::string& path);
  /// Lookup (const); nullptr when absent.
  const Group* find_group(const std::string& path) const;
  const Dataset* find_dataset(const std::string& path) const;
};

/// A complete EMD-lite file.
class File {
 public:
  Group root;

  /// Serialize to bytes (header + payload blob).
  std::vector<uint8_t> to_bytes() const;

  /// Parse. with_payload=false reads only the header (group tree, dataset
  /// shapes/dtypes/CRCs) — the cheap cataloging scan. Payloads are copied
  /// out of `data`.
  static util::Result<File> from_bytes(const std::vector<uint8_t>& data,
                                       bool with_payload = true);

  /// Zero-copy parse of immutable shared bytes (a storage object's content):
  /// dataset payloads are views that co-own `data` (payload_owned() is
  /// false), so the File may outlive the object it was parsed from. Payload
  /// CRCs are verified exactly as in from_bytes.
  static util::Result<File> from_shared(
      std::shared_ptr<const std::vector<uint8_t>> data,
      bool with_payload = true);

  util::Status save(const std::string& path) const;
  /// Read the whole file and parse it with from_shared: the read buffer is
  /// the payloads' backing store, not a source to copy them from.
  static util::Result<File> load(const std::string& path,
                                 bool with_payload = true);

  /// Zero-copy load: memory-maps the file and attaches dataset payloads as
  /// views into the mapping (all datasets co-own it; the mapping lives until
  /// the last one goes). Payload CRCs are still verified — that verify scan
  /// is the one traversal that faults the pages in — but nothing is copied
  /// until a caller asks for a typed tensor.
  static util::Result<File> load_mapped(const std::string& path,
                                        bool with_payload = true);

  /// Total payload bytes across all datasets (= transfer volume driver).
  uint64_t payload_bytes() const;

  static constexpr uint32_t kVersion = 1;
  static constexpr char kMagic[4] = {'E', 'M', 'D', 'L'};
};

}  // namespace pico::emd
