#include "emd/file.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/mmap.hpp"
#include "util/strings.hpp"

namespace pico::emd {
namespace {

using util::Json;

// ---- header (de)serialization ------------------------------------------

// Dataset metadata entry in the JSON header.
Json dataset_meta(const Dataset& d, uint64_t offset, uint64_t crc) {
  Json shape = Json::array();
  for (size_t s : d.shape()) shape.push_back(static_cast<int64_t>(s));
  return Json::object({
      {"dtype", std::string(tensor::dtype_name(d.dtype()))},
      {"shape", shape},
      {"offset", static_cast<int64_t>(offset)},
      {"nbytes", static_cast<int64_t>(d.nbytes())},
      {"crc64", util::to_hex_u64(crc)},
  });
}

Json group_to_json(const Group& g, std::vector<uint8_t>& blob) {
  Json attrs = Json::object();
  for (const auto& [k, v] : g.attrs) attrs[k] = v;

  Json datasets = Json::object();
  for (const auto& [name, ds] : g.datasets) {
    const uint64_t offset = blob.size();
    auto raw = ds.raw();
    blob.resize(offset + raw.size());
    // Fused land+checksum: one traversal of the payload instead of an
    // insert pass plus a crc64 scan.
    const uint64_t crc =
        util::crc64_copy(blob.data() + offset, raw.data(), raw.size());
    datasets[name] = dataset_meta(ds, offset, crc);
  }

  Json groups = Json::object();
  for (const auto& [name, child] : g.groups) {
    groups[name] = group_to_json(child, blob);
  }

  return Json::object({
      {"attrs", attrs},
      {"datasets", datasets},
      {"groups", groups},
  });
}

// `owner` selects the payload mode: empty -> copy out of the blob
// (from_bytes); non-empty -> attach zero-copy views that co-own `owner` (a
// mapping or a shared buffer). CRC verification reads from raw() either way,
// so a view parse's verify pass is the single traversal of the payload.
util::Status group_from_json(const Json& j, const uint8_t* blob,
                             size_t blob_size, bool with_payload,
                             const std::shared_ptr<const void>& owner,
                             Group* out) {
  for (const auto& [k, v] : j.at("attrs").as_object()) out->attrs[k] = v;

  for (const auto& [name, meta] : j.at("datasets").as_object()) {
    auto dt = tensor::dtype_from_name(meta.at("dtype").as_string());
    if (!dt) return util::Status::err("dataset " + name + ": " + dt.error().message, "parse");
    tensor::Shape shape;
    for (const auto& dim : meta.at("shape").as_array()) {
      int64_t v = dim.as_int(-1);
      if (v < 0) return util::Status::err("dataset " + name + ": bad shape", "parse");
      shape.push_back(static_cast<size_t>(v));
    }
    // Stored CRC travels with the metadata so even header-only reads can
    // validate payload integrity later.
    uint64_t crc = 0;
    {
      const std::string& hex = meta.at("crc64").as_string();
      for (char c : hex) {
        crc <<= 4;
        if (c >= '0' && c <= '9') crc |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f') crc |= static_cast<uint64_t>(c - 'a' + 10);
        else return util::Status::err("dataset " + name + ": bad crc", "parse");
      }
    }
    Dataset ds = Dataset::from_meta(dt.value(), std::move(shape), crc);
    uint64_t offset = static_cast<uint64_t>(meta.at("offset").as_int());
    uint64_t nbytes = static_cast<uint64_t>(meta.at("nbytes").as_int());
    if (nbytes != ds.nbytes()) {
      return util::Status::err("dataset " + name + ": nbytes/shape mismatch",
                               "parse");
    }
    if (with_payload) {
      if (offset + nbytes > blob_size) {
        return util::Status::err("dataset " + name + ": payload out of range",
                                 "parse");
      }
      if (owner) {
        ds.attach_view({blob + offset, nbytes}, owner);
      } else {
        ds.attach_payload(
            std::vector<uint8_t>(blob + offset, blob + offset + nbytes));
      }
      auto raw = ds.raw();
      if (util::crc64(raw.data(), raw.size()) != ds.crc()) {
        return util::Status::err("dataset " + name + ": CRC mismatch",
                                 "corrupt");
      }
    }
    out->datasets.emplace(name, std::move(ds));
  }

  for (const auto& [name, child] : j.at("groups").as_object()) {
    Group g;
    auto st = group_from_json(child, blob, blob_size, with_payload, owner, &g);
    if (!st) return st;
    out->groups.emplace(name, std::move(g));
  }
  return util::Status::ok();
}

}  // namespace

Dataset::Dataset(tensor::DType dtype, tensor::Shape shape,
                 std::vector<uint8_t> raw)
    : dtype_(dtype), shape_(std::move(shape)), raw_(std::move(raw)) {
  payload_loaded_ = true;
  crc_ = util::crc64(raw_);
}

Dataset Dataset::from_meta(tensor::DType dtype, tensor::Shape shape,
                           uint64_t crc) {
  Dataset ds;
  ds.dtype_ = dtype;
  ds.shape_ = std::move(shape);
  ds.crc_ = crc;
  return ds;
}

void Dataset::attach_payload(std::vector<uint8_t> raw) {
  raw_ = std::move(raw);
  view_ = {};
  owner_.reset();
  payload_loaded_ = true;
}

void Dataset::attach_view(std::span<const uint8_t> view,
                          std::shared_ptr<const void> owner) {
  raw_.clear();
  view_ = view;
  owner_ = std::move(owner);
  payload_loaded_ = true;
}

Group& Group::ensure_group(const std::string& path) {
  Group* cur = this;
  for (const auto& part : util::split(path, '/')) {
    if (part.empty()) continue;
    cur = &cur->groups[part];
  }
  return *cur;
}

const Group* Group::find_group(const std::string& path) const {
  const Group* cur = this;
  for (const auto& part : util::split(path, '/')) {
    if (part.empty()) continue;
    auto it = cur->groups.find(part);
    if (it == cur->groups.end()) return nullptr;
    cur = &it->second;
  }
  return cur;
}

const Dataset* Group::find_dataset(const std::string& path) const {
  auto parts = util::split(path, '/');
  if (parts.empty()) return nullptr;
  std::string leaf = parts.back();
  parts.pop_back();
  const Group* g = this;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    auto it = g->groups.find(part);
    if (it == g->groups.end()) return nullptr;
    g = &it->second;
  }
  auto it = g->datasets.find(leaf);
  return it == g->datasets.end() ? nullptr : &it->second;
}

std::vector<uint8_t> File::to_bytes() const {
  std::vector<uint8_t> blob;
  Json header = group_to_json(root, blob);
  std::string header_text = header.dump();

  std::vector<uint8_t> out;
  out.reserve(16 + header_text.size() + blob.size());
  util::ByteWriter w(&out);
  w.bytes(kMagic, 4);
  w.u32(kVersion);
  w.u64(header_text.size());
  w.bytes(header_text.data(), header_text.size());
  w.bytes(blob.data(), blob.size());
  return out;
}

namespace {

util::Result<File> parse_span(const uint8_t* data, size_t size,
                              bool with_payload,
                              const std::shared_ptr<const void>& owner) {
  using R = util::Result<File>;
  util::ByteReader r(data, size);
  const uint8_t* magic = nullptr;
  if (!r.view(&magic, 4) || std::memcmp(magic, File::kMagic, 4) != 0) {
    return R::err("not an EMD-lite file (bad magic)", "parse");
  }
  uint32_t version = 0;
  uint64_t header_len = 0;
  if (!r.u32(&version) || !r.u64(&header_len)) {
    return R::err("truncated EMD-lite header", "parse");
  }
  if (version != File::kVersion) {
    return R::err("unsupported EMD-lite version " + std::to_string(version),
                  "parse");
  }
  const uint8_t* header_bytes = nullptr;
  if (!r.view(&header_bytes, header_len)) {
    return R::err("truncated EMD-lite header body", "parse");
  }
  auto header = Json::parse(std::string_view(
      reinterpret_cast<const char*>(header_bytes), header_len));
  if (!header) return R::err("EMD-lite header: " + header.error().message, "parse");

  const uint8_t* blob = data + r.position();
  size_t blob_size = size - r.position();

  File f;
  auto st = group_from_json(header.value(), blob, blob_size, with_payload,
                            owner, &f.root);
  if (!st) return R::err(st.error());
  return R::ok(std::move(f));
}

}  // namespace

util::Result<File> File::from_bytes(const std::vector<uint8_t>& data,
                                    bool with_payload) {
  return parse_span(data.data(), data.size(), with_payload, nullptr);
}

util::Status File::save(const std::string& path) const {
  return util::write_file(path, to_bytes());
}

util::Result<File> File::from_shared(
    std::shared_ptr<const std::vector<uint8_t>> data, bool with_payload) {
  const std::vector<uint8_t>& bytes = *data;
  return parse_span(bytes.data(), bytes.size(), with_payload, data);
}

util::Result<File> File::load(const std::string& path, bool with_payload) {
  auto data = util::read_file(path);
  if (!data) return util::Result<File>::err(data.error());
  return from_shared(
      std::make_shared<const std::vector<uint8_t>>(std::move(data).value()),
      with_payload);
}

util::Result<File> File::load_mapped(const std::string& path,
                                     bool with_payload) {
  auto mf = util::MappedFile::open(path);
  if (!mf) return util::Result<File>::err(mf.error());
  auto owner =
      std::make_shared<util::MappedFile>(std::move(mf).value());
  auto bytes = owner->bytes();
  return parse_span(bytes.data(), bytes.size(), with_payload, owner);
}

namespace {
uint64_t payload_bytes_rec(const Group& g) {
  uint64_t n = 0;
  for (const auto& [name, ds] : g.datasets) n += ds.nbytes();
  for (const auto& [name, child] : g.groups) n += payload_bytes_rec(child);
  return n;
}
}  // namespace

uint64_t File::payload_bytes() const { return payload_bytes_rec(root); }

}  // namespace pico::emd
