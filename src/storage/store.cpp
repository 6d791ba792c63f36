#include "storage/store.hpp"

#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pico::storage {

util::Status Store::insert(const std::string& path, Object obj) {
  int64_t delta = obj.size;
  auto it = objects_.find(path);
  if (it != objects_.end()) delta -= it->second.size;
  if (used_ + delta > capacity_) {
    return util::Status::err(
        util::format("store %s full: need %lld over capacity %lld",
                     name_.c_str(), static_cast<long long>(used_ + delta),
                     static_cast<long long>(capacity_)),
        "capacity");
  }
  objects_[path] = std::move(obj);
  used_ += delta;
  return util::Status::ok();
}

util::Status Store::put(const std::string& path, std::vector<uint8_t> bytes,
                        sim::SimTime now) {
  return put(path,
             std::make_shared<const std::vector<uint8_t>>(std::move(bytes)),
             now);
}

util::Status Store::put(const std::string& path, SharedBytes bytes,
                        sim::SimTime now) {
  const uint64_t crc = util::crc64(*bytes);
  return put_with_crc(path, std::move(bytes), crc, now);
}

util::Status Store::put_with_crc(const std::string& path, SharedBytes bytes,
                                 uint64_t crc64, sim::SimTime now) {
  Object obj;
  obj.size = static_cast<int64_t>(bytes->size());
  obj.crc64 = crc64;
  obj.stored_crc64 = crc64;
  obj.created = now;
  obj.content = std::move(bytes);
  return insert(path, std::move(obj));
}

util::Status Store::put_virtual(const std::string& path, int64_t size,
                                uint64_t crc64, sim::SimTime now) {
  Object obj;
  obj.size = size;
  obj.crc64 = crc64;
  obj.stored_crc64 = crc64;
  obj.created = now;
  return insert(path, std::move(obj));
}

bool Store::exists(const std::string& path) const {
  return objects_.count(path) > 0;
}

util::Result<const Object*> Store::get(const std::string& path) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Result<const Object*>::err(
        "no object " + path + " in store " + name_, "not_found");
  }
  return util::Result<const Object*>::ok(&it->second);
}

util::Status Store::remove(const std::string& path) {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Status::err("no object " + path, "not_found");
  }
  used_ -= it->second.size;
  objects_.erase(it);
  return util::Status::ok();
}

std::vector<std::string> Store::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, obj] : objects_) {
    if (util::starts_with(path, prefix)) out.push_back(path);
  }
  return out;
}

util::Status Store::corrupt(const std::string& path, uint64_t salt) {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Status::err("no object " + path, "not_found");
  }
  Object& obj = it->second;
  if (obj.content && !obj.content->empty()) {
    size_t index = static_cast<size_t>(salt % obj.content->size());
    uint8_t mask = static_cast<uint8_t>(1u << (salt % 8));
    if (mask == 0) mask = 1;
    auto damaged = std::make_shared<std::vector<uint8_t>>(*obj.content);
    (*damaged)[index] ^= mask;
    obj.stored_crc64 = util::crc64(*damaged);
    obj.content = std::move(damaged);
  } else {
    // Size-only object: no bytes to flip, so perturb the media checksum
    // directly. The golden-ratio constant keeps distinct salts distinct.
    obj.stored_crc64 ^= 0x9E3779B97F4A7C15ull + salt;
  }
  if (obj.stored_crc64 == obj.crc64) obj.stored_crc64 ^= 1;
  return util::Status::ok();
}

util::Status Store::truncate(const std::string& path, int64_t actual_size) {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Status::err("no object " + path, "not_found");
  }
  Object& obj = it->second;
  if (actual_size < 0 || actual_size >= obj.size) {
    return util::Status::err(
        util::format("truncate %s: actual_size %lld outside [0, %lld)",
                     path.c_str(), static_cast<long long>(actual_size),
                     static_cast<long long>(obj.size)),
        "invalid");
  }
  if (obj.content) {
    obj.content = std::make_shared<const std::vector<uint8_t>>(
        obj.content->begin(), obj.content->begin() + actual_size);
    obj.stored_crc64 = util::crc64(*obj.content);
  } else {
    obj.stored_crc64 =
        util::crc64(util::format("%016llx:truncated:%lld",
                                 static_cast<unsigned long long>(obj.crc64),
                                 static_cast<long long>(actual_size)));
  }
  if (obj.stored_crc64 == obj.crc64) obj.stored_crc64 ^= 1;
  return util::Status::ok();
}

std::vector<std::string> Store::corrupt_random(double prob, uint64_t seed,
                                               const std::string& prefix) {
  util::Rng rng(seed);
  std::vector<std::string> corrupted;
  // list() returns sorted paths, so the coin sequence — and therefore the
  // damaged set — is reproducible from the seed alone.
  for (const std::string& path : list(prefix)) {
    uint64_t salt = rng.next_u64();
    if (!rng.chance(prob)) continue;
    if (corrupt(path, salt)) corrupted.push_back(path);
  }
  return corrupted;
}

util::Result<bool> Store::verify(const std::string& path) const {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Result<bool>::err("no object " + path, "not_found");
  }
  return util::Result<bool>::ok(it->second.intact());
}

util::Status Store::quarantine(const std::string& path) {
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return util::Status::err("no object " + path, "not_found");
  }
  used_ -= it->second.size;
  quarantined_[path] = std::move(it->second);
  objects_.erase(it);
  return util::Status::ok();
}

std::vector<std::string> Store::quarantined() const {
  std::vector<std::string> out;
  out.reserve(quarantined_.size());
  for (const auto& [path, obj] : quarantined_) out.push_back(path);
  return out;
}

}  // namespace pico::storage
