#pragma once
// Simulated storage systems. `Store` models both the on-site staging disk of
// the PicoProbe user workstation and ALCF's Eagle Lustre file system
// (O(100 PB)): named objects with sizes, checksums and timestamps, plus
// capacity accounting. Objects can carry real bytes (data-plane payloads the
// analysis actually reads) or be size-only (the 1200 MB campaign files whose
// contents are irrelevant to control-plane timing). Real bytes are immutable
// and shared: staging the same acquisition twice, landing it on another
// store, or parsing it (emd::File::from_shared) takes a reference, never a
// copy. Only the fault surface below writes, and it writes copy-on-write.
//
// Integrity model: every object records the checksum declared at write time
// (`crc64`, the manifest entry) and the checksum of the bytes as they sit on
// media now (`stored_crc64`). The two only diverge through the silent-
// corruption fault surface — `corrupt()`, `truncate()`, `corrupt_random()` —
// and `verify()` is the read-path check that catches the divergence. Corrupt
// objects are moved aside with `quarantine()` so repair (a re-transfer from
// the surviving source copy) can re-land a clean replacement.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace pico::storage {

/// Immutable payload bytes, co-owned by every object (on any store) and every
/// parsed dataset view that holds them.
using SharedBytes = std::shared_ptr<const std::vector<uint8_t>>;

struct Object {
  int64_t size = 0;
  /// Checksum declared when the object was written (the manifest entry).
  uint64_t crc64 = 0;
  sim::SimTime created;
  /// Real payload; null for size-only simulation objects.
  SharedBytes content;
  /// Checksum of the bytes on media now; equal to `crc64` unless at-rest
  /// corruption or a truncated landing damaged the object after the write.
  uint64_t stored_crc64 = 0;

  bool has_content() const { return content != nullptr; }
  bool intact() const { return stored_crc64 == crc64; }
};

class Store {
 public:
  Store(std::string name, int64_t capacity_bytes)
      : name_(std::move(name)), capacity_(capacity_bytes) {}

  const std::string& name() const { return name_; }
  int64_t capacity() const { return capacity_; }
  int64_t used_bytes() const { return used_; }

  /// Store real bytes at `path` (overwrites). Fails when capacity exceeded.
  util::Status put(const std::string& path, std::vector<uint8_t> bytes,
                   sim::SimTime now);
  /// put() by reference: the object shares `bytes` instead of copying them.
  util::Status put(const std::string& path, SharedBytes bytes,
                   sim::SimTime now);

  /// put() for callers that already computed crc64(*bytes) — from the one
  /// pass that produced or verified the landed bytes (a crc64 scan of a
  /// shared landing, or a codec's decode verify) — so landing costs one
  /// traversal instead of two. The caller-declared checksum is trusted as
  /// both the manifest and media checksum; those callers derive it from the
  /// landed bytes themselves, so it cannot diverge (a lie would go
  /// undetected until a content rescan).
  util::Status put_with_crc(const std::string& path, SharedBytes bytes,
                            uint64_t crc64, sim::SimTime now);

  /// Store a size-only object with a precomputed checksum.
  util::Status put_virtual(const std::string& path, int64_t size,
                           uint64_t crc64, sim::SimTime now);

  bool exists(const std::string& path) const;
  util::Result<const Object*> get(const std::string& path) const;
  util::Status remove(const std::string& path);

  /// Paths with the given prefix, sorted.
  std::vector<std::string> list(const std::string& prefix = "") const;

  size_t object_count() const { return objects_.size(); }

  // --- silent-corruption fault surface -------------------------------------

  /// At-rest corruption: flip one payload byte (real objects, in a private
  /// copy so objects sharing the bytes stay intact) or perturb the media
  /// checksum (size-only objects). The declared `crc64` keeps its
  /// write-time value, so `verify()` detects the damage. `salt` picks which
  /// byte flips, keeping chaos schedules deterministic.
  util::Status corrupt(const std::string& path, uint64_t salt = 0);

  /// Truncated landing: only `actual_size` bytes of the object reached the
  /// media (a private copy of the prefix; sharers keep the whole payload). The declared size and checksum keep their manifest values;
  /// `stored_crc64` is recomputed over the surviving prefix so `verify()`
  /// fails. Requires 0 <= actual_size < size.
  util::Status truncate(const std::string& path, int64_t actual_size);

  /// Chaos helper: corrupt each object under `prefix` independently with
  /// probability `prob` (deterministic from `seed`). Returns corrupted paths.
  std::vector<std::string> corrupt_random(double prob, uint64_t seed,
                                          const std::string& prefix = "");

  /// Media-vs-manifest integrity check: true when the stored bytes still
  /// match the checksum declared at write time.
  util::Result<bool> verify(const std::string& path) const;

  /// Move a (typically corrupt) object out of the namespace: get()/exists()
  /// stop seeing it, its capacity is released so repair can re-land a clean
  /// copy, and the path shows up in quarantined() for operators.
  util::Status quarantine(const std::string& path);

  /// Quarantined paths, sorted.
  std::vector<std::string> quarantined() const;
  size_t quarantine_count() const { return quarantined_.size(); }

 private:
  /// The one insert path: capacity check against the net size change, then
  /// overwrite.
  util::Status insert(const std::string& path, Object obj);

  std::string name_;
  int64_t capacity_;
  int64_t used_ = 0;
  std::map<std::string, Object> objects_;
  std::map<std::string, Object> quarantined_;
};

}  // namespace pico::storage
