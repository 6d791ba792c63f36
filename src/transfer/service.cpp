#include "transfer/service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "util/crc64.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pico::transfer {
namespace {

util::Logger& logger() {
  static util::Logger kLogger("transfer");
  return kLogger;
}

}  // namespace

std::string task_state_name(TaskState s) {
  switch (s) {
    case TaskState::Pending: return "PENDING";
    case TaskState::Active: return "ACTIVE";
    case TaskState::Succeeded: return "SUCCEEDED";
    case TaskState::Failed: return "FAILED";
  }
  return "?";
}

int64_t TransferService::ChunkManifest::verified_count() const {
  int64_t n = 0;
  for (bool v : verified) n += v ? 1 : 0;
  return n;
}

int64_t TransferService::ChunkManifest::verified_wire() const {
  int64_t n = 0;
  for (int64_t i = 0; i < chunk_count(); ++i) {
    if (verified[static_cast<size_t>(i)]) n += chunk_size(i);
  }
  return n;
}

int64_t TransferService::ChunkManifest::chunk_size(int64_t index) const {
  int64_t start = index * chunk_bytes;
  return std::max<int64_t>(0, std::min(chunk_bytes, wire_bytes - start));
}

TransferService::TransferService(sim::Engine* engine, net::Network* network,
                                 auth::AuthService* auth,
                                 TransferConfig config, uint64_t seed)
    : engine_(engine),
      network_(network),
      auth_(auth),
      config_(config),
      rng_(seed) {}

void TransferService::register_endpoint(const std::string& name,
                                        net::NodeId node,
                                        storage::Store* store) {
  endpoints_[name] = Endpoint{node, store};
}

util::Result<TaskId> TransferService::submit(const TransferRequest& request,
                                             const auth::Token& token) {
  using R = util::Result<TaskId>;
  if (!available_) {
    return R::err("transfer service unavailable", "unavailable");
  }
  auto who = auth_->validate(token, "transfer");
  if (!who) return R::err(who.error());

  auto src_it = endpoints_.find(request.src_endpoint);
  if (src_it == endpoints_.end()) {
    return R::err("unknown source endpoint: " + request.src_endpoint,
                  "not_found");
  }
  auto dst_it = endpoints_.find(request.dst_endpoint);
  if (dst_it == endpoints_.end()) {
    return R::err("unknown destination endpoint: " + request.dst_endpoint,
                  "not_found");
  }
  if (request.files.empty()) return R::err("empty file list", "invalid");
  if (!request.codec.empty() &&
      !compress::CodecRegistry::standard().find(request.codec)) {
    return R::err("unknown codec: " + request.codec, "invalid");
  }

  // Validate every source object exists before accepting the task.
  int64_t total = 0;
  int64_t largest = 0;
  for (const auto& f : request.files) {
    auto obj = src_it->second.store->get(f.src_path);
    if (!obj) return R::err(obj.error());
    total += obj.value()->size;
    largest = std::max(largest, obj.value()->size);
  }

  TaskId id = util::format("xfer-%06llu", static_cast<unsigned long long>(next_task_++));
  ActiveTask task;
  task.request = request;
  if (task.request.streaming_chunk_bytes != 0) {
    // Degenerate chunk sizes are clamped at validation time instead of
    // silently misbehaving: at least one byte per chunk, at most one
    // whole-file chunk of the largest file in the request.
    int64_t cap = std::max<int64_t>(1, largest);
    task.request.streaming_chunk_bytes = std::min(
        cap, std::max<int64_t>(1, task.request.streaming_chunk_bytes));
  }
  task.info.state = TaskState::Pending;
  task.info.bytes_total = total;
  task.info.files_total = static_cast<int>(request.files.size());
  task.info.submitted = engine_->now();
  if (config_.per_flow_rate_cap_bps > 0) {
    task.effective_cap_bps =
        std::max(config_.per_flow_rate_cap_bps * 0.2,
                 rng_.normal(config_.per_flow_rate_cap_bps,
                             config_.per_flow_rate_cap_bps * config_.cap_jitter_frac));
  }
  if (telemetry_) {
    // Parented to the context frame: the flow attempt scoped around
    // provider->start(), whose run the task's flight events belong to.
    task.span = telemetry_->tracer.open("transfer", id);
    telemetry_->metrics
        .counter("transfer_tasks_total", "Transfer tasks by terminal state",
                 {{"state", "submitted"}})
        .inc();
    telemetry_->tracer.note(task.span, util::LogLevel::Info, "transfer-open",
                            engine_->now(),
                            util::Json::object({{"task", id},
                                                {"bytes", total},
                                                {"files",
                                                 task.info.files_total}}));
  }
  tasks_[id] = std::move(task);

  // Task setup latency: auth handshake, endpoint activation, task routing.
  double setup = std::max(
      0.2, rng_.normal(config_.setup_mean_s, config_.setup_jitter_s));
  engine_->schedule_after(sim::Duration::from_seconds(setup), [this, id] {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) return;
    it->second.info.state = TaskState::Active;
    it->second.info.started = engine_->now();
    begin_next_file(id);
  });
  logger().debug("submitted %s: %d files, %lld bytes", id.c_str(),
                 static_cast<int>(request.files.size()),
                 static_cast<long long>(total));
  return R::ok(id);
}

util::Result<TaskId> TransferService::repair(const std::string& dst_endpoint,
                                             const std::string& dst_path,
                                             const auth::Token& token) {
  using R = util::Result<TaskId>;
  auto pit = provenance_.find(dst_endpoint + "|" + dst_path);
  if (pit == provenance_.end()) {
    return R::err(
        "no delivery provenance for " + dst_endpoint + "/" + dst_path,
        "not_found");
  }
  const Provenance prov = pit->second;
  TransferRequest request;
  request.src_endpoint = prov.src_endpoint;
  request.dst_endpoint = dst_endpoint;
  request.files = {{prov.src_path, dst_path}};
  request.codec = prov.codec;
  request.assumed_virtual_ratio = prov.assumed_virtual_ratio;
  request.streaming_chunk_bytes = prov.streaming_chunk_bytes;

  // A repair must actually re-move the bytes: drop the completed chunk
  // manifest so verified-resume cannot shortcut the resend of an object we
  // just quarantined.
  auto src_it = endpoints_.find(prov.src_endpoint);
  if (src_it != endpoints_.end()) {
    auto obj = src_it->second.store->get(prov.src_path);
    if (obj) {
      auto wire = wire_size_for(request, *obj.value());
      if (wire) {
        manifests_.erase(manifest_key_for(request,
                                          {prov.src_path, dst_path},
                                          obj.value()->crc64, wire.value()));
      }
    }
  }
  auto task = submit(request, token);
  if (task) {
    logger().info("repair of %s/%s submitted as %s", dst_endpoint.c_str(),
                  dst_path.c_str(), task.value().c_str());
    if (telemetry_) {
      telemetry_->metrics
          .counter("transfer_repairs_total",
                   "Re-transfers submitted to repair quarantined objects")
          .inc();
    }
  }
  return task;
}

util::Result<int64_t> TransferService::wire_size_for(
    const TransferRequest& request, const storage::Object& obj) const {
  using R = util::Result<int64_t>;
  if (request.codec.empty()) return R::ok(obj.size);
  const auto* codec = compress::CodecRegistry::standard().find(request.codec);
  assert(codec);
  if (obj.has_content()) {
    compress::Bytes framed = compress::encode_frame(*codec, *obj.content);
    return R::ok(static_cast<int64_t>(framed.size()));
  }
  double ratio = std::max(1e-6, request.assumed_virtual_ratio);
  return R::ok(static_cast<int64_t>(static_cast<double>(obj.size) / ratio));
}

std::string TransferService::manifest_key_for(const TransferRequest& request,
                                              const FileSpec& spec,
                                              uint64_t content_crc,
                                              int64_t wire_bytes) const {
  return request.src_endpoint + "|" + spec.src_path + "|" +
         request.dst_endpoint + "|" + spec.dst_path + "|" +
         util::format("%016llx|%lld|%lld",
                      static_cast<unsigned long long>(content_crc),
                      static_cast<long long>(wire_bytes),
                      static_cast<long long>(request.streaming_chunk_bytes));
}

const TransferService::ChunkManifest* TransferService::manifest(
    const TransferRequest& request, const FileSpec& spec) const {
  auto src_it = endpoints_.find(request.src_endpoint);
  if (src_it == endpoints_.end()) return nullptr;
  auto obj = src_it->second.store->get(spec.src_path);
  if (!obj) return nullptr;
  auto wire = wire_size_for(request, *obj.value());
  if (!wire) return nullptr;
  auto it = manifests_.find(
      manifest_key_for(request, spec, obj.value()->crc64, wire.value()));
  return it == manifests_.end() ? nullptr : &it->second;
}

util::Json TransferService::export_manifests() const {
  util::Json out = util::Json::object();
  for (const auto& [key, m] : manifests_) {
    util::Json row = util::Json::object();
    row["wire_bytes"] = m.wire_bytes;
    row["chunk_bytes"] = m.chunk_bytes;
    // CRC-64 values ride as fixed-width hex: Json integers are signed, and a
    // high-bit CRC must round-trip bit-exactly.
    row["content_crc"] = util::format(
        "%016llx", static_cast<unsigned long long>(m.content_crc));
    row["source_created_ns"] = m.source_created.ns;
    util::Json crcs = util::Json::array();
    for (uint64_t c : m.chunk_crc) {
      crcs.push_back(
          util::format("%016llx", static_cast<unsigned long long>(c)));
    }
    row["chunk_crc"] = std::move(crcs);
    util::Json verified = util::Json::array();
    for (size_t i = 0; i < m.verified.size(); ++i) {
      verified.push_back(m.verified[i] ? 1 : 0);
    }
    row["verified"] = std::move(verified);
    out[key] = std::move(row);
  }
  return out;
}

size_t TransferService::import_manifests(const util::Json& doc) {
  if (!doc.is_object()) return 0;
  size_t added = 0;
  for (const auto& [key, row] : doc.as_object()) {
    if (manifests_.count(key)) continue;  // local knowledge wins
    if (!row.is_object()) continue;
    ChunkManifest m;
    m.wire_bytes = row.at("wire_bytes").as_int(0);
    m.chunk_bytes = row.at("chunk_bytes").as_int(0);
    m.content_crc = std::strtoull(
        row.at("content_crc").as_string("0").c_str(), nullptr, 16);
    m.source_created = sim::SimTime{row.at("source_created_ns").as_int(0)};
    for (const auto& c : row.at("chunk_crc").as_array()) {
      m.chunk_crc.push_back(
          std::strtoull(c.as_string("0").c_str(), nullptr, 16));
    }
    const auto& verified = row.at("verified").as_array();
    if (verified.size() != m.chunk_crc.size()) continue;  // malformed row
    for (const auto& v : verified) m.verified.push_back(v.as_int(0) != 0);
    // Claimed bits deliberately start clear: the exporter's in-flight flows
    // died with its site, so every unverified chunk is up for re-claim here.
    m.claimed.assign(m.verified.size(), false);
    manifests_.emplace(key, std::move(m));
    ++added;
  }
  if (added > 0 && telemetry_) {
    telemetry_->metrics
        .counter("transfer_manifests_imported_total",
                 "Chunk manifests adopted from a peer facility's export")
        .inc(static_cast<double>(added));
  }
  return added;
}

void TransferService::attach_manifest(ActiveTask& task, const FileSpec& spec,
                                      uint64_t content_crc,
                                      int64_t wire_bytes,
                                      sim::SimTime source_created) {
  const int64_t chunk_bytes = task.request.streaming_chunk_bytes;
  std::string key =
      manifest_key_for(task.request, spec, content_crc, wire_bytes);
  auto [mit, inserted] = manifests_.try_emplace(key);
  ChunkManifest& m = mit->second;
  if (!inserted && m.source_created != source_created) {
    // Same transfer identity, different source object: the path was
    // re-acquired mid-campaign. Every previously verified chunk belongs to
    // the old bytes, so the manifest restarts from scratch.
    m.verified.assign(m.verified.size(), false);
    m.claimed.assign(m.claimed.size(), false);
    task.resume_credited.erase(key);
    logger().info("manifest for %s invalidated: source re-acquired",
                  spec.src_path.c_str());
    if (telemetry_) {
      telemetry_->metrics
          .counter("transfer_manifests_invalidated_total",
                   "Chunk manifests reset because the source object changed "
                   "between attempts")
          .inc();
      telemetry_->tracer.event(
          task.span, "manifest-invalidated", engine_->now(),
          util::Json::object({{"file", spec.src_path}}));
    }
  }
  m.source_created = source_created;
  if (inserted) {
    m.wire_bytes = wire_bytes;
    m.chunk_bytes = chunk_bytes;
    m.content_crc = content_crc;
    int64_t count =
        chunk_bytes > 0 ? (wire_bytes + chunk_bytes - 1) / chunk_bytes : 0;
    m.chunk_crc.resize(static_cast<size_t>(count));
    m.verified.assign(static_cast<size_t>(count), false);
    m.claimed.assign(static_cast<size_t>(count), false);
    for (int64_t i = 0; i < count; ++i) {
      // The simulation derives each chunk's expected CRC-64 deterministically
      // from the file checksum, because size-only objects carry no bytes to
      // hash; a real deployment hashes the chunk payload. The property that
      // matters is the same either way: a damaged landing cannot reproduce
      // the manifest value.
      m.chunk_crc[static_cast<size_t>(i)] = util::crc64(util::format(
          "%016llx:%lld:%lld", static_cast<unsigned long long>(content_crc),
          static_cast<long long>(i), static_cast<long long>(m.chunk_size(i))));
    }
  }
  task.manifest_key = key;
  int64_t& credited = task.resume_credited[key];
  int64_t resumed = m.verified_count() - credited;
  credited = m.verified_count();
  if (resumed > 0) {
    task.info.chunks_resumed += resumed;
    task.chunk_wire_sent = m.verified_wire();
    if (telemetry_) {
      telemetry_->metrics
          .counter("transfer_chunks_resumed_total",
                   "Chunks skipped on retry because the manifest already "
                   "verified them")
          .inc(static_cast<double>(resumed));
      telemetry_->tracer.event(
          task.span, "chunk-resume", engine_->now(),
          util::Json::object({{"file", spec.src_path},
                              {"chunks", resumed},
                              {"wire_bytes_skipped", m.verified_wire()}}));
    }
    logger().debug("resuming %s from manifest: %lld/%lld chunks verified",
                   spec.src_path.c_str(), static_cast<long long>(resumed),
                   static_cast<long long>(m.chunk_count()));
  }
}

void TransferService::note_corruption(ActiveTask& task, const char* where,
                                      const FileSpec& spec) {
  ++task.info.corruption_detected;
  if (!telemetry_) return;
  telemetry_->metrics
      .counter("corruption_detected_total",
               "Integrity violations detected, by location",
               {{"where", where}})
      .inc();
  telemetry_->tracer.event(
      task.span, "corruption-detected", engine_->now(),
      util::Json::object({{"where", where}, {"file", spec.src_path}}),
      util::LogLevel::Warn);
}

void TransferService::begin_next_file(const TaskId& id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  ActiveTask& task = it->second;
  if (!available_) {
    // Control-plane outage: park the task; set_available(true) resumes it.
    stalled_.push_back(id);
    if (telemetry_) {
      telemetry_->metrics
          .counter("transfer_stalls_total",
                   "Tasks parked by a control-plane outage")
          .inc();
      telemetry_->tracer.event(task.span, "transfer-stalled",
                               engine_->now(),
                               util::Json::object({{"task", id}}),
                               util::LogLevel::Warn);
    }
    logger().debug("%s stalled: service unavailable", id.c_str());
    return;
  }
  if (task.next_file >= task.request.files.size()) {
    // Data movement done: record the activity end now, then settle (checksum
    // verification + status sync) before SUCCEEDED becomes pollable.
    task.info.completed = engine_->now();
    double settle_s =
        config_.settle_base_s +
        config_.settle_per_gb_s * static_cast<double>(task.info.bytes_total) / 1e9;
    engine_->schedule_after(sim::Duration::from_seconds(settle_s),
                            [this, id] { settle(id); });
    return;
  }

  const FileSpec spec = task.request.files[task.next_file];
  const Endpoint& src = endpoints_.at(task.request.src_endpoint);
  const Endpoint& dst = endpoints_.at(task.request.dst_endpoint);

  auto obj = src.store->get(spec.src_path);
  if (!obj) {
    fail_task(id, obj.error().message);
    return;
  }
  auto wire = wire_size_for(task.request, *obj.value());
  if (!wire) {
    fail_task(id, wire.error().message);
    return;
  }
  int64_t wire_bytes = wire.value();
  uint64_t content_crc = obj.value()->crc64;
  sim::SimTime source_created = obj.value()->created;

  // Per-file bookkeeping delay, then the network flow(s).
  int64_t logical_bytes = obj.value()->size;
  engine_->schedule_after(
      sim::Duration::from_seconds(config_.per_file_overhead_s),
      [this, id, spec, wire_bytes, logical_bytes, content_crc,
       source_created] {
        auto it2 = tasks_.find(id);
        if (it2 == tasks_.end()) return;
        if (it2->second.request.streaming_chunk_bytes > 0) {
          // Chunked (cut-through) path: the file moves as consecutive chunk
          // flows. With verified_resume, a per-file manifest records each
          // verified chunk so a retry — or a replacement task for the same
          // file — resumes instead of restarting from the first chunk.
          ActiveTask& t = it2->second;
          t.current_file_bytes = logical_bytes;
          t.current_file_wire_bytes = wire_bytes;
          t.chunk_wire_sent = 0;
          t.current_chunk = -1;
          t.corrupt_streak = 0;
          if (config_.verified_resume) {
            attach_manifest(t, spec, content_crc, wire_bytes, source_created);
          } else {
            t.manifest_key.clear();
          }
          send_next_chunk(id, spec, wire_bytes, logical_bytes);
          return;
        }
        auto flow = network_->start_flow(
            endpoints_.at(it2->second.request.src_endpoint).node,
            endpoints_.at(it2->second.request.dst_endpoint).node, wire_bytes,
            [this, id, spec, wire_bytes](net::FlowId) {
              finish_file(id, spec, wire_bytes);
            },
            it2->second.effective_cap_bps);
        if (!flow) {
          fail_task(id, flow.error().message);
          return;
        }
        it2->second.current_flow = flow.value();
        it2->second.current_file_bytes = logical_bytes;
      });
  (void)dst;
}

void TransferService::send_next_chunk(const TaskId& id, const FileSpec& spec,
                                      int64_t wire_bytes,
                                      int64_t logical_bytes) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  ActiveTask& task = it->second;
  ChunkManifest* m = nullptr;
  if (!task.manifest_key.empty()) {
    auto mit = manifests_.find(task.manifest_key);
    if (mit != manifests_.end()) m = &mit->second;
  }
  int64_t index = -1;
  int64_t chunk = 0;
  if (m) {
    // Pick the first unverified, unclaimed chunk. If every unverified chunk
    // is claimed by another task's in-flight flow, duplicate the first
    // unverified one rather than idling — bounded waste that keeps this task
    // from waiting on a flow it does not own (e.g. one stalled by a link
    // partition).
    int64_t first_unverified = -1;
    for (int64_t i = 0; i < m->chunk_count(); ++i) {
      if (m->verified[static_cast<size_t>(i)]) continue;
      if (first_unverified < 0) first_unverified = i;
      if (!m->claimed[static_cast<size_t>(i)]) {
        index = i;
        break;
      }
    }
    if (index < 0) index = first_unverified;
    if (index < 0) {
      // Every chunk verified: the file is fully landed.
      task.current_flow = 0;
      task.current_chunk = -1;
      finish_file(id, spec, 0);
      return;
    }
    chunk = m->chunk_size(index);
  } else {
    int64_t remaining = wire_bytes - task.chunk_wire_sent;
    if (remaining <= 0) {
      task.current_flow = 0;
      finish_file(id, spec, 0);
      return;
    }
    chunk = std::min(remaining, task.request.streaming_chunk_bytes);
    index = task.chunk_wire_sent /
            std::max<int64_t>(1, task.request.streaming_chunk_bytes);
  }
  auto flow = network_->start_flow(
      endpoints_.at(task.request.src_endpoint).node,
      endpoints_.at(task.request.dst_endpoint).node, chunk,
      [this, id, spec, wire_bytes, logical_bytes, chunk, index](net::FlowId) {
        auto it2 = tasks_.find(id);
        if (it2 == tasks_.end()) return;
        ActiveTask& t = it2->second;
        // A flow severed from its task (the task failed while this chunk
        // drained) must not resurrect it.
        if (t.info.state == TaskState::Failed) return;
        ChunkManifest* m2 = nullptr;
        if (!t.manifest_key.empty()) {
          auto mit2 = manifests_.find(t.manifest_key);
          if (mit2 != manifests_.end()) m2 = &mit2->second;
        }
        t.current_flow = 0;
        t.current_chunk = -1;
        // Every chunk that crossed the wire counts as moved bytes, corrupt
        // or duplicated or not — exactly the waste resume exists to bound.
        t.info.wire_bytes += chunk;
        const bool in_manifest = m2 && index < m2->chunk_count();
        if (in_manifest) m2->claimed[static_cast<size_t>(index)] = false;
        // CRC check at landing: a clean chunk reproduces the manifest CRC-64,
        // a wire bit-flip cannot.
        if (wire_corruption_prob_ > 0 && rng_.chance(wire_corruption_prob_)) {
          note_corruption(t, "wire", spec);
          ++t.corrupt_streak;
          if (t.corrupt_streak > config_.max_retries) {
            fail_task(id, "chunk " + util::format("%lld", static_cast<long long>(index)) +
                              " of " + spec.src_path +
                              " failed CRC verification " +
                              util::format("%d", t.corrupt_streak) +
                              " consecutive times");
            return;
          }
          // Immediate resend: selection re-picks the still-unverified chunk.
          send_next_chunk(id, spec, wire_bytes, logical_bytes);
          return;
        }
        t.corrupt_streak = 0;
        bool fresh = true;
        if (in_manifest) {
          fresh = !m2->verified[static_cast<size_t>(index)];
          m2->verified[static_cast<size_t>(index)] = true;
        }
        if (fresh) t.chunk_wire_sent += chunk;
        if (telemetry_) {
          telemetry_->metrics
              .counter("transfer_chunks_total",
                       "Streaming chunks landed across all chunked tasks")
              .inc();
        }
        if (t.progress_cb) {
          double frac = wire_bytes > 0 ? static_cast<double>(t.chunk_wire_sent) /
                                             static_cast<double>(wire_bytes)
                                       : 1.0;
          t.progress_cb(t.info.bytes_done +
                        static_cast<int64_t>(
                            frac * static_cast<double>(logical_bytes)));
        }
        send_next_chunk(id, spec, wire_bytes, logical_bytes);
      },
      task.effective_cap_bps);
  if (!flow) {
    // A chunked stream that cannot route (mid-transfer link partition) is a
    // transient wire fault: back off and retry the file. With a manifest the
    // retry resumes from the verified chunks, so the partition costs backoff
    // time, not resent bytes.
    ++task.info.faults;
    retry_file(id, spec, "no route: " + flow.error().message);
    return;
  }
  task.current_flow = flow.value();
  task.current_chunk = index;
  if (m) m->claimed[static_cast<size_t>(index)] = true;
}

void TransferService::finish_file(const TaskId& id, const FileSpec& spec,
                                  int64_t wire_delta) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  ActiveTask& task = it->second;
  const bool chunked = task.request.streaming_chunk_bytes > 0;
  task.current_flow = 0;
  task.current_file_bytes = 0;
  task.current_file_wire_bytes = 0;
  task.chunk_wire_sent = 0;
  task.current_chunk = -1;
  task.corrupt_streak = 0;
  task.manifest_key.clear();

  // Wire bit-flip on a classic (single-flow) landing: the whole file arrived
  // with flipped bits and the destination CRC catches it, so the whole file
  // resends. Chunked tasks detect per chunk in send_next_chunk instead and
  // only resend the damaged chunk.
  if (!chunked && wire_corruption_prob_ > 0 &&
      rng_.chance(wire_corruption_prob_)) {
    note_corruption(task, "wire", spec);
    ++task.info.faults;
    retry_file(id, spec, "wire corruption");
    return;
  }

  // Fault injection: the file arrived corrupt / the stream broke. Retry the
  // whole file after a backoff, as Globus does. With verified_resume the
  // manifest survives, so the retry resends only unverified chunks.
  if (config_.fault_prob > 0 && rng_.chance(config_.fault_prob)) {
    ++task.info.faults;
    retry_file(id, spec, "injected fault");
    return;
  }

  const Endpoint& src = endpoints_.at(task.request.src_endpoint);
  const Endpoint& dst = endpoints_.at(task.request.dst_endpoint);
  auto obj = src.store->get(spec.src_path);
  if (!obj) {
    fail_task(id, obj.error().message);
    return;
  }

  // Deliver to the destination store. Real content rides along (and survives
  // a compression round-trip bit-exactly); virtual objects carry size + crc.
  // A codec-less landing shares the source's immutable bytes, and its landing
  // checksum is one crc64 scan over them; a codec round-trip lands fresh
  // bytes whose checksum the decode verify pass produces. Either way one
  // traversal yields the landing CRC that the checks below compare.
  util::Status put = util::Status::ok();
  if (obj.value()->has_content()) {
    storage::SharedBytes landed = obj.value()->content;
    uint64_t landed_crc = 0;
    if (!task.request.codec.empty()) {
      const auto* codec =
          compress::CodecRegistry::standard().find(task.request.codec);
      auto round_trip = compress::decode_frame(
          compress::CodecRegistry::standard(),
          compress::encode_frame(*codec, *landed), &landed_crc);
      if (!round_trip) {
        fail_task(id, "codec round-trip failed: " + round_trip.error().message);
        return;
      }
      landed = std::make_shared<const std::vector<uint8_t>>(
          std::move(round_trip).value());
    } else {
      landed_crc = util::crc64(*landed);
    }
    put = dst.store->put_with_crc(spec.dst_path, std::move(landed),
                                  landed_crc, engine_->now());
    if (put && telemetry_ != nullptr) {
      telemetry_->metrics
          .counter("transfer_crc_fused_total",
                   "Landings verified in a single pass over the landed bytes")
          .inc();
    }
  } else {
    put = dst.store->put_virtual(spec.dst_path, obj.value()->size,
                                 obj.value()->crc64, engine_->now());
  }
  if (!put) {
    fail_task(id, put.error().message);
    return;
  }

  // Truncated-landing fault: some tail bytes never reach the media even
  // though the flow completed. The landing verification below catches it.
  if (truncation_prob_ > 0 && obj.value()->size > 0 &&
      rng_.chance(truncation_prob_)) {
    int64_t lost = std::max<int64_t>(1, obj.value()->size / 8);
    dst.store->truncate(spec.dst_path, obj.value()->size - lost);
  }

  // Integrity verification: the destination copy must both match the source
  // checksum and be intact on media (a truncated landing keeps the declared
  // checksum but cannot reproduce it from the stored bytes).
  auto delivered = dst.store->get(spec.dst_path);
  if (!delivered || delivered.value()->crc64 != obj.value()->crc64) {
    fail_task(id, "checksum mismatch after transfer of " + spec.src_path);
    return;
  }
  if (!delivered.value()->intact()) {
    note_corruption(task, "landing", spec);
    ++task.info.faults;
    retry_file(id, spec, "truncated landing");
    return;
  }

  // Record provenance so the storage scrubber can request a repair
  // re-transfer if this copy later rots at rest.
  provenance_[task.request.dst_endpoint + "|" + spec.dst_path] =
      Provenance{task.request.src_endpoint, spec.src_path, task.request.codec,
                 task.request.assumed_virtual_ratio,
                 task.request.streaming_chunk_bytes};

  task.info.bytes_done += obj.value()->size;
  task.info.wire_bytes += wire_delta;
  task.info.files_done += 1;
  task.next_file += 1;
  task.attempts_this_file = 0;
  begin_next_file(id);
}

bool TransferService::retry_file(const TaskId& id, const FileSpec& spec,
                                 const std::string& reason) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return false;
  ActiveTask& task = it->second;
  ++task.attempts_this_file;
  if (task.attempts_this_file > config_.max_retries) {
    fail_task(id, "file " + spec.src_path + " exceeded retry limit after " +
                      util::format("%d", task.attempts_this_file) +
                      " attempts (" + reason + ")");
    return false;
  }
  double backoff = std::min(
      config_.retry_backoff_cap_s,
      config_.retry_backoff_s *
          std::pow(2.0, static_cast<double>(task.attempts_this_file - 1)));
  backoff *= rng_.uniform(0.5, 1.5);
  if (telemetry_) {
    telemetry_->metrics
        .counter("transfer_retries_total",
                 "File re-transfers after a mid-flight fault or integrity "
                 "failure")
        .inc();
    telemetry_->tracer.event(task.span, "transfer-retry", engine_->now(),
                             util::Json::object({
                                 {"file", spec.src_path},
                                 {"attempt", task.attempts_this_file},
                                 {"backoff_s", backoff},
                                 {"reason", reason},
                             }),
                             util::LogLevel::Warn);
  }
  logger().debug("%s: %s on %s (attempt %d), retrying in %.1fs", id.c_str(),
                 reason.c_str(), spec.src_path.c_str(),
                 task.attempts_this_file, backoff);
  engine_->schedule_after(sim::Duration::from_seconds(backoff),
                          [this, id] { begin_next_file(id); });
  return true;
}

void TransferService::fail_task(const TaskId& id, const std::string& error) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  // Release any manifest claim held by the in-flight chunk, so sibling tasks
  // resuming the same file are not starved by a dead claim.
  if (!it->second.manifest_key.empty() && it->second.current_chunk >= 0) {
    auto mit = manifests_.find(it->second.manifest_key);
    if (mit != manifests_.end() &&
        it->second.current_chunk < mit->second.chunk_count()) {
      mit->second.claimed[static_cast<size_t>(it->second.current_chunk)] =
          false;
    }
  }
  it->second.info.state = TaskState::Failed;
  it->second.info.error = error;
  it->second.info.completed = engine_->now();
  logger().warn("%s failed: %s", id.c_str(), error.c_str());
  if (telemetry_) {
    telemetry_->tracer.note(it->second.span, util::LogLevel::Error,
                            "transfer-failed", engine_->now(),
                            util::Json::object({{"task", id}, {"error", error}}));
    telemetry_->tracer.close(it->second.span, "failed",
                             it->second.info.submitted, engine_->now(),
                             util::Json::object({{"error", error}}));
    it->second.span = 0;
    telemetry_->metrics
        .counter("transfer_tasks_total", "Transfer tasks by terminal state",
                 {{"state", "failed"}})
        .inc();
  }
  if (it->second.settled_cb) it->second.settled_cb(it->second.info);
}

void TransferService::settle(const TaskId& id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  it->second.info.state = TaskState::Succeeded;
  // info.completed was stamped when the last byte landed (activity end).
  if (telemetry_) {
    const TaskInfo& info = it->second.info;
    telemetry_->tracer.close(
        it->second.span, "active", info.submitted, engine_->now(),
        util::Json::object({{"bytes", info.bytes_total},
                            {"wire_bytes", info.wire_bytes},
                            {"files", info.files_total}}));
    it->second.span = 0;
    telemetry_->metrics
        .counter("transfer_tasks_total", "Transfer tasks by terminal state",
                 {{"state", "succeeded"}})
        .inc();
    telemetry_->metrics
        .counter("transfer_bytes_total",
                 "Logical bytes delivered by settled transfer tasks")
        .inc(static_cast<double>(info.bytes_total));
    telemetry_->metrics
        .counter("transfer_wire_bytes_total",
                 "Bytes that crossed the network (after compression)")
        .inc(static_cast<double>(info.wire_bytes));
    telemetry_->metrics
        .histogram("transfer_task_bytes", "Logical bytes per settled task", {},
                   telemetry::FixedHistogram::byte_buckets())
        .observe(static_cast<double>(info.bytes_total));
  }
  logger().debug("%s succeeded (%lld bytes)", id.c_str(),
                 static_cast<long long>(it->second.info.bytes_total));
  if (it->second.settled_cb) it->second.settled_cb(it->second.info);
}

TaskInfo TransferService::status(const TaskId& id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    TaskInfo info;
    info.state = TaskState::Failed;
    info.error = "unknown task";
    return info;
  }
  TaskInfo info = it->second.info;
  // Live in-flight progress, as the real service exposes bytes_transferred
  // while a task runs (clients observe it changing between polls).
  if (it->second.current_flow != 0) {
    net::FlowStatus fs = network_->status(it->second.current_flow);
    if (it->second.request.streaming_chunk_bytes > 0) {
      // Chunked task: landed chunks plus the live chunk's in-flight bytes,
      // scaled from wire to logical size.
      double landed_wire =
          static_cast<double>(it->second.chunk_wire_sent) +
          (fs.active ? static_cast<double>(fs.transferred_bytes) : 0.0);
      if (it->second.current_file_wire_bytes > 0) {
        double frac =
            landed_wire /
            static_cast<double>(it->second.current_file_wire_bytes);
        info.bytes_done += static_cast<int64_t>(
            frac * static_cast<double>(it->second.current_file_bytes));
      }
    } else if (fs.active && fs.total_bytes > 0) {
      double frac = static_cast<double>(fs.transferred_bytes) /
                    static_cast<double>(fs.total_bytes);
      info.bytes_done += static_cast<int64_t>(
          frac * static_cast<double>(it->second.current_file_bytes));
    }
  }
  return info;
}

void TransferService::set_available(bool available) {
  if (available_ == available) return;
  available_ = available;
  logger().info("transfer service %s", available ? "restored" : "unavailable");
  if (!available_) return;
  std::vector<TaskId> resume;
  resume.swap(stalled_);
  for (const TaskId& id : resume) {
    engine_->schedule_after(sim::Duration::zero(),
                            [this, id] { begin_next_file(id); });
  }
}

bool TransferService::on_progress(const TaskId& id,
                                  std::function<void(int64_t)> cb) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return false;
  if (it->second.request.streaming_chunk_bytes <= 0) return false;
  it->second.progress_cb = std::move(cb);
  return true;
}

void TransferService::on_settled(const TaskId& id,
                                 std::function<void(const TaskInfo&)> cb) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  if (it->second.info.state == TaskState::Succeeded ||
      it->second.info.state == TaskState::Failed) {
    cb(it->second.info);
  } else {
    it->second.settled_cb = std::move(cb);
  }
}

}  // namespace pico::transfer
