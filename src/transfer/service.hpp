#pragma once
// Globus-Transfer-like service: moves files between registered endpoints over
// the simulated network, with authentication, task setup latency, optional
// per-file compression, integrity verification, fault injection, and
// automatic retries. Clients poll task status — exactly the interaction the
// paper's flow orchestrator has with the real Transfer service.
//
// Integrity layer (DESIGN.md Sec. 9): every streaming chunk carries a CRC-64
// and lands in a per-file chunk manifest that outlives the task, so a retry —
// whether the same task after a mid-flight fault or a brand-new task after a
// flow-level timeout — resumes from the last verified chunk instead of
// resending the whole file. Wire bit-flips and truncated landings are
// detected by the same checksums and surface as retries, and every
// successful delivery records provenance so the storage scrubber can request
// a repair re-transfer of a corrupt destination object.
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "compress/codec.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "storage/store.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace pico::transfer {

using TaskId = std::string;

enum class TaskState { Pending, Active, Succeeded, Failed };

std::string task_state_name(TaskState s);

/// One file to move: source path at the source endpoint, destination path at
/// the destination endpoint.
struct FileSpec {
  std::string src_path;
  std::string dst_path;
};

struct TransferRequest {
  std::string src_endpoint;
  std::string dst_endpoint;
  std::vector<FileSpec> files;
  /// Optional codec name ("rle", "lz", ...); empty = no compression. Applied
  /// per file before the bytes enter the network (A3 ablation).
  std::string codec;
  /// Compression ratio assumed for size-only (virtual) objects when a codec
  /// is set; real-content objects are compressed for real.
  double assumed_virtual_ratio = 1.0;
  /// Cut-through streaming: move each file as consecutive chunk flows of
  /// this many wire bytes, firing on_progress() observers as each chunk
  /// lands, so a downstream consumer can start before the file completes.
  /// 0 (default) keeps the classic single-flow-per-file behaviour. Non-zero
  /// values are clamped at submit() to [1, largest source file size].
  int64_t streaming_chunk_bytes = 0;
};

struct TaskInfo {
  TaskState state = TaskState::Pending;
  int64_t bytes_total = 0;      ///< logical (uncompressed) bytes
  int64_t bytes_done = 0;       ///< completed files + live in-flight progress
  int64_t wire_bytes = 0;       ///< bytes that crossed the network
  int files_total = 0;
  int files_done = 0;
  int faults = 0;               ///< injected faults survived via retry
  int64_t chunks_resumed = 0;   ///< chunks skipped via a verified manifest
  int corruption_detected = 0;  ///< wire/landing integrity failures caught
  std::string error;
  sim::SimTime submitted, started, completed;
};

/// Knobs calibrated against the paper's environment (DESIGN.md Sec. 5).
struct TransferConfig {
  /// Cloud-service task setup: auth handshake + endpoint activation + task
  /// routing, charged once per task before any byte moves.
  double setup_mean_s = 4.0;
  double setup_jitter_s = 1.0;     ///< lognormal-ish spread around the mean
  /// Per-file bookkeeping (directory creation, checksum start/stop).
  double per_file_overhead_s = 0.8;
  /// Probability a file transfer faults mid-flight and restarts.
  double fault_prob = 0.0;
  int max_retries = 3;
  /// Base delay before a faulted file restarts. Attempt k waits
  /// min(cap, base * 2^(k-1)) * U(0.5, 1.5) — exponential with jitter, so
  /// concurrent faulted tasks do not retry in lockstep.
  double retry_backoff_s = 2.0;
  double retry_backoff_cap_s = 60.0;
  /// Per-flow end-host rate cap (bits/s); 0 = line rate. Models the
  /// single-stream TCP + source-disk ceiling of the user workstation that
  /// keeps observed Globus throughput well under the 1 Gbps switch.
  double per_flow_rate_cap_bps = 0;
  /// Run-to-run throughput variability: each task's effective cap is drawn
  /// from cap * N(1, cap_jitter_frac).
  double cap_jitter_frac = 0.08;
  /// Settling: after the last byte lands, the destination verifies checksums
  /// and the cloud service syncs task state before SUCCEEDED becomes visible
  /// to pollers. The service's reported activity interval covers the data
  /// movement only, so settling surfaces as orchestration overhead.
  double settle_base_s = 0.2;
  double settle_per_gb_s = 9.0;  ///< ~110 MB/s destination checksum rate
  /// Verified resumable streaming (chunked mode only): each chunk's CRC-64
  /// lands in a per-file manifest keyed by the full transfer identity, and a
  /// retry resumes from the last verified chunk. false = the pre-manifest
  /// whole-file restart (kept for the A9 ablation).
  bool verified_resume = true;
};

class TransferService {
 public:
  /// Per-file chunk manifest for verified resumable streaming. Keyed by the
  /// full transfer identity (route, paths, declared CRC, wire size, chunk
  /// size), so any task moving the same file — including a new task submitted
  /// after a flow-level timeout abandoned its predecessor — consults the same
  /// manifest and never resends a verified chunk.
  struct ChunkManifest {
    int64_t wire_bytes = 0;
    int64_t chunk_bytes = 0;
    uint64_t content_crc = 0;
    /// Creation stamp of the source object the manifest was built against.
    /// A mid-campaign re-acquisition can rewrite the same path with the same
    /// size and declared CRC; the fresh stamp invalidates the manifest so
    /// verified-resume cannot skip bytes that were never moved.
    sim::SimTime source_created;
    std::vector<uint64_t> chunk_crc;  ///< expected CRC-64 per chunk
    std::vector<bool> verified;       ///< chunk landed with a matching CRC
    std::vector<bool> claimed;        ///< chunk has an in-flight network flow

    int64_t chunk_count() const {
      return static_cast<int64_t>(verified.size());
    }
    int64_t verified_count() const;
    int64_t verified_wire() const;
    bool complete() const { return verified_count() == chunk_count(); }
    int64_t chunk_size(int64_t index) const;
  };

  TransferService(sim::Engine* engine, net::Network* network,
                  auth::AuthService* auth, TransferConfig config,
                  uint64_t seed = 0x7A4Full);

  /// Register an endpoint: a network node with an attached store.
  void register_endpoint(const std::string& name, net::NodeId node,
                         storage::Store* store);

  /// Attach facility telemetry: task spans join the causal tree (parented to
  /// the flow attempt that submitted them via tracer context), injected
  /// faults/stalls become span events, and transfer_* metrics are maintained.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Submit a transfer. Requires a token with scope "transfer".
  util::Result<TaskId> submit(const TransferRequest& request,
                              const auth::Token& token);

  /// Provenance-driven repair: resubmit a single-file transfer that re-lands
  /// a previously delivered destination object (the storage scrubber calls
  /// this after quarantining a corrupt copy). Fails when this service never
  /// delivered the object.
  util::Result<TaskId> repair(const std::string& dst_endpoint,
                              const std::string& dst_path,
                              const auth::Token& token);

  /// Poll task status (the flow engine's only view of progress).
  TaskInfo status(const TaskId& id) const;

  /// Completion hook (fired in virtual time when the task settles). Used by
  /// tests; the flow engine polls instead, as the real service requires.
  void on_settled(const TaskId& id, std::function<void(const TaskInfo&)> cb);

  /// Byte-progress hook for chunked (streaming) tasks: fired after each
  /// chunk lands with the cumulative *logical* bytes delivered so far.
  /// Returns false when the task is unknown or was not submitted with
  /// streaming_chunk_bytes > 0.
  bool on_progress(const TaskId& id, std::function<void(int64_t)> cb);

  size_t endpoint_count() const { return endpoints_.size(); }

  /// Fault injection: while unavailable, submit() is rejected with code
  /// "unavailable" and in-flight tasks stall between files (the current
  /// network flow, if any, drains normally — mirroring a cloud-service
  /// control-plane outage that leaves the data plane running). Restoring
  /// availability resumes every stalled task.
  void set_available(bool available);
  bool available() const { return available_; }

  /// Wire bit-flip fault model (fault::FaultKind::WireBitFlip): probability
  /// that a landed chunk (chunked mode) or whole file (classic mode) arrives
  /// with flipped bits. The per-chunk CRC-64 always catches it; the cost is
  /// the resend plus backoff.
  void set_wire_corruption_prob(double p) { wire_corruption_prob_ = p; }
  double wire_corruption_prob() const { return wire_corruption_prob_; }

  /// Truncated-landing fault model: probability a delivered file lands short
  /// at the destination store; landing verification catches it and the file
  /// retries (cheaply, when a manifest already verified every chunk).
  void set_truncation_prob(double p) { truncation_prob_ = p; }
  double truncation_prob() const { return truncation_prob_; }

  /// Toggle verified resumable streaming at runtime (the A9 ablation flips a
  /// live facility to pre-manifest whole-file-restart behaviour).
  void set_verified_resume(bool on) { config_.verified_resume = on; }
  bool verified_resume() const { return config_.verified_resume; }

  /// Manifest lookup for tests/diagnostics; nullptr when none exists for
  /// this (request, file) identity.
  const ChunkManifest* manifest(const TransferRequest& request,
                                const FileSpec& spec) const;
  size_t manifest_count() const { return manifests_.size(); }

  /// Federation manifest mirror: serialize every chunk manifest (keyed by the
  /// full transfer identity — endpoints, paths, content CRC, wire size, chunk
  /// size) so a peer facility can import them and resume a failed-over
  /// transfer from the verified chunks instead of restarting. Endpoint names
  /// are facility constants, so identities match across replicated sites.
  util::Json export_manifests() const;
  /// Merge a peer's exported manifests. `claimed` bits are dropped (the
  /// peer's in-flight network flows did not move with the checkpoint);
  /// `verified` chunks are trusted — they were CRC-checked at landing, and a
  /// mismatched source re-acquisition still invalidates via source_created.
  /// Existing local manifests win over imports. Returns manifests added.
  size_t import_manifests(const util::Json& doc);

 private:
  struct Endpoint {
    net::NodeId node;
    storage::Store* store;
  };
  struct ActiveTask {
    TransferRequest request;
    TaskInfo info;
    size_t next_file = 0;
    int attempts_this_file = 0;
    double effective_cap_bps = 0;
    net::FlowId current_flow = 0;    ///< active network flow, 0 = none
    int64_t current_file_bytes = 0;  ///< logical size of the in-flight file
    /// Chunked (streaming) bookkeeping for the in-flight file.
    int64_t current_file_wire_bytes = 0;
    int64_t chunk_wire_sent = 0;     ///< wire bytes of fully-landed chunks
    int64_t current_chunk = -1;      ///< manifest chunk in flight (-1 = none)
    int corrupt_streak = 0;          ///< consecutive corrupt chunk landings
    std::string manifest_key;        ///< manifest of the in-flight file
    /// Verified chunks already credited as "resumed" per manifest, so a
    /// within-task retry only counts chunks newly verified since its last
    /// attach (including its own earlier landings) — never the same chunk
    /// twice.
    std::map<std::string, int64_t> resume_credited;
    std::function<void(int64_t)> progress_cb;
    std::function<void(const TaskInfo&)> settled_cb;
    /// Open telemetry span (0 = none). It inherits the owning flow run as
    /// its flight subject, so retries and corruption hits land in that
    /// run's ring.
    uint64_t span = 0;
  };
  /// How a delivered destination object was produced — enough to resubmit an
  /// equivalent single-file transfer when the scrubber quarantines the copy.
  struct Provenance {
    std::string src_endpoint;
    std::string src_path;
    std::string codec;
    double assumed_virtual_ratio = 1.0;
    int64_t streaming_chunk_bytes = 0;
  };

  void begin_next_file(const TaskId& id);
  /// Chunked path: send the next unverified chunk of the in-flight file as
  /// its own network flow, firing progress_cb per landed chunk.
  void send_next_chunk(const TaskId& id, const FileSpec& spec,
                       int64_t wire_bytes, int64_t logical_bytes);
  void finish_file(const TaskId& id, const FileSpec& spec, int64_t wire_delta);
  /// Shared retry path for mid-flight faults, wire corruption, truncated
  /// landings, and routeless chunk streams: burn one attempt, back off
  /// exponentially, re-enter begin_next_file. Returns false when the retry
  /// budget is exhausted (the task was failed).
  bool retry_file(const TaskId& id, const FileSpec& spec,
                  const std::string& reason);
  void fail_task(const TaskId& id, const std::string& error);
  void settle(const TaskId& id);
  /// Wire size of a file after optional compression; also yields the bytes
  /// to store at the destination.
  util::Result<int64_t> wire_size_for(const TransferRequest& request,
                                      const storage::Object& obj) const;
  std::string manifest_key_for(const TransferRequest& request,
                               const FileSpec& spec, uint64_t content_crc,
                               int64_t wire_bytes) const;
  /// Find-or-create the chunk manifest for the in-flight file, attach it to
  /// the task, and credit already-verified chunks as resumed. A manifest
  /// whose recorded source identity no longer matches `source_created` (the
  /// path was re-acquired between attempts) is reset before resuming.
  void attach_manifest(ActiveTask& task, const FileSpec& spec,
                       uint64_t content_crc, int64_t wire_bytes,
                       sim::SimTime source_created);
  void note_corruption(ActiveTask& task, const char* where,
                       const FileSpec& spec);

  sim::Engine* engine_;
  net::Network* network_;
  auth::AuthService* auth_;
  TransferConfig config_;
  util::Rng rng_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::map<std::string, Endpoint> endpoints_;
  std::map<TaskId, ActiveTask> tasks_;
  /// Chunk manifests keyed by transfer identity; they outlive tasks so
  /// timeout-spawned replacement tasks resume instead of restarting.
  std::map<std::string, ChunkManifest> manifests_;
  /// Delivery provenance keyed "dst_endpoint|dst_path", for repair().
  std::map<std::string, Provenance> provenance_;
  uint64_t next_task_ = 1;
  bool available_ = true;
  double wire_corruption_prob_ = 0;
  double truncation_prob_ = 0;
  std::vector<TaskId> stalled_;  ///< tasks parked while unavailable
};

}  // namespace pico::transfer
