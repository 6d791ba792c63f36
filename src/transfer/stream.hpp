#pragma once
// Direct detector→compute frame streaming (DESIGN.md §13). The paper's
// pipeline lands every detector byte on Eagle before compute touches it;
// this service bypasses the landing store: an acquisition file is cut into
// sequence-numbered, CRC-64-stamped frames (instrument::FrameSource) and
// streamed over the facility network straight into compute-node memory
// through a bounded pub/sub ring (net::FrameChannel) with credit-based
// backpressure from the consumer.
//
// Robustness is the headline — a three-rung degradation ladder keeps frame
// chaos from corrupting science:
//   1. in-window retransmit: a gap at the consumer (dropped or reordered
//      frame) is NACKed after `nack_timeout_s` and resent from the producer
//      ring, riding the original credit;
//   2. spill-to-store: frames evicted from the ring before the consumer
//      could take them (live detector cadence + slow/stalled consumer) are
//      coalesced into contiguous segments and diverted through the existing
//      verified chunked-transfer landing path; when the segment settles on
//      the landing store a backfill flow moves it to the node and the
//      channel marks the range satisfied, closing the gap;
//   3. whole-flow fallback: when retransmits exhaust their budget, a spill
//      fails, the spill-segment budget is blown, or a consumer stall outlasts
//      `stall_fallback_s`, the session abandons the channel and re-routes the
//      entire file through the classic store-mediated transfer path.
// Every rung is visible in telemetry (frames_dropped_total,
// frames_retransmitted_total, stream_spills_total, stream_fallbacks_total,
// stream_degraded_seconds) and sessions report which mode delivered the
// science: "direct", "degraded" (direct with retransmits/spills), or
// "fallback".
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "instrument/frame_source.hpp"
#include "net/frame_channel.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "storage/store.hpp"
#include "telemetry/telemetry.hpp"
#include "transfer/service.hpp"
#include "util/rng.hpp"

namespace pico::transfer {

using SessionId = std::string;

enum class SessionState { Pending, Active, Succeeded, Failed };

std::string session_state_name(SessionState s);

struct StreamRequest {
  std::string src_path;  ///< acquisition file on the detector-side store
  std::string dst_path;  ///< object name materialized in node memory
};

struct SessionInfo {
  SessionState state = SessionState::Pending;
  int64_t bytes_total = 0;
  int64_t bytes_delivered = 0;  ///< logical bytes past the consumer cursor
  int64_t frames_total = 0;
  int64_t frames_sent = 0;
  int64_t retransmits = 0;
  int64_t spills = 0;          ///< spill segments diverted to the store path
  int64_t spilled_bytes = 0;
  bool fallback = false;
  /// "direct" (clean), "degraded" (retransmits/spills), or "fallback".
  std::string mode = "direct";
  std::string error;
  sim::SimTime submitted, started, completed;
};

struct StreamConfig {
  int64_t frame_bytes = 8'000'000;
  net::FrameChannelConfig channel;
  /// Detector emission rate. 0 = backpressure-paced replay (frames publish
  /// exactly when the channel can take them — a staged file has no deadline).
  /// > 0 = live cadence: the detector publishes on schedule no matter what,
  /// so a slow or stalled consumer overflows the ring and forces spills.
  double detector_rate_bps = 0;
  /// Session establishment: endpoint handshake + node-memory registration.
  /// Much cheaper than a cloud transfer-task setup — no task routing.
  double setup_s = 0.5;
  /// Gap age before the consumer NACKs and the producer retransmits.
  double nack_timeout_s = 1.0;
  /// Extra flight time a chaos-reordered frame spends in the weeds.
  double reorder_hold_s = 0.5;
  /// Retransmits allowed per frame before the session falls back.
  int max_retransmits = 8;
  /// Spill segments allowed before the session falls back entirely.
  int max_spill_segments = 4;
  /// Open spill segment flushes once it reaches this many frames.
  int spill_flush_frames = 16;
  /// Consumer stall longer than this forces whole-flow fallback.
  double stall_fallback_s = 30.0;
  /// Chunk size for spill/fallback transfers (verified resumable path).
  int64_t spill_chunk_bytes = 8'000'000;
  /// Max concurrent in-flight frame flows per session.
  int wire_pipeline = 4;
};

class StreamService {
 public:
  /// Everything the degradation ladder needs to reach around the channel:
  /// the detector-side store/node, the compute node and its memory store,
  /// and the landing-store route (endpoints of the TransferService) used by
  /// spill and fallback.
  struct Wiring {
    net::NodeId src_node = 0;
    storage::Store* src_store = nullptr;  ///< staged acquisition files
    net::NodeId dst_node = 0;
    storage::Store* dst_store = nullptr;  ///< compute-node memory
    net::NodeId store_node = 0;           ///< landing store's network node
    std::string src_endpoint;             ///< TransferService endpoint names
    std::string store_endpoint;
  };

  StreamService(sim::Engine* engine, net::Network* network,
                auth::AuthService* auth, TransferService* transfer,
                StreamConfig config, Wiring wiring, uint64_t seed = 0x57A3ull);

  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Open a streaming session. Requires a token with scope "transfer" (the
  /// stream rides the same data-movement authority as the store path).
  util::Result<SessionId> submit(const StreamRequest& request,
                                 const auth::Token& token);

  SessionInfo status(const SessionId& id) const;

  void on_settled(const SessionId& id,
                  std::function<void(const SessionInfo&)> cb);
  /// Byte-progress hook: fired whenever the consumer cursor advances, with
  /// cumulative logical bytes delivered.
  bool on_progress(const SessionId& id, std::function<void(int64_t)> cb);

  // --- frame chaos surface (fault::FaultKind windows) ----------------------
  void set_frame_drop_prob(double p) { frame_drop_prob_ = p; }
  double frame_drop_prob() const { return frame_drop_prob_; }
  void set_frame_reorder_prob(double p) { frame_reorder_prob_ = p; }
  double frame_reorder_prob() const { return frame_reorder_prob_; }
  void set_frame_duplicate_prob(double p) { frame_duplicate_prob_ = p; }
  double frame_duplicate_prob() const { return frame_duplicate_prob_; }
  /// Consumer stall: frames queue at the consumer without being consumed, so
  /// credits stay held and the producer backpressures (paced mode) or
  /// overflows the ring into spills (live mode). A stall outlasting
  /// `stall_fallback_s` forces whole-flow fallback.
  void set_consumer_stall(bool stalled);
  bool consumer_stalled() const { return stalled_; }

  size_t session_count() const { return sessions_.size(); }
  const StreamConfig& config() const { return config_; }

 private:
  struct Session {
    StreamRequest request;
    auth::Token token;
    SessionInfo info;
    std::unique_ptr<instrument::FrameSource> source;
    std::unique_ptr<net::FrameChannel> channel;
    int sub = 0;                   ///< the single consumer's subscriber id
    int64_t next_publish = 0;      ///< next seq the detector emits
    int64_t next_send = 0;         ///< next seq the producer ships
    int inflight = 0;              ///< frame flows on the wire
    std::map<int64_t, int> retransmit_counts;
    std::set<int64_t> spilled;     ///< seqs routed (or routing) via the store
    int64_t seg_first = -1, seg_last = -1;  ///< open spill segment
    int spill_segments = 0;
    int spills_inflight = 0;
    std::deque<net::Frame> stall_queue;  ///< arrivals parked during a stall
    std::vector<std::pair<int64_t, int64_t>> pending_satisfy;
    int64_t watch_cursor = -1;     ///< consumer cursor at last watchdog tick
    sim::EventHandle cadence;      ///< live-mode publish tick
    sim::EventHandle watchdog;
    bool first_degraded_set = false;
    sim::SimTime first_degraded;
    std::function<void(int64_t)> progress_cb;
    std::function<void(const SessionInfo&)> settled_cb;
    /// Open telemetry span (0 = none). It inherits the owning flow run as
    /// its flight subject, so frame NACKs/spills landing seconds later still
    /// reach that run's ring.
    uint64_t span = 0;
  };

  void activate(const SessionId& id);
  /// Paced-mode pump: publish+send frames while credits and the wire
  /// pipeline allow. Live mode only ships already-published frames here.
  void pump(const SessionId& id);
  void publish_tick(const SessionId& id);  ///< live-mode detector cadence
  /// Emit the next frame onto the session's channel. When the staged source
  /// object carries real bytes, the frame slice is published through the
  /// zero-copy pooled-payload path (CRC fused into the landing copy);
  /// otherwise the metadata-only overload is used. Advances next_publish and
  /// returns evicted frames the spill path must absorb.
  std::vector<net::Frame> publish_next(Session& s);
  void send_frame(const SessionId& id, const net::Frame& f, bool retransmit);
  void arrival(const SessionId& id, const net::Frame& f);
  void deliver_frame(const SessionId& id, const net::Frame& f);
  /// Consumer cursor bookkeeping after any delivery/satisfy: progress
  /// callback, completion check.
  void after_progress(const SessionId& id);
  void watchdog_tick(const SessionId& id);
  /// Route evicted frames into the open spill segment (flushing as needed).
  void absorb_spill(const SessionId& id, const std::vector<net::Frame>& ev);
  void flush_spill(const SessionId& id);
  void apply_satisfy(const SessionId& id, int64_t first, int64_t last);
  void trigger_fallback(const SessionId& id, const std::string& reason);
  void mark_degraded(Session& s);
  void complete(const SessionId& id);
  void fail(const SessionId& id, const std::string& error);
  void finish(const SessionId& id, SessionState state);
  bool finished(const Session& s) const {
    return s.info.state == SessionState::Succeeded ||
           s.info.state == SessionState::Failed;
  }
  telemetry::Counter* counter(const std::string& name, const std::string& help,
                              const telemetry::Labels& labels = {});

  sim::Engine* engine_;
  net::Network* network_;
  auth::AuthService* auth_;
  TransferService* transfer_;
  StreamConfig config_;
  Wiring wiring_;
  util::Rng rng_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::map<SessionId, Session> sessions_;
  uint64_t next_session_ = 1;
  int64_t next_spill_file_ = 1;
  double frame_drop_prob_ = 0;
  double frame_reorder_prob_ = 0;
  double frame_duplicate_prob_ = 0;
  bool stalled_ = false;
};

}  // namespace pico::transfer
