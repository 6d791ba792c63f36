#include "transfer/stream.hpp"

#include <algorithm>
#include <cassert>

#include "util/crc64.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pico::transfer {
namespace {

util::Logger& logger() {
  static util::Logger kLogger("stream");
  return kLogger;
}

}  // namespace

std::string session_state_name(SessionState s) {
  switch (s) {
    case SessionState::Pending: return "PENDING";
    case SessionState::Active: return "ACTIVE";
    case SessionState::Succeeded: return "SUCCEEDED";
    case SessionState::Failed: return "FAILED";
  }
  return "?";
}

StreamService::StreamService(sim::Engine* engine, net::Network* network,
                             auth::AuthService* auth,
                             TransferService* transfer, StreamConfig config,
                             Wiring wiring, uint64_t seed)
    : engine_(engine),
      network_(network),
      auth_(auth),
      transfer_(transfer),
      config_(config),
      wiring_(std::move(wiring)),
      rng_(seed) {}

telemetry::Counter* StreamService::counter(const std::string& name,
                                           const std::string& help,
                                           const telemetry::Labels& labels) {
  if (!telemetry_) return nullptr;
  return &telemetry_->metrics.counter(name, help, labels);
}

util::Result<SessionId> StreamService::submit(const StreamRequest& request,
                                              const auth::Token& token) {
  using R = util::Result<SessionId>;
  auto who = auth_->validate(token, "transfer");
  if (!who) return R::err(who.error());
  if (!wiring_.src_store || !wiring_.dst_store) {
    return R::err("stream service not wired to stores", "invalid");
  }
  auto obj = wiring_.src_store->get(request.src_path);
  if (!obj) return R::err(obj.error());

  SessionId id = util::format(
      "stream-%06llu", static_cast<unsigned long long>(next_session_++));
  Session s;
  s.request = request;
  s.token = token;
  s.source = std::make_unique<instrument::FrameSource>(
      obj.value()->size, config_.frame_bytes, obj.value()->crc64);
  s.channel = std::make_unique<net::FrameChannel>(config_.channel);
  s.sub = s.channel->subscribe();
  s.info.bytes_total = obj.value()->size;
  s.info.frames_total = s.source->frame_count();
  s.info.submitted = engine_->now();
  if (telemetry_) {
    s.span = telemetry_->tracer.open("stream", id);
    telemetry_->metrics
        .counter("stream_sessions_total", "Streaming sessions by state",
                 {{"state", "submitted"}})
        .inc();
    telemetry_->tracer.note(s.span, util::LogLevel::Info, "stream-open",
                            engine_->now(),
                            util::Json::object({
                                {"session", id},
                                {"bytes", s.info.bytes_total},
                                {"frames", s.info.frames_total},
                            }));
  }
  sessions_[id] = std::move(s);

  engine_->schedule_after(sim::Duration::from_seconds(config_.setup_s),
                          [this, id] { activate(id); });
  logger().debug("submitted %s: %s -> node memory, %lld bytes, %lld frames",
                 id.c_str(), request.src_path.c_str(),
                 static_cast<long long>(obj.value()->size),
                 static_cast<long long>(sessions_[id].source->frame_count()));
  return R::ok(id);
}

void StreamService::activate(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  s.info.state = SessionState::Active;
  s.info.started = engine_->now();
  s.watch_cursor = 0;
  s.watchdog = engine_->schedule_after(
      sim::Duration::from_seconds(config_.nack_timeout_s),
      [this, id] { watchdog_tick(id); });
  if (stalled_ && config_.stall_fallback_s > 0) {
    engine_->schedule_after(
        sim::Duration::from_seconds(config_.stall_fallback_s), [this, id] {
          auto sit = sessions_.find(id);
          if (sit == sessions_.end() || finished(sit->second)) return;
          if (stalled_ && !sit->second.info.fallback) {
            trigger_fallback(id, "consumer stalled at session start");
          }
        });
  }
  if (s.source->frame_count() == 0) {
    complete(id);
    return;
  }
  if (config_.detector_rate_bps > 0) {
    publish_tick(id);
  } else {
    pump(id);
  }
}

std::vector<net::Frame> StreamService::publish_next(Session& s) {
  const instrument::FrameSpec spec = s.source->frame(s.next_publish);
  const int64_t off = s.source->offset(spec.index);
  ++s.next_publish;
  auto obj = wiring_.src_store->get(s.request.src_path);
  if (obj && obj.value()->has_content() &&
      off + spec.bytes <=
          static_cast<int64_t>(obj.value()->content->size())) {
    // Real staged bytes: land the slice into a pooled buffer with the CRC-64
    // stamp fused into the copy; every copy of the frame (ring, reorder
    // buffers, spill) then shares that one lease.
    if (auto* c = counter("stream_payload_frames_total",
                          "Frames published with pooled zero-copy payloads",
                          {})) {
      c->inc();
    }
    return s.channel->publish(std::span<const uint8_t>(
        obj.value()->content->data() + off, static_cast<size_t>(spec.bytes)));
  }
  return s.channel->publish(spec.bytes, spec.crc64);
}

void StreamService::publish_tick(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback || s.next_publish >= s.source->frame_count()) return;

  std::vector<net::Frame> evicted = publish_next(s);
  absorb_spill(id, evicted);
  if (sessions_.find(id) == sessions_.end() || finished(it->second) ||
      it->second.info.fallback) {
    return;  // spill absorption may have escalated to fallback
  }
  pump(id);
  if (it->second.next_publish < it->second.source->frame_count()) {
    double interval =
        static_cast<double>(config_.frame_bytes) * 8.0 /
        config_.detector_rate_bps;
    it->second.cadence = engine_->schedule_after(
        sim::Duration::from_seconds(interval),
        [this, id] { publish_tick(id); });
  } else if (it->second.seg_first >= 0) {
    // The detector is done; the open spill segment can no longer grow.
    flush_spill(id);
  }
}

void StreamService::pump(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback || s.info.state != SessionState::Active) return;
  const bool live = config_.detector_rate_bps > 0;
  const int64_t count = s.source->frame_count();

  while (s.inflight < config_.wire_pipeline) {
    while (s.next_send < count && s.spilled.count(s.next_send)) {
      ++s.next_send;  // the store path owns this frame
    }
    if (s.next_send >= count) break;
    if (!live && s.next_send >= s.next_publish) {
      // Paced replay: the detector emits exactly when the wire can take the
      // frame, so publish on demand.
      std::vector<net::Frame> evicted = publish_next(s);
      absorb_spill(id, evicted);
      if (sessions_.find(id) == sessions_.end() || finished(s) ||
          s.info.fallback) {
        return;
      }
      continue;  // re-check spill set: the new frame may have evicted ours
    }
    if (s.next_send >= s.next_publish) break;  // live mode: nothing new yet
    std::optional<net::Frame> f = s.channel->frame(s.next_send);
    if (!f) {
      // Evicted before it was ever sent and (races aside) recorded spilled;
      // skip — needed_by_any() routed it to the spill path at eviction.
      ++s.next_send;
      continue;
    }
    if (!s.channel->take_credit(s.sub, f->seq)) break;  // backpressure
    send_frame(id, *f, /*retransmit=*/false);
    if (finished(s)) return;  // an unroutable flow fails the session inline
    ++s.next_send;
  }
  if (!live && s.next_publish >= count && s.seg_first >= 0) {
    flush_spill(id);
  }
}

void StreamService::send_frame(const SessionId& id, const net::Frame& f,
                               bool retransmit) {
  Session& s = sessions_.at(id);
  ++s.inflight;
  if (retransmit) {
    ++s.info.retransmits;
    if (auto* c = counter("frames_retransmitted_total",
                          "Frames resent from the producer ring after a NACK"))
      c->inc();
    if (telemetry_) {
      telemetry_->tracer.event(s.span, "frame-retransmit", engine_->now(),
                               util::Json::object({{"seq", f.seq}}),
                               util::LogLevel::Warn);
    }
  } else {
    ++s.info.frames_sent;
    if (auto* c = counter("stream_frames_sent_total",
                          "Original detector frames placed on the wire"))
      c->inc();
  }
  auto flow = network_->start_flow(
      wiring_.src_node, wiring_.dst_node, f.bytes, [this, id, f](net::FlowId) {
        auto it = sessions_.find(id);
        if (it == sessions_.end()) return;
        --it->second.inflight;
        arrival(id, f);
        pump(id);
      });
  if (!flow) {
    --s.inflight;
    fail(id, "no route for frame stream: " + flow.error().message);
  }
}

void StreamService::arrival(const SessionId& id, const net::Frame& f) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback) return;

  if (rng_.chance(frame_drop_prob_)) {
    if (auto* c = counter("frames_dropped_total",
                          "Frames lost on the direct streaming path"))
      c->inc();
    if (telemetry_) {
      telemetry_->tracer.note(s.span, util::LogLevel::Warn, "frame-drop",
                              engine_->now(),
                              util::Json::object({{"seq", f.seq}}));
    }
    logger().debug("%s: frame %lld dropped", id.c_str(),
                   static_cast<long long>(f.seq));
    return;  // the gap watchdog will NACK and retransmit
  }
  if (rng_.chance(frame_duplicate_prob_)) {
    engine_->schedule_after(sim::Duration::from_millis(50.0),
                            [this, id, f] { deliver_frame(id, f); });
  }
  if (rng_.chance(frame_reorder_prob_)) {
    engine_->schedule_after(
        sim::Duration::from_seconds(config_.reorder_hold_s),
        [this, id, f] { deliver_frame(id, f); });
    return;
  }
  deliver_frame(id, f);
}

void StreamService::deliver_frame(const SessionId& id, const net::Frame& f) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback) return;
  if (stalled_) {
    s.stall_queue.push_back(f);
    return;
  }
  auto res = s.channel->deliver(s.sub, f);
  switch (res.outcome) {
    case net::FrameChannel::Outcome::Consumed:
      after_progress(id);
      break;
    case net::FrameChannel::Outcome::Duplicate:
      if (auto* c = counter("stream_frame_duplicates_total",
                            "Duplicate frame arrivals discarded at the "
                            "consumer"))
        c->inc();
      break;
    case net::FrameChannel::Outcome::Buffered:
    case net::FrameChannel::Outcome::WindowOverflow:
      break;  // the gap watchdog recovers the missing predecessor
  }
}

void StreamService::after_progress(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  int64_t cursor = s.channel->cursor(s.sub);
  int64_t delivered = s.source->bytes_in_range(0, cursor - 1);
  if (delivered != s.info.bytes_delivered) {
    s.info.bytes_delivered = delivered;
    if (s.progress_cb) s.progress_cb(delivered);
  }
  if (cursor >= s.source->frame_count() && s.spills_inflight == 0 &&
      s.pending_satisfy.empty() && !s.info.fallback) {
    complete(id);
    return;
  }
  pump(id);  // the cursor advance released credits
}

void StreamService::watchdog_tick(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback) return;
  s.watchdog = engine_->schedule_after(
      sim::Duration::from_seconds(config_.nack_timeout_s),
      [this, id] { watchdog_tick(id); });

  int64_t cursor = s.channel->cursor(s.sub);
  if (stalled_) {
    s.watch_cursor = cursor;
    return;  // the stall timer owns escalation
  }
  if (cursor >= s.source->frame_count()) return;
  if (cursor != s.watch_cursor) {
    s.watch_cursor = cursor;
    return;  // progress since the last tick — no gap aged out
  }
  if (cursor >= s.next_publish) return;  // the detector has not emitted it yet

  if (s.spilled.count(cursor)) {
    // The store path owns the missing frame; make sure its segment is moving.
    if (s.seg_first >= 0 && cursor >= s.seg_first && cursor <= s.seg_last) {
      flush_spill(id);
    }
    return;
  }
  std::optional<net::Frame> f = s.channel->frame(cursor);
  if (!f) {
    // Evicted from the ring without a spill record — unrecoverable in-band.
    trigger_fallback(id, util::format("frame %lld lost from the ring",
                                      static_cast<long long>(cursor)));
    return;
  }
  int& attempts = s.retransmit_counts[cursor];
  if (++attempts > config_.max_retransmits) {
    trigger_fallback(id,
                     util::format("frame %lld exhausted %d retransmits",
                                  static_cast<long long>(cursor),
                                  config_.max_retransmits));
    return;
  }
  mark_degraded(s);
  if (telemetry_) {
    telemetry_->tracer.note(
        s.span, util::LogLevel::Warn, "frame-nack", engine_->now(),
        util::Json::object({{"seq", cursor}, {"attempt", attempts}}));
  }
  s.channel->take_credit(s.sub, cursor);  // rides the original credit
  send_frame(id, *f, /*retransmit=*/true);
}

void StreamService::absorb_spill(const SessionId& id,
                                 const std::vector<net::Frame>& evicted) {
  if (evicted.empty()) return;
  Session& s = sessions_.at(id);
  for (const net::Frame& f : evicted) {
    if (s.spilled.count(f.seq)) continue;
    mark_degraded(s);
    if (s.seg_first < 0) {
      s.seg_first = s.seg_last = f.seq;
    } else if (f.seq == s.seg_last + 1) {
      s.seg_last = f.seq;
    } else {
      flush_spill(id);
      if (finished(s) || s.info.fallback) return;
      s.seg_first = s.seg_last = f.seq;
    }
    s.spilled.insert(f.seq);
    if (s.seg_last - s.seg_first + 1 >= config_.spill_flush_frames) {
      flush_spill(id);
      if (finished(s) || s.info.fallback) return;
    }
  }
}

void StreamService::flush_spill(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback || s.seg_first < 0) return;
  if (s.spill_segments >= config_.max_spill_segments) {
    trigger_fallback(id, util::format("spill segment budget (%d) exhausted",
                                      config_.max_spill_segments));
    return;
  }
  const int64_t first = s.seg_first, last = s.seg_last;
  s.seg_first = s.seg_last = -1;
  ++s.spill_segments;

  const int64_t bytes = s.source->bytes_in_range(first, last);
  const int64_t index = next_spill_file_++;
  const std::string suffix =
      util::format(".spill-%04lld", static_cast<long long>(index));
  const std::string spill_src = s.request.src_path + suffix;
  const std::string spill_dst = s.request.dst_path + suffix;
  // Stage the segment as its own source object so the verified chunked
  // transfer path can move and checksum it independently of the stream.
  wiring_.src_store->put_virtual(spill_src, bytes, util::crc64(spill_src),
                                 engine_->now());

  TransferRequest req;
  req.src_endpoint = wiring_.src_endpoint;
  req.dst_endpoint = wiring_.store_endpoint;
  req.files = {{spill_src, spill_dst}};
  req.streaming_chunk_bytes = config_.spill_chunk_bytes;
  auto task = transfer_->submit(req, s.token);
  if (!task) {
    trigger_fallback(id, "spill transfer rejected: " + task.error().message);
    return;
  }
  ++s.info.spills;
  s.info.spilled_bytes += bytes;
  ++s.spills_inflight;
  if (auto* c = counter("stream_spills_total",
                        "Frame ranges diverted to the store landing path"))
    c->inc();
  if (auto* c = counter("stream_spilled_bytes_total",
                        "Bytes that reached the consumer via spill-to-store"))
    c->inc(static_cast<double>(bytes));
  if (telemetry_) {
    telemetry_->tracer.event(
        s.span, "spill", engine_->now(),
        util::Json::object(
            {{"first", first}, {"last", last}, {"bytes", bytes}}),
        util::LogLevel::Warn);
  }
  logger().info("%s: spilling frames [%lld, %lld] (%lld bytes) via %s",
                id.c_str(), static_cast<long long>(first),
                static_cast<long long>(last), static_cast<long long>(bytes),
                task.value().c_str());

  transfer_->on_settled(task.value(), [this, id, first, last,
                                       bytes](const TaskInfo& info) {
    auto sit = sessions_.find(id);
    if (sit == sessions_.end() || finished(sit->second)) return;
    if (info.state != TaskState::Succeeded) {
      --sit->second.spills_inflight;
      trigger_fallback(id, "spill transfer failed: " + info.error);
      return;
    }
    // Segment landed (verified) on the store; backfill it to node memory.
    auto flow = network_->start_flow(
        wiring_.store_node, wiring_.dst_node, bytes,
        [this, id, first, last](net::FlowId) {
          apply_satisfy(id, first, last);
        });
    if (!flow) {
      --sit->second.spills_inflight;
      trigger_fallback(id, "spill backfill unroutable: " +
                               flow.error().message);
    }
  });
}

void StreamService::apply_satisfy(const SessionId& id, int64_t first,
                                  int64_t last) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  --s.spills_inflight;
  if (s.info.fallback) return;
  if (stalled_) {
    // The consumer is not taking frames; remember the backfilled range and
    // apply it when the stall clears.
    s.pending_satisfy.emplace_back(first, last);
    return;
  }
  s.channel->satisfy_range(s.sub, first, last);
  after_progress(id);
}

void StreamService::set_consumer_stall(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (stalled) {
    if (config_.stall_fallback_s <= 0) return;
    for (auto& [id, s] : sessions_) {
      if (finished(s) || s.info.fallback) continue;
      if (telemetry_) {
        telemetry_->tracer.event(
            s.span, "consumer-stall", engine_->now(),
            util::Json::object({{"budget_s", config_.stall_fallback_s}}),
            util::LogLevel::Warn);
      }
      SessionId sid = id;
      engine_->schedule_after(
          sim::Duration::from_seconds(config_.stall_fallback_s),
          [this, sid] {
            auto sit = sessions_.find(sid);
            if (sit == sessions_.end() || finished(sit->second)) return;
            if (stalled_ && !sit->second.info.fallback) {
              trigger_fallback(sid, "consumer stall outlasted the budget");
            }
          });
    }
    return;
  }
  // Stall cleared: drain parked arrivals and backfills, then resume pumping.
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (auto& [id, s] : sessions_) ids.push_back(id);
  for (const SessionId& id : ids) {
    auto it = sessions_.find(id);
    if (it == sessions_.end() || finished(it->second)) continue;
    Session& s = it->second;
    if (s.info.fallback) continue;
    std::deque<net::Frame> queued;
    queued.swap(s.stall_queue);
    for (const net::Frame& f : queued) deliver_frame(id, f);
    std::vector<std::pair<int64_t, int64_t>> ranges;
    ranges.swap(s.pending_satisfy);
    for (auto& [first, last] : ranges) {
      if (finished(s) || s.info.fallback) break;
      s.channel->satisfy_range(s.sub, first, last);
    }
    after_progress(id);
  }
}

void StreamService::trigger_fallback(const SessionId& id,
                                     const std::string& reason) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  if (s.info.fallback) return;
  s.info.fallback = true;
  s.info.mode = "fallback";
  mark_degraded(s);
  s.cadence.cancel();
  s.watchdog.cancel();
  s.stall_queue.clear();
  if (auto* c = counter("stream_fallbacks_total",
                        "Sessions re-routed whole-flow to the store path"))
    c->inc();
  // Error level marks the owning run's ring dump-worthy: a fallback is the
  // ladder's last rung and exactly what a postmortem wants to replay.
  if (telemetry_) {
    telemetry_->tracer.event(
        s.span, "stream-fallback", engine_->now(),
        util::Json::object({{"session", id}, {"reason", reason}}),
        util::LogLevel::Error);
  }
  logger().warn("%s: falling back to store-mediated transfer (%s)",
                id.c_str(), reason.c_str());

  TransferRequest req;
  req.src_endpoint = wiring_.src_endpoint;
  req.dst_endpoint = wiring_.store_endpoint;
  req.files = {{s.request.src_path, s.request.dst_path}};
  req.streaming_chunk_bytes = config_.spill_chunk_bytes;
  auto task = transfer_->submit(req, s.token);
  if (!task) {
    fail(id, "fallback transfer rejected: " + task.error().message);
    return;
  }
  transfer_->on_settled(task.value(), [this, id](const TaskInfo& info) {
    auto sit = sessions_.find(id);
    if (sit == sessions_.end() || finished(sit->second)) return;
    if (info.state == TaskState::Succeeded) {
      // The science landed on the store, not in node memory — downstream
      // consumers resolve the object through the landing store.
      sit->second.info.bytes_delivered = sit->second.info.bytes_total;
      if (sit->second.progress_cb) {
        sit->second.progress_cb(sit->second.info.bytes_delivered);
      }
      finish(id, SessionState::Succeeded);
    } else {
      fail(id, "fallback transfer failed: " + info.error);
    }
  });
}

void StreamService::mark_degraded(Session& s) {
  if (s.first_degraded_set) return;
  s.first_degraded_set = true;
  s.first_degraded = engine_->now();
}

void StreamService::complete(const SessionId& id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  Session& s = it->second;
  // Materialize the assembled acquisition in node memory: every frame was
  // either consumed in-band (CRC-stamped) or satisfied by a verified spill.
  wiring_.dst_store->put_virtual(s.request.dst_path, s.info.bytes_total,
                                 s.source->content_crc(), engine_->now());
  s.info.bytes_delivered = s.info.bytes_total;
  if (s.info.retransmits > 0 || s.info.spills > 0) s.info.mode = "degraded";
  finish(id, SessionState::Succeeded);
}

void StreamService::fail(const SessionId& id, const std::string& error) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || finished(it->second)) return;
  it->second.info.error = error;
  logger().warn("%s failed: %s", id.c_str(), error.c_str());
  finish(id, SessionState::Failed);
}

void StreamService::finish(const SessionId& id, SessionState state) {
  Session& s = sessions_.at(id);
  s.info.state = state;
  s.info.completed = engine_->now();
  s.cadence.cancel();
  s.watchdog.cancel();
  if (telemetry_) {
    telemetry_->metrics
        .counter("stream_sessions_total", "Streaming sessions by state",
                 {{"state",
                   state == SessionState::Succeeded ? "succeeded" : "failed"}})
        .inc();
    if (s.first_degraded_set) {
      telemetry_->metrics
          .histogram("stream_degraded_seconds",
                     "Time a session spent in degraded mode before settling",
                     {}, telemetry::FixedHistogram::latency_buckets_s())
          .observe(
              sim::time_between(s.first_degraded, engine_->now()).seconds());
    }
    telemetry_->tracer.note(s.span,
                            state == SessionState::Succeeded
                                ? util::LogLevel::Info
                                : util::LogLevel::Error,
                            "stream-settled", engine_->now(),
                            util::Json::object({
                                {"session", id},
                                {"state", session_state_name(state)},
                                {"mode", s.info.mode},
                                {"retransmits", s.info.retransmits},
                                {"spills", s.info.spills},
                            }));
    if (s.span) {
      telemetry_->tracer.close(
          s.span, state == SessionState::Succeeded ? "active" : "failed",
          s.info.submitted, engine_->now(),
          util::Json::object({{"bytes", s.info.bytes_total},
                              {"frames", s.info.frames_total},
                              {"retransmits", s.info.retransmits},
                              {"spills", s.info.spills},
                              {"mode", s.info.mode}}));
      s.span = 0;
    }
  }
  logger().debug("%s settled %s (mode %s, %lld retransmits, %lld spills)",
                 id.c_str(), session_state_name(state).c_str(),
                 s.info.mode.c_str(),
                 static_cast<long long>(s.info.retransmits),
                 static_cast<long long>(s.info.spills));
  if (s.settled_cb) s.settled_cb(s.info);
}

SessionInfo StreamService::status(const SessionId& id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    SessionInfo info;
    info.state = SessionState::Failed;
    info.error = "unknown session";
    return info;
  }
  return it->second.info;
}

void StreamService::on_settled(const SessionId& id,
                               std::function<void(const SessionInfo&)> cb) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (finished(it->second)) {
    cb(it->second.info);
    return;
  }
  it->second.settled_cb = std::move(cb);
}

bool StreamService::on_progress(const SessionId& id,
                                std::function<void(int64_t)> cb) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second.progress_cb = std::move(cb);
  return true;
}

}  // namespace pico::transfer
