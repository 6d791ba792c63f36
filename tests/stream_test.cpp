// Direct detector→compute streaming tests: frame-channel ring/credit/reorder
// boundaries, frame-source cutting, and the StreamService degradation ladder
// (retransmit -> spill-to-store -> whole-flow fallback).
#include <gtest/gtest.h>

#include <algorithm>

#include "auth/auth.hpp"
#include "instrument/frame_source.hpp"
#include "net/frame_channel.hpp"
#include "net/network.hpp"
#include "storage/store.hpp"
#include "telemetry/telemetry.hpp"
#include "transfer/stream.hpp"
#include "util/crc64.hpp"
#include "recorded_once.hpp"

namespace pico::net {
namespace {

FrameChannelConfig channel_cfg(int ring, int credits, int reorder) {
  FrameChannelConfig cfg;
  cfg.ring_capacity = ring;
  cfg.credit_window = credits;
  cfg.reorder_window = reorder;
  return cfg;
}

TEST(FrameChannel, InOrderDeliveryAdvancesCursorAndRecyclesCredits) {
  FrameChannel ch(channel_cfg(8, 2, 4));
  int sub = ch.subscribe();
  EXPECT_EQ(ch.credits(sub), 2);

  ch.publish(100, 1);
  ch.publish(100, 2);
  ch.publish(100, 3);
  EXPECT_TRUE(ch.take_credit(sub, 0));
  EXPECT_TRUE(ch.take_credit(sub, 1));
  EXPECT_FALSE(ch.take_credit(sub, 2)) << "window of 2 exhausted";
  // Idempotent: the same seq never costs a second credit (retransmits).
  EXPECT_TRUE(ch.take_credit(sub, 0));
  EXPECT_EQ(ch.credits(sub), 0);

  auto r0 = ch.deliver(sub, *ch.frame(0));
  EXPECT_EQ(r0.outcome, FrameChannel::Outcome::Consumed);
  ASSERT_EQ(r0.ready.size(), 1u);
  EXPECT_EQ(ch.cursor(sub), 1);
  EXPECT_EQ(ch.credits(sub), 1) << "credit released as the cursor passed";

  // Redelivery of a consumed frame is discarded.
  EXPECT_EQ(ch.deliver(sub, *ch.frame(0)).outcome,
            FrameChannel::Outcome::Duplicate);
}

// Satellite boundary: a capacity-1 ring. Every publish evicts the previous
// frame; an undelivered one comes back as a spill candidate, and the channel
// still completes once the spill path satisfies the hole.
TEST(FrameChannel, CapacityOneRingReportsNeededEvictions) {
  FrameChannel ch(channel_cfg(1, 8, 8));
  int sub = ch.subscribe();

  EXPECT_TRUE(ch.publish(100, 1).empty());  // ring [0]
  auto evicted = ch.publish(100, 2);        // ring [1], 0 pushed out
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].seq, 0);
  EXPECT_EQ(ch.ring_size(), 1u);
  EXPECT_FALSE(ch.frame(0).has_value()) << "evicted: no longer retransmittable";
  ASSERT_TRUE(ch.frame(1).has_value());

  // Frame 1 arrives ahead of the hole at 0: parked in the reorder buffer.
  EXPECT_EQ(ch.deliver(sub, *ch.frame(1)).outcome,
            FrameChannel::Outcome::Buffered);
  // The spill path satisfies frame 0 out-of-band: cursor jumps the hole and
  // drains the buffered successor.
  auto ready = ch.satisfy_range(sub, 0, 0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].seq, 1);
  EXPECT_EQ(ch.cursor(sub), 2);

  // Evicting an already-consumed frame is nobody's problem; evicting one the
  // cursor still wants is a fresh spill candidate.
  EXPECT_TRUE(ch.publish(100, 3).empty());  // pushes out consumed frame 1
  auto evicted2 = ch.publish(100, 4);       // pushes out needed frame 2
  ASSERT_EQ(evicted2.size(), 1u);
  EXPECT_EQ(evicted2[0].seq, 2);
}

TEST(FrameChannel, ReorderWindowLargerThanRingStillCompletesViaSatisfy) {
  // Satellite boundary: reorder window (8) far wider than the ring (2). The
  // subscriber can park frames the ring has long evicted.
  FrameChannel ch(channel_cfg(2, 16, 8));
  int sub = ch.subscribe();

  std::vector<Frame> spill;
  for (int i = 0; i < 6; ++i) {
    auto ev = ch.publish(100, static_cast<uint64_t>(i));
    spill.insert(spill.end(), ev.begin(), ev.end());
  }
  // Ring keeps [4, 5]; frames 0..3 were evicted while still needed.
  ASSERT_EQ(spill.size(), 4u);
  EXPECT_EQ(ch.base_seq(), 4);

  // The two survivors arrive out of order, both far ahead of cursor 0 but
  // within the reorder window.
  EXPECT_EQ(ch.deliver(sub, *ch.frame(5)).outcome,
            FrameChannel::Outcome::Buffered);
  EXPECT_EQ(ch.deliver(sub, *ch.frame(4)).outcome,
            FrameChannel::Outcome::Buffered);
  EXPECT_EQ(ch.buffered_count(sub), 2u);

  // Spill backfill closes 0..3: the buffered tail drains in order.
  auto ready = ch.satisfy_range(sub, 0, 3);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].seq, 4);
  EXPECT_EQ(ready[1].seq, 5);
  EXPECT_EQ(ch.cursor(sub), 6);
  EXPECT_EQ(ch.buffered_count(sub), 0u);
}

TEST(FrameChannel, DeliveryPastReorderWindowIsRejected) {
  FrameChannel ch(channel_cfg(16, 16, 2));
  int sub = ch.subscribe();
  for (int i = 0; i < 4; ++i) ch.publish(100, static_cast<uint64_t>(i));
  EXPECT_EQ(ch.deliver(sub, *ch.frame(2)).outcome,
            FrameChannel::Outcome::Buffered);  // 2 - 0 == window
  EXPECT_EQ(ch.deliver(sub, *ch.frame(3)).outcome,
            FrameChannel::Outcome::WindowOverflow);  // 3 - 0 > window
  EXPECT_EQ(ch.buffered_count(sub), 1u);
}

// Zero-copy payload publish: the channel lands the bytes into a pooled
// buffer with the CRC stamp fused into the copy, and every copy of the Frame
// (ring slot, delivery, reorder buffer) shares that one lease.
TEST(FrameChannel, PayloadPublishStampsCrcAndSharesOneLease) {
  FrameChannel ch(channel_cfg(8, 4, 4));
  int sub = ch.subscribe();

  std::vector<uint8_t> bytes(10'000);
  for (size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<uint8_t>(i * 7);
  EXPECT_TRUE(ch.publish(std::span<const uint8_t>(bytes)).empty());

  auto f = ch.frame(0);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->bytes, 10'000);
  EXPECT_EQ(f->crc64, util::crc64(bytes));
  ASSERT_TRUE(f->has_payload());
  auto payload = f->payload_bytes();
  ASSERT_GE(payload.size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), payload.begin()));
  // The copy handed to the consumer aliases the same pooled buffer.
  EXPECT_TRUE(ch.take_credit(sub, 0));
  auto r = ch.deliver(sub, *f);
  ASSERT_EQ(r.ready.size(), 1u);
  EXPECT_EQ(r.ready[0].payload_bytes().data(), payload.data());

  // Metadata-only publish still yields payload-free frames.
  ch.publish(64, 0xABC);
  EXPECT_FALSE(ch.frame(1)->has_payload());
  EXPECT_TRUE(ch.frame(1)->payload_bytes().empty());
}

// An evicted payload frame keeps its bytes alive through the shared lease —
// the spill path can still read them after the ring slot is gone.
TEST(FrameChannel, EvictedPayloadFrameKeepsBytesAlive) {
  FrameChannel ch(channel_cfg(1, 8, 8));
  int sub = ch.subscribe();
  (void)sub;

  std::vector<uint8_t> first{1, 2, 3, 4, 5};
  EXPECT_TRUE(ch.publish(std::span<const uint8_t>(first)).empty());
  std::vector<uint8_t> second{9, 8, 7};
  auto spilled = ch.publish(std::span<const uint8_t>(second));
  ASSERT_EQ(spilled.size(), 1u);
  EXPECT_EQ(spilled[0].seq, 0);
  ASSERT_TRUE(spilled[0].has_payload());
  auto payload = spilled[0].payload_bytes();
  EXPECT_TRUE(std::equal(first.begin(), first.end(), payload.begin()));
  EXPECT_EQ(spilled[0].crc64, util::crc64(first));
}

}  // namespace
}  // namespace pico::net

namespace pico::instrument {
namespace {

TEST(FrameSource, CutsShortLastFrameAndClampsRanges) {
  FrameSource src(10'500'000, 4'000'000, 0xABCD);
  EXPECT_EQ(src.frame_count(), 3);
  EXPECT_EQ(src.frame(0).bytes, 4'000'000);
  EXPECT_EQ(src.frame(2).bytes, 2'500'000);
  // Stamps are per-frame and deterministic.
  EXPECT_NE(src.frame(0).crc64, src.frame(1).crc64);
  EXPECT_EQ(src.frame(1).crc64, FrameSource(10'500'000, 4'000'000, 0xABCD)
                                    .frame(1)
                                    .crc64);
  EXPECT_EQ(src.bytes_in_range(0, 2), 10'500'000);
  EXPECT_EQ(src.bytes_in_range(1, 99), 6'500'000);  // clamped to the file
  EXPECT_EQ(src.bytes_in_range(2, 1), 0);
}

}  // namespace
}  // namespace pico::instrument

namespace pico::transfer {
namespace {

struct StreamFixture : ::testing::Test {
  sim::Engine engine;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  auth::AuthService auth;
  storage::Store src_store{"src", static_cast<int64_t>(1e12)};
  storage::Store land_store{"land", static_cast<int64_t>(1e12)};
  storage::Store node_mem{"nodemem", static_cast<int64_t>(1e12)};
  std::unique_ptr<TransferService> transfer;
  std::unique_ptr<StreamService> stream;
  auth::Token token;

  /// src --(src_bps)-- hub --(fast)-- {store, node}.
  void setup(StreamConfig cfg, double src_bps = 80e6) {
    net::NodeId src = topo.add_node("src");
    net::NodeId hub = topo.add_node("hub");
    net::NodeId store = topo.add_node("store");
    net::NodeId node = topo.add_node("node");
    topo.add_link(src, hub, src_bps);
    topo.add_link(hub, store, 800e6);
    topo.add_link(hub, node, 800e6);
    network = std::make_unique<net::Network>(&engine, &topo);

    TransferConfig tcfg;
    tcfg.setup_mean_s = 1.0;
    tcfg.setup_jitter_s = 0.0;
    tcfg.per_file_overhead_s = 0.1;
    tcfg.settle_base_s = 0.2;
    tcfg.settle_per_gb_s = 0.0;
    tcfg.cap_jitter_frac = 0.0;
    transfer = std::make_unique<TransferService>(&engine, network.get(),
                                                 &auth, tcfg, 42);
    transfer->register_endpoint("ep-src", src, &src_store);
    transfer->register_endpoint("ep-store", store, &land_store);

    StreamService::Wiring wiring;
    wiring.src_node = src;
    wiring.src_store = &src_store;
    wiring.dst_node = node;
    wiring.dst_store = &node_mem;
    wiring.store_node = store;
    wiring.src_endpoint = "ep-src";
    wiring.store_endpoint = "ep-store";
    stream = std::make_unique<StreamService>(&engine, network.get(), &auth,
                                             transfer.get(), cfg, wiring, 7);
    token = auth.issue("user@anl.gov", {"transfer"});
  }

  StreamConfig paced_config(int64_t frame_bytes = 1'000'000) {
    StreamConfig cfg;
    cfg.frame_bytes = frame_bytes;
    cfg.setup_s = 0.5;
    return cfg;
  }

  SessionId run_session(const std::string& src, const std::string& dst) {
    auto session = stream->submit({src, dst}, token);
    EXPECT_TRUE(session);
    engine.run();
    return session ? session.value() : SessionId{};
  }
};

TEST_F(StreamFixture, RequiresTransferScope) {
  setup(paced_config());
  ASSERT_TRUE(src_store.put_virtual("a.emd", 1'000'000, 1, engine.now()));
  EXPECT_FALSE(stream->submit({"a.emd", "a.emd"}, "bogus"));
  auth::Token wrong = auth.issue("user@anl.gov", {"compute"});
  EXPECT_FALSE(stream->submit({"a.emd", "a.emd"}, wrong));
  EXPECT_FALSE(stream->submit({"missing.emd", "x"}, token));
}

TEST_F(StreamFixture, PacedSessionStreamsDirectIntoNodeMemory) {
  setup(paced_config());
  ASSERT_TRUE(
      src_store.put_virtual("acq.emd", 10'000'000, 0xFEED, engine.now()));
  std::vector<int64_t> progress;
  auto session = stream->submit({"acq.emd", "node/acq.emd"}, token);
  ASSERT_TRUE(session);
  stream->on_progress(session.value(), [&](int64_t b) { progress.push_back(b); });
  engine.run();

  SessionInfo info = stream->status(session.value());
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_EQ(info.mode, "direct");
  EXPECT_EQ(info.frames_total, 10);
  EXPECT_EQ(info.frames_sent, 10);
  EXPECT_EQ(info.retransmits, 0);
  EXPECT_EQ(info.spills, 0);
  EXPECT_FALSE(info.fallback);
  EXPECT_EQ(info.bytes_delivered, 10'000'000);
  // Progress is monotone and reaches the full size.
  ASSERT_FALSE(progress.empty());
  EXPECT_TRUE(std::is_sorted(progress.begin(), progress.end()));
  EXPECT_EQ(progress.back(), 10'000'000);
  // The acquisition materialized in node memory with the source's checksum.
  auto obj = node_mem.get("node/acq.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->size, 10'000'000);
  EXPECT_EQ(obj.value()->crc64, 0xFEEDull);
}

TEST_F(StreamFixture, FrameDropsHealViaRetransmitFromTheRing) {
  setup(paced_config());
  ASSERT_TRUE(
      src_store.put_virtual("d.emd", 20'000'000, 0xD09, engine.now()));
  stream->set_frame_drop_prob(0.3);
  SessionId id = run_session("d.emd", "node/d.emd");

  SessionInfo info = stream->status(id);
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_GT(info.retransmits, 0);
  EXPECT_EQ(info.mode, "degraded");
  EXPECT_FALSE(info.fallback);
  EXPECT_TRUE(node_mem.get("node/d.emd"));
}

TEST_F(StreamFixture, ReorderAndDuplicateChaosAreAbsorbed) {
  setup(paced_config());
  ASSERT_TRUE(
      src_store.put_virtual("r.emd", 20'000'000, 0x4E0, engine.now()));
  stream->set_frame_reorder_prob(0.4);
  stream->set_frame_duplicate_prob(0.4);
  SessionId id = run_session("r.emd", "node/r.emd");

  SessionInfo info = stream->status(id);
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_FALSE(info.fallback);
  EXPECT_EQ(info.bytes_delivered, 20'000'000);
  EXPECT_TRUE(node_mem.get("node/r.emd"));
}

// Satellite boundary: the subscriber is slower than the producer for the
// whole flow. A live detector outruns a 1 MB/s wire by ~100x with only a
// 2-frame ring, so nearly every frame is force-evicted and must reach the
// consumer through the spill-to-store path — and the session still
// assembles the full acquisition.
TEST_F(StreamFixture, LiveDetectorOutrunningConsumerForcesFullSpill) {
  StreamConfig cfg = paced_config();
  cfg.detector_rate_bps = 800e6;  // 100 frames/s of 1 MB frames
  cfg.channel = [] {
    net::FrameChannelConfig ch;
    ch.ring_capacity = 2;
    ch.credit_window = 16;
    ch.reorder_window = 16;
    return ch;
  }();
  cfg.max_spill_segments = 8;
  setup(cfg, /*src_bps=*/8e6);  // 1 MB/s: ~1 s per frame on the wire
  ASSERT_TRUE(
      src_store.put_virtual("live.emd", 10'000'000, 0x11FE, engine.now()));
  SessionId id = run_session("live.emd", "node/live.emd");

  SessionInfo info = stream->status(id);
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_EQ(info.mode, "degraded");
  EXPECT_FALSE(info.fallback);
  EXPECT_GE(info.spills, 1);
  // The wire kept only a handful of frames; the majority of the acquisition
  // crossed via the store.
  EXPECT_GE(info.spilled_bytes, info.bytes_total / 2);
  EXPECT_EQ(info.bytes_delivered, info.bytes_total);
  auto obj = node_mem.get("node/live.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->size, 10'000'000);
}

// With a one-segment spill budget the overrun spills once and then falls
// back; each is one record on the session span and in the run's ring.
TEST_F(StreamFixture, SpillAndFallbackRecordedOnceInSpanAndRing) {
  StreamConfig cfg = paced_config();
  cfg.detector_rate_bps = 800e6;
  cfg.channel = [] {
    net::FrameChannelConfig ch;
    ch.ring_capacity = 2;
    ch.credit_window = 16;
    ch.reorder_window = 16;
    return ch;
  }();
  cfg.max_spill_segments = 1;
  cfg.spill_flush_frames = 2;  // the overrun needs several segments
  setup(cfg, /*src_bps=*/8e6);
  sim::Trace trace;
  telemetry::Telemetry tel(&trace);
  stream->set_telemetry(&tel);
  transfer->set_telemetry(&tel);
  ASSERT_TRUE(
      src_store.put_virtual("live.emd", 10'000'000, 0x11FE, engine.now()));
  uint64_t run = tel.tracer.open("flow", "run-1", 0, "run-1");
  util::Result<SessionId> session = [&] {
    telemetry::Tracer::Scope scope(tel.tracer, run);
    return stream->submit({"live.emd", "node/live.emd"}, token);
  }();
  ASSERT_TRUE(session);
  engine.run();
  tel.tracer.close(run, "run", engine.now(), engine.now());
  SessionInfo info = stream->status(session.value());
  EXPECT_EQ(info.spills, 1);
  EXPECT_TRUE(info.fallback);
  test::expect_recorded_once(trace, tel.flight, "run-1", "spill");
  test::expect_recorded_once(trace, tel.flight, "run-1", "stream-fallback");
}

TEST_F(StreamFixture, StallOutlastingBudgetFallsBackToStorePath) {
  StreamConfig cfg = paced_config();
  cfg.stall_fallback_s = 2.0;
  setup(cfg);
  ASSERT_TRUE(
      src_store.put_virtual("s.emd", 10'000'000, 0x57A, engine.now()));
  stream->set_consumer_stall(true);
  SessionId id = run_session("s.emd", "node/s.emd");

  SessionInfo info = stream->status(id);
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_TRUE(info.fallback);
  EXPECT_EQ(info.mode, "fallback");
  EXPECT_EQ(info.bytes_delivered, 10'000'000);
  // The science landed on the store, not in node memory.
  EXPECT_TRUE(land_store.get("node/s.emd"));
  EXPECT_FALSE(node_mem.get("node/s.emd"));
}

TEST_F(StreamFixture, StallClearedWithinBudgetResumesDirect) {
  StreamConfig cfg = paced_config();
  cfg.stall_fallback_s = 5.0;
  setup(cfg);
  ASSERT_TRUE(
      src_store.put_virtual("p.emd", 10'000'000, 0x9A5, engine.now()));
  auto session = stream->submit({"p.emd", "node/p.emd"}, token);
  ASSERT_TRUE(session);
  engine.schedule_at(sim::SimTime::from_seconds(0.8),
                     [&] { stream->set_consumer_stall(true); });
  engine.schedule_at(sim::SimTime::from_seconds(2.0),
                     [&] { stream->set_consumer_stall(false); });
  engine.run();

  SessionInfo info = stream->status(session.value());
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_FALSE(info.fallback);
  EXPECT_EQ(info.bytes_delivered, 10'000'000);
  EXPECT_TRUE(node_mem.get("node/p.emd"));
}

// A source staged with real bytes streams through the zero-copy pooled
// payload path: every published frame carries a lease whose CRC was fused
// into the landing copy, and the session still settles clean.
TEST_F(StreamFixture, RealContentSourceStreamsPooledPayloads) {
  setup(paced_config(/*frame_bytes=*/100'000));
  std::vector<uint8_t> content(350'000);
  for (size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<uint8_t>((i * 31) ^ (i >> 8));
  ASSERT_TRUE(src_store.put("real.emd", content, engine.now()));

  sim::Trace trace;
  telemetry::Telemetry tel(&trace);
  stream->set_telemetry(&tel);
  SessionId id = run_session("real.emd", "node/real.emd");

  SessionInfo info = stream->status(id);
  EXPECT_EQ(info.state, SessionState::Succeeded) << info.error;
  EXPECT_EQ(info.mode, "direct");
  EXPECT_EQ(info.frames_total, 4);  // 3 full frames + the 50 KB tail
  EXPECT_EQ(info.bytes_delivered, 350'000);
  // All four frames went through the pooled-payload publish.
  auto text = tel.metrics.to_prometheus();
  EXPECT_NE(text.find("stream_payload_frames_total"), std::string::npos);
  EXPECT_NE(text.find("stream_payload_frames_total 4"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace pico::transfer
