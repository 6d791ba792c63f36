// Transfer service tests: auth, task lifecycle, data delivery + integrity,
// compression, fault injection + retry, live progress, settling.
#include <gtest/gtest.h>

#include "auth/auth.hpp"
#include "net/network.hpp"
#include "storage/store.hpp"
#include "telemetry/telemetry.hpp"
#include "transfer/service.hpp"
#include "util/crc64.hpp"
#include "recorded_once.hpp"

namespace pico::transfer {
namespace {

struct TransferFixture : ::testing::Test {
  sim::Engine engine;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  auth::AuthService auth;
  storage::Store src_store{"src", static_cast<int64_t>(1e12)};
  storage::Store dst_store{"dst", static_cast<int64_t>(1e12)};
  std::unique_ptr<TransferService> service;
  auth::Token token;
  net::LinkId link = 0;

  void setup_service(TransferConfig cfg) {
    net::NodeId a = topo.add_node("src");
    net::NodeId b = topo.add_node("dst");
    link = topo.add_link(a, b, 80e6);  // 10 MB/s
    network = std::make_unique<net::Network>(&engine, &topo);
    service = std::make_unique<TransferService>(&engine, network.get(), &auth,
                                                cfg, 42);
    service->register_endpoint("ep-src", a, &src_store);
    service->register_endpoint("ep-dst", b, &dst_store);
    token = auth.issue("user@anl.gov", {"transfer"});
  }

  TransferConfig quick_config() {
    TransferConfig cfg;
    cfg.setup_mean_s = 1.0;
    cfg.setup_jitter_s = 0.0;
    cfg.per_file_overhead_s = 0.1;
    cfg.settle_base_s = 0.2;
    cfg.settle_per_gb_s = 0.0;
    cfg.cap_jitter_frac = 0.0;
    return cfg;
  }

  TransferRequest single_file(const std::string& src, const std::string& dst) {
    TransferRequest req;
    req.src_endpoint = "ep-src";
    req.dst_endpoint = "ep-dst";
    req.files = {{src, dst}};
    return req;
  }
};

TEST_F(TransferFixture, RequiresValidTokenAndScope) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put("f", std::vector<uint8_t>(10), engine.now()));
  EXPECT_FALSE(service->submit(single_file("f", "g"), "bogus-token"));
  auth::Token wrong_scope = auth.issue("user@anl.gov", {"compute"});
  auto denied = service->submit(single_file("f", "g"), wrong_scope);
  ASSERT_FALSE(denied);
  EXPECT_EQ(denied.error().code, "denied");
  EXPECT_TRUE(service->submit(single_file("f", "g"), token));
}

TEST_F(TransferFixture, ValidatesEndpointsAndFiles) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put("f", std::vector<uint8_t>(10), engine.now()));
  {
    auto req = single_file("f", "g");
    req.src_endpoint = "nope";
    EXPECT_FALSE(service->submit(req, token));
  }
  {
    auto req = single_file("f", "g");
    req.dst_endpoint = "nope";
    EXPECT_FALSE(service->submit(req, token));
  }
  {
    auto req = single_file("missing.emd", "g");
    EXPECT_FALSE(service->submit(req, token));
  }
  {
    TransferRequest req;
    req.src_endpoint = "ep-src";
    req.dst_endpoint = "ep-dst";
    EXPECT_FALSE(service->submit(req, token));  // empty file list
  }
  {
    auto req = single_file("f", "g");
    req.codec = "zstd";  // unknown codec
    EXPECT_FALSE(service->submit(req, token));
  }
}

TEST_F(TransferFixture, DeliversRealContentWithChecksum) {
  setup_service(quick_config());
  sim::Trace trace;
  telemetry::Telemetry tel(&trace);
  service->set_telemetry(&tel);
  std::vector<uint8_t> payload(1'000'000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(src_store.put("data.emd", payload, engine.now()));

  auto task = service->submit(single_file("data.emd", "exp/data.emd"), token);
  ASSERT_TRUE(task);
  EXPECT_EQ(service->status(task.value()).state, TaskState::Pending);
  engine.run();

  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_EQ(info.bytes_done, 1'000'000);
  EXPECT_EQ(info.files_done, 1);
  auto delivered = dst_store.get("exp/data.emd");
  ASSERT_TRUE(delivered);
  EXPECT_EQ(*delivered.value()->content, payload);
  // The landing was verified in one pass over the landed bytes, and the
  // delivered object carries the correct manifest checksum.
  EXPECT_EQ(delivered.value()->crc64, util::crc64(payload));
  EXPECT_TRUE(delivered.value()->intact());
  EXPECT_NE(tel.metrics.to_prometheus().find("transfer_crc_fused_total 1"),
            std::string::npos);
}

TEST_F(TransferFixture, VirtualObjectsDeliverSizeOnly) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("big.emd", 50'000'000, 0x1234, engine.now()));
  auto task = service->submit(single_file("big.emd", "big.emd"), token);
  ASSERT_TRUE(task);
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
  auto obj = dst_store.get("big.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->size, 50'000'000);
  EXPECT_EQ(obj.value()->crc64, 0x1234u);
  EXPECT_FALSE(obj.value()->has_content());
}

TEST_F(TransferFixture, MultiFileBatchTransfersSequentially) {
  setup_service(quick_config());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(src_store.put("f" + std::to_string(i),
                              std::vector<uint8_t>(1000), engine.now()));
  }
  TransferRequest req;
  req.src_endpoint = "ep-src";
  req.dst_endpoint = "ep-dst";
  req.files = {{"f0", "o0"}, {"f1", "o1"}, {"f2", "o2"}};
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_EQ(info.files_done, 3);
  EXPECT_EQ(info.bytes_done, 3000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(dst_store.exists("o" + std::to_string(i)));
  }
}

TEST_F(TransferFixture, CompressionReducesWireBytesAndRoundTrips) {
  setup_service(quick_config());
  std::vector<uint8_t> compressible(500'000, 42);
  ASSERT_TRUE(src_store.put("c.emd", compressible, engine.now()));
  auto req = single_file("c.emd", "c.emd");
  req.codec = "rle";
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_LT(info.wire_bytes, info.bytes_total / 10);
  auto obj = dst_store.get("c.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(*obj.value()->content, compressible);  // decompressed at dst
}

TEST_F(TransferFixture, VirtualCompressionUsesAssumedRatio) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("v.emd", 10'000'000, 1, engine.now()));
  auto req = single_file("v.emd", "v.emd");
  req.codec = "lz";
  req.assumed_virtual_ratio = 4.0;
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_EQ(info.wire_bytes, 2'500'000);
}

TEST_F(TransferFixture, FaultsRetryUntilSuccess) {
  auto cfg = quick_config();
  cfg.fault_prob = 0.5;
  cfg.max_retries = 50;
  cfg.retry_backoff_s = 0.1;
  setup_service(cfg);
  // Many tasks: with p=0.5 per file, some faults occur with overwhelming
  // probability, and every one must be absorbed by a retry.
  std::vector<TaskId> tasks;
  for (int i = 0; i < 20; ++i) {
    std::string name = "f" + std::to_string(i) + ".emd";
    ASSERT_TRUE(src_store.put(name, std::vector<uint8_t>(10'000), engine.now()));
    auto task = service->submit(single_file(name, name), token);
    ASSERT_TRUE(task);
    tasks.push_back(task.value());
  }
  engine.run();
  int total_faults = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    TaskInfo info = service->status(tasks[i]);
    EXPECT_EQ(info.state, TaskState::Succeeded) << i;
    total_faults += info.faults;
    EXPECT_TRUE(dst_store.exists("f" + std::to_string(i) + ".emd"));
  }
  EXPECT_GT(total_faults, 0);
}

TEST_F(TransferFixture, RetryLimitFailsTask) {
  auto cfg = quick_config();
  cfg.fault_prob = 1.0;  // always faults
  cfg.max_retries = 2;
  cfg.retry_backoff_s = 0.1;
  setup_service(cfg);
  ASSERT_TRUE(src_store.put("f.emd", std::vector<uint8_t>(100), engine.now()));
  auto task = service->submit(single_file("f.emd", "f.emd"), token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Failed);
  EXPECT_NE(info.error.find("retry limit"), std::string::npos);
}

TEST_F(TransferFixture, DestinationCapacityFailureReported) {
  setup_service(quick_config());
  storage::Store tiny("tiny", 10);
  net::NodeId c = topo.add_node("tiny-node");
  topo.add_link(topo.node("src").value(), c, 80e6);
  service->register_endpoint("ep-tiny", c, &tiny);
  ASSERT_TRUE(src_store.put("f", std::vector<uint8_t>(1000), engine.now()));
  TransferRequest req;
  req.src_endpoint = "ep-src";
  req.dst_endpoint = "ep-tiny";
  req.files = {{"f", "f"}};
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Failed);
}

TEST_F(TransferFixture, LiveProgressVisibleMidTransfer) {
  auto cfg = quick_config();
  setup_service(cfg);
  // 10 MB at 10 MB/s -> ~1 s of wire time after ~1.1 s of setup.
  ASSERT_TRUE(src_store.put_virtual("p.emd", 10'000'000, 7, engine.now()));
  auto task = service->submit(single_file("p.emd", "p.emd"), token);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(1.6));  // mid-wire
  TaskInfo mid = service->status(task.value());
  EXPECT_EQ(mid.state, TaskState::Active);
  EXPECT_GT(mid.bytes_done, 0);
  EXPECT_LT(mid.bytes_done, 10'000'000);
  engine.run();
  EXPECT_EQ(service->status(task.value()).bytes_done, 10'000'000);
}

TEST_F(TransferFixture, SettlingDelaysVisibilityNotActivity) {
  auto cfg = quick_config();
  cfg.settle_base_s = 5.0;
  setup_service(cfg);
  ASSERT_TRUE(src_store.put("f", std::vector<uint8_t>(1000), engine.now()));
  auto task = service->submit(single_file("f", "f"), token);
  ASSERT_TRUE(task);
  bool settled = false;
  sim::SimTime settle_time;
  service->on_settled(task.value(), [&](const TaskInfo& info) {
    settled = true;
    settle_time = engine.now();
    // Activity interval excludes the settle window.
    EXPECT_LT(info.completed.seconds() + 4.0, engine.now().seconds() + 0.01);
  });
  engine.run();
  EXPECT_TRUE(settled);
}

TEST_F(TransferFixture, UnknownTaskStatusIsFailed) {
  setup_service(quick_config());
  EXPECT_EQ(service->status("xfer-999999").state, TaskState::Failed);
}

TEST_F(TransferFixture, ChunkedTransferStreamsCumulativeProgress) {
  setup_service(quick_config());
  // 10 MB in 2 MB chunks over a 10 MB/s link: five chunk landings.
  ASSERT_TRUE(src_store.put_virtual("c.emd", 10'000'000, 11, engine.now()));
  auto req = single_file("c.emd", "c.emd");
  req.streaming_chunk_bytes = 2'000'000;
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  std::vector<int64_t> seen;
  EXPECT_TRUE(service->on_progress(task.value(),
                                   [&](int64_t bytes) { seen.push_back(bytes); }));
  engine.run();
  ASSERT_GE(seen.size(), 2u);  // genuinely incremental, not one final burst
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_GT(seen[i], seen[i - 1]);
  EXPECT_EQ(seen.back(), 10'000'000);
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_EQ(info.bytes_done, info.bytes_total);
  EXPECT_EQ(info.files_done, 1);
  EXPECT_TRUE(dst_store.exists("c.emd"));
}

TEST_F(TransferFixture, ChunkedAndClassicTransfersMatchFinalState) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("a.emd", 6'000'000, 3, engine.now()));
  ASSERT_TRUE(src_store.put_virtual("b.emd", 6'000'000, 3, engine.now()));
  auto classic = service->submit(single_file("a.emd", "a.emd"), token);
  ASSERT_TRUE(classic);
  engine.run();
  auto req = single_file("b.emd", "b.emd");
  req.streaming_chunk_bytes = 1'000'000;
  auto chunked = service->submit(req, token);
  ASSERT_TRUE(chunked);
  engine.run();
  TaskInfo c = service->status(classic.value());
  TaskInfo s = service->status(chunked.value());
  EXPECT_EQ(c.state, TaskState::Succeeded);
  EXPECT_EQ(s.state, TaskState::Succeeded);
  EXPECT_EQ(s.bytes_total, c.bytes_total);
  EXPECT_EQ(s.bytes_done, c.bytes_done);
  EXPECT_EQ(s.wire_bytes, c.wire_bytes);
  EXPECT_EQ(s.files_done, c.files_done);
  EXPECT_TRUE(dst_store.exists("b.emd"));
}

// --- chunk-size clamping (request validation boundaries) ---

TEST_F(TransferFixture, ChunkBytesClampedUpToOne) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put("tiny.emd", std::vector<uint8_t>(10), engine.now()));
  auto req = single_file("tiny.emd", "tiny.emd");
  req.streaming_chunk_bytes = -5;  // nonsense: clamped to 1 byte
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  std::vector<int64_t> seen;
  ASSERT_TRUE(service->on_progress(task.value(),
                                   [&](int64_t b) { seen.push_back(b); }));
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
  // 1-byte chunks over a 10-byte file: ten incremental landings.
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.back(), 10);
}

TEST_F(TransferFixture, ChunkBytesClampedDownToFileSize) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("big.emd", 10'000'000, 5, engine.now()));
  auto req = single_file("big.emd", "big.emd");
  req.streaming_chunk_bytes = static_cast<int64_t>(1e15);  // way over the file
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  std::vector<int64_t> seen;
  ASSERT_TRUE(service->on_progress(task.value(),
                                   [&](int64_t b) { seen.push_back(b); }));
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
  // Clamped to one whole-file chunk: exactly one landing, not zero and not a
  // degenerate overshoot.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 10'000'000);
}

TEST_F(TransferFixture, ZeroChunkBytesStaysClassic) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put("f.emd", std::vector<uint8_t>(100), engine.now()));
  auto req = single_file("f.emd", "f.emd");
  req.streaming_chunk_bytes = 0;  // explicit classic mode, no clamping
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  EXPECT_FALSE(service->on_progress(task.value(), [](int64_t) {}));
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
}

// --- verified resumable transfers ---

// A retry of a transfer whose earlier attempt verified some chunks resumes
// from the manifest instead of re-sending the whole file. The retried task's
// own wire traffic must stay under 60% of the file (the earlier attempt had
// landed half of it).
TEST_F(TransferFixture, RetriedTransferResumesFromVerifiedChunks) {
  auto cfg = quick_config();
  cfg.max_retries = 10;
  cfg.retry_backoff_s = 0.2;
  setup_service(cfg);
  ASSERT_TRUE(src_store.put_virtual("r.emd", 10'000'000, 9, engine.now()));
  auto req = single_file("r.emd", "r.emd");
  req.streaming_chunk_bytes = 2'000'000;  // 5 chunks, one every 0.2 s of wire
  auto first = service->submit(req, token);
  ASSERT_TRUE(first);

  // Chunk landings: ~1.3, 1.5, 1.7, ... Partition mid-file with three chunks
  // verified and the fourth stalled in flight.
  engine.schedule_at(sim::SimTime::from_seconds(1.75), [&] {
    topo.set_link_up(link, false);
    network->rates_changed();
  });
  // The orchestrator gives up on the stalled attempt and retries while the
  // link is still down; the retry's chunk sends fail fast (no route) and back
  // off until the link heals.
  util::Result<TaskId> second = util::Result<TaskId>::err("not submitted");
  engine.schedule_at(sim::SimTime::from_seconds(2.5),
                     [&] { second = service->submit(req, token); });
  engine.schedule_at(sim::SimTime::from_seconds(8.0), [&] {
    topo.set_link_up(link, true);
    network->rates_changed();
  });
  engine.run();

  ASSERT_TRUE(second);
  TaskInfo retry = service->status(second.value());
  EXPECT_EQ(retry.state, TaskState::Succeeded) << retry.error;
  EXPECT_GE(retry.chunks_resumed, 3);  // picked up the verified prefix
  // The acceptance bound: the retried transfer moved < 60% of file bytes.
  EXPECT_LT(retry.wire_bytes, static_cast<int64_t>(0.6 * 10'000'000));
  EXPECT_TRUE(dst_store.exists("r.emd"));
}

// The pre-PR behaviour, selectable via config: with verified resume off the
// retried transfer re-sends everything, so the two attempts together push at
// least 150% of the file over the wire.
TEST_F(TransferFixture, RestartModeResendsWholeFile) {
  auto cfg = quick_config();
  cfg.verified_resume = false;
  cfg.max_retries = 10;
  cfg.retry_backoff_s = 0.2;
  setup_service(cfg);
  ASSERT_TRUE(src_store.put_virtual("r.emd", 10'000'000, 9, engine.now()));
  auto req = single_file("r.emd", "r.emd");
  req.streaming_chunk_bytes = 2'000'000;
  auto first = service->submit(req, token);
  ASSERT_TRUE(first);
  engine.schedule_at(sim::SimTime::from_seconds(1.75), [&] {
    topo.set_link_up(link, false);
    network->rates_changed();
  });
  util::Result<TaskId> second = util::Result<TaskId>::err("not submitted");
  engine.schedule_at(sim::SimTime::from_seconds(2.5),
                     [&] { second = service->submit(req, token); });
  engine.schedule_at(sim::SimTime::from_seconds(8.0), [&] {
    topo.set_link_up(link, true);
    network->rates_changed();
  });
  engine.run();

  ASSERT_TRUE(second);
  TaskInfo a = service->status(first.value());
  TaskInfo b = service->status(second.value());
  EXPECT_EQ(a.state, TaskState::Succeeded) << a.error;
  EXPECT_EQ(b.state, TaskState::Succeeded) << b.error;
  EXPECT_EQ(b.chunks_resumed, 0);
  // Both attempts moved the whole file: >= 150% of the bytes crossed the wire.
  EXPECT_GE(a.wire_bytes + b.wire_bytes,
            static_cast<int64_t>(1.5 * 10'000'000));
}

// Re-transferring an already-delivered file with an intact manifest moves
// (nearly) nothing: rsync-like semantics from the chunk manifest.
TEST_F(TransferFixture, CompletedManifestMakesRepeatTransferFree) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("dup.emd", 10'000'000, 4, engine.now()));
  auto req = single_file("dup.emd", "dup.emd");
  req.streaming_chunk_bytes = 2'000'000;
  auto first = service->submit(req, token);
  ASSERT_TRUE(first);
  engine.run();
  ASSERT_EQ(service->status(first.value()).state, TaskState::Succeeded);

  auto second = service->submit(req, token);
  ASSERT_TRUE(second);
  engine.run();
  TaskInfo info = service->status(second.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_EQ(info.wire_bytes, 0);  // every chunk already verified
  EXPECT_EQ(info.chunks_resumed, 5);
  EXPECT_EQ(info.bytes_done, 10'000'000);  // still reports full delivery
}

// A mid-campaign re-acquisition rewrites the source path with the same size
// and declared CRC, producing the same transfer identity. The fresh source
// stamp must invalidate the old manifest: a resend moves every byte again
// instead of "resuming" data that was never transferred.
TEST_F(TransferFixture, ReacquiredSourceInvalidatesManifest) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put_virtual("re.emd", 10'000'000, 7, engine.now()));
  auto req = single_file("re.emd", "re.emd");
  req.streaming_chunk_bytes = 2'000'000;
  auto first = service->submit(req, token);
  ASSERT_TRUE(first);
  engine.run();
  ASSERT_EQ(service->status(first.value()).state, TaskState::Succeeded);

  // Re-acquire: same path, same size, same declared CRC — new object.
  ASSERT_TRUE(src_store.put_virtual("re.emd", 10'000'000, 7, engine.now()));
  auto second = service->submit(req, token);
  ASSERT_TRUE(second);
  engine.run();
  TaskInfo info = service->status(second.value());
  EXPECT_EQ(info.state, TaskState::Succeeded) << info.error;
  EXPECT_EQ(info.chunks_resumed, 0);         // nothing carried over
  EXPECT_GE(info.wire_bytes, 10'000'000);    // full resend

  // A third pass without re-acquisition resumes from the rebuilt manifest.
  auto third = service->submit(req, token);
  ASSERT_TRUE(third);
  engine.run();
  EXPECT_EQ(service->status(third.value()).chunks_resumed, 5);
}

// Wire bit-flips are detected by the per-chunk CRC and absorbed by re-sending
// only the corrupted chunk.
TEST_F(TransferFixture, WireCorruptionDetectedAndHealedPerChunk) {
  auto cfg = quick_config();
  cfg.max_retries = 8;
  cfg.retry_backoff_s = 0.1;
  setup_service(cfg);
  service->set_wire_corruption_prob(0.3);
  ASSERT_TRUE(src_store.put_virtual("w.emd", 20'000'000, 2, engine.now()));
  auto req = single_file("w.emd", "w.emd");
  req.streaming_chunk_bytes = 1'000'000;  // 20 chunks: corruption near-certain
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded) << info.error;
  EXPECT_GT(info.corruption_detected, 0);
  // Damaged chunks crossed the wire twice, but the whole file never did.
  EXPECT_GT(info.wire_bytes, 20'000'000);
  EXPECT_LT(info.wire_bytes, 40'000'000);
  EXPECT_TRUE(dst_store.exists("w.emd"));
}

// A corrupted landing and the retry it causes are each one record, on the
// task span and in the ring of the flow run the task was opened under.
TEST_F(TransferFixture, CorruptionAndRetryRecordedOnceInSpanAndRing) {
  auto cfg = quick_config();
  cfg.retry_backoff_s = 5.0;  // the retry lands at >= 3.7 s
  setup_service(cfg);
  sim::Trace trace;
  telemetry::Telemetry tel(&trace);
  service->set_telemetry(&tel);
  ASSERT_TRUE(src_store.put_virtual("c.emd", 1'000'000, 3, engine.now()));
  // Only the first landing (~1.2 s) is damaged.
  service->set_wire_corruption_prob(1.0);
  engine.schedule_at(sim::SimTime::from_seconds(2.0),
                     [&] { service->set_wire_corruption_prob(0.0); });
  uint64_t run = tel.tracer.open("flow", "run-1", 0, "run-1");
  util::Result<TaskId> task = [&] {
    telemetry::Tracer::Scope scope(tel.tracer, run);
    return service->submit(single_file("c.emd", "c.emd"), token);
  }();
  ASSERT_TRUE(task);
  engine.run();
  tel.tracer.close(run, "run", engine.now(), engine.now());
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded) << info.error;
  EXPECT_EQ(info.corruption_detected, 1);
  test::expect_recorded_once(trace, tel.flight, "run-1", "corruption-detected");
  test::expect_recorded_once(trace, tel.flight, "run-1", "transfer-retry");
}

TEST_F(TransferFixture, PersistentWireCorruptionFailsTask) {
  auto cfg = quick_config();
  cfg.max_retries = 3;
  cfg.retry_backoff_s = 0.1;
  setup_service(cfg);
  service->set_wire_corruption_prob(1.0);  // every chunk lands damaged
  ASSERT_TRUE(src_store.put_virtual("bad.emd", 4'000'000, 6, engine.now()));
  auto req = single_file("bad.emd", "bad.emd");
  req.streaming_chunk_bytes = 2'000'000;
  auto task = service->submit(req, token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Failed);
  EXPECT_NE(info.error.find("CRC"), std::string::npos) << info.error;
}

// Truncated landings (the destination object is shorter than declared) are
// caught by post-delivery verification and the file is re-sent.
TEST_F(TransferFixture, TruncatedLandingRetriedUntilIntact) {
  auto cfg = quick_config();
  cfg.max_retries = 30;
  cfg.retry_backoff_s = 0.05;
  setup_service(cfg);
  service->set_truncation_prob(0.5);
  std::vector<TaskId> tasks;
  for (int i = 0; i < 8; ++i) {
    std::string name = "t" + std::to_string(i) + ".emd";
    ASSERT_TRUE(src_store.put(name, std::vector<uint8_t>(50'000), engine.now()));
    auto task = service->submit(single_file(name, name), token);
    ASSERT_TRUE(task);
    tasks.push_back(task.value());
  }
  engine.run();
  int detected = 0;
  for (const auto& id : tasks) {
    TaskInfo info = service->status(id);
    EXPECT_EQ(info.state, TaskState::Succeeded) << info.error;
    detected += info.corruption_detected;
  }
  EXPECT_GT(detected, 0);
  // Every delivered object is intact despite the injected truncations.
  for (int i = 0; i < 8; ++i) {
    auto obj = dst_store.get("t" + std::to_string(i) + ".emd");
    ASSERT_TRUE(obj);
    EXPECT_TRUE(obj.value()->intact());
  }
}

// Codec-less landings share the source's immutable bytes; truncation on the
// landed copy is copy-on-write, so the source stays whole and the retry
// lands a clean share again. A codec round-trip lands fresh bytes.
using StoreShared = TransferFixture;

TEST_F(StoreShared, CodeclessLandingSharesSourceBytes) {
  auto cfg = quick_config();
  cfg.max_retries = 30;
  cfg.retry_backoff_s = 0.05;
  setup_service(cfg);
  service->set_truncation_prob(0.5);
  auto payload = std::make_shared<std::vector<uint8_t>>(60'000);
  for (size_t i = 0; i < payload->size(); ++i) {
    (*payload)[i] = static_cast<uint8_t>(i ^ (i >> 9));
  }
  const std::vector<uint8_t> pristine = *payload;
  std::vector<TaskId> tasks;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "s" + std::to_string(i) + ".emd";
    ASSERT_TRUE(src_store.put(name, storage::SharedBytes(payload), engine.now()));
    auto task = service->submit(single_file(name, name), token);
    ASSERT_TRUE(task);
    tasks.push_back(task.value());
  }
  engine.run();
  int detected = 0;
  for (const auto& id : tasks) {
    TaskInfo info = service->status(id);
    EXPECT_EQ(info.state, TaskState::Succeeded) << info.error;
    detected += info.corruption_detected;
  }
  EXPECT_GT(detected, 0);  // some landings were truncated and re-sent
  for (int i = 0; i < 6; ++i) {
    const std::string name = "s" + std::to_string(i) + ".emd";
    auto landed = dst_store.get(name);
    ASSERT_TRUE(landed);
    EXPECT_TRUE(landed.value()->intact());
    EXPECT_EQ(landed.value()->content, src_store.get(name).value()->content);
    EXPECT_TRUE(src_store.verify(name).value());
  }
  EXPECT_EQ(*payload, pristine);
}

TEST_F(StoreShared, CodecLandingGetsFreshBytes) {
  setup_service(quick_config());
  ASSERT_TRUE(
      src_store.put("c.emd", std::vector<uint8_t>(50'000, 7), engine.now()));
  auto req = single_file("c.emd", "c.emd");
  req.codec = "rle";
  ASSERT_TRUE(service->submit(req, token));
  engine.run();
  auto src = src_store.get("c.emd");
  auto landed = dst_store.get("c.emd");
  ASSERT_TRUE(landed);
  EXPECT_NE(landed.value()->content, src.value()->content);
  EXPECT_EQ(*landed.value()->content, *src.value()->content);
  EXPECT_TRUE(landed.value()->intact());
}

TEST_F(TransferFixture, ProgressHookRejectsClassicAndUnknownTasks) {
  setup_service(quick_config());
  ASSERT_TRUE(src_store.put("f", std::vector<uint8_t>(100), engine.now()));
  auto task = service->submit(single_file("f", "f"), token);
  ASSERT_TRUE(task);
  EXPECT_FALSE(service->on_progress(task.value(), [](int64_t) {}));
  EXPECT_FALSE(service->on_progress("xfer-999999", [](int64_t) {}));
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
}

}  // namespace
}  // namespace pico::transfer
