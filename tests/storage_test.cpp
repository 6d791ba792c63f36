// Store tests: capacity accounting, real vs virtual objects, listing.
#include <gtest/gtest.h>

#include "storage/store.hpp"
#include "util/crc64.hpp"

namespace pico::storage {
namespace {

sim::SimTime at(double s) { return sim::SimTime::from_seconds(s); }

TEST(Store, PutGetRealContent) {
  Store store("test", 1000);
  std::vector<uint8_t> data = {1, 2, 3, 4};
  ASSERT_TRUE(store.put("a/b.emd", data, at(1)));
  auto obj = store.get("a/b.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->size, 4);
  EXPECT_TRUE(obj.value()->has_content());
  EXPECT_EQ(*obj.value()->content, data);
  EXPECT_EQ(obj.value()->crc64, util::crc64(data));
  EXPECT_DOUBLE_EQ(obj.value()->created.seconds(), 1.0);
}

TEST(Store, PutWithCrcTrustsTheFusedChecksum) {
  Store store("test", 1000);
  auto data = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>{9, 8, 7, 6, 5});
  const uint64_t crc = util::crc64(*data);
  ASSERT_TRUE(store.put_with_crc("fused.emd", data, crc, at(2)));
  auto obj = store.get("fused.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->crc64, crc);
  EXPECT_EQ(obj.value()->stored_crc64, crc);
  EXPECT_TRUE(obj.value()->intact());
  EXPECT_TRUE(store.verify("fused.emd").value());

  // A wrong declared checksum is NOT caught at write time (the whole point
  // is skipping the scan): the store trusts it as both manifest and media
  // checksum. The landing callers compute the CRC from the landed bytes
  // themselves (crc64 scan / decode_frame), so they cannot declare wrong —
  // only a content rescan would expose a lie.
  ASSERT_TRUE(store.put_with_crc("lied.emd", data, crc ^ 1, at(3)));
  auto lied = store.get("lied.emd");
  ASSERT_TRUE(lied);
  EXPECT_TRUE(lied.value()->intact());  // trusted, not verified
  EXPECT_NE(util::crc64(*lied.value()->content), lied.value()->crc64);
}

TEST(Store, VirtualObjectCarriesSizeAndCrc) {
  Store store("eagle", static_cast<int64_t>(100e15));
  ASSERT_TRUE(store.put_virtual("x.emd", 1'200'000'000, 0xABCD, at(0)));
  auto obj = store.get("x.emd");
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj.value()->size, 1'200'000'000);
  EXPECT_FALSE(obj.value()->has_content());
  EXPECT_EQ(obj.value()->crc64, 0xABCDu);
  EXPECT_EQ(store.used_bytes(), 1'200'000'000);
}

TEST(Store, CapacityEnforced) {
  Store store("tiny", 10);
  EXPECT_TRUE(store.put("a", std::vector<uint8_t>(6), at(0)));
  auto st = store.put("b", std::vector<uint8_t>(5), at(0));
  EXPECT_FALSE(st);
  EXPECT_EQ(st.error().code, "capacity");
  EXPECT_EQ(store.used_bytes(), 6);
  // Exactly filling is fine.
  EXPECT_TRUE(store.put("c", std::vector<uint8_t>(4), at(0)));
}

TEST(Store, OverwriteAdjustsUsage) {
  Store store("s", 100);
  ASSERT_TRUE(store.put("f", std::vector<uint8_t>(60), at(0)));
  // Replacing with a smaller object frees space.
  ASSERT_TRUE(store.put("f", std::vector<uint8_t>(10), at(1)));
  EXPECT_EQ(store.used_bytes(), 10);
  ASSERT_TRUE(store.put("g", std::vector<uint8_t>(80), at(2)));
  EXPECT_FALSE(store.put("f", std::vector<uint8_t>(30), at(3)));
  EXPECT_EQ(store.used_bytes(), 90);
}

TEST(Store, RemoveFreesSpace) {
  Store store("s", 100);
  ASSERT_TRUE(store.put("f", std::vector<uint8_t>(50), at(0)));
  ASSERT_TRUE(store.remove("f"));
  EXPECT_EQ(store.used_bytes(), 0);
  EXPECT_FALSE(store.exists("f"));
  EXPECT_FALSE(store.remove("f"));
  EXPECT_FALSE(store.get("f"));
}

TEST(Store, ListByPrefix) {
  Store store("s", 1000);
  ASSERT_TRUE(store.put("exp/a.emd", std::vector<uint8_t>(1), at(0)));
  ASSERT_TRUE(store.put("exp/b.emd", std::vector<uint8_t>(1), at(0)));
  ASSERT_TRUE(store.put("other/c.emd", std::vector<uint8_t>(1), at(0)));
  auto listed = store.list("exp/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "exp/a.emd");
  EXPECT_EQ(store.list().size(), 3u);
  EXPECT_TRUE(store.list("zzz").empty());
  EXPECT_EQ(store.object_count(), 3u);
}

// ---- integrity surface: corruption, truncation, verify, quarantine ----

TEST(StoreIntegrity, WriteThenCorruptThenReadDetectsDamage) {
  Store store("s", 1000);
  std::vector<uint8_t> data = {10, 20, 30, 40, 50};
  ASSERT_TRUE(store.put("f.emd", data, at(0)));
  ASSERT_TRUE(store.verify("f.emd"));
  EXPECT_TRUE(store.verify("f.emd").value());

  ASSERT_TRUE(store.corrupt("f.emd"));
  auto obj = store.get("f.emd");
  ASSERT_TRUE(obj);
  // Declared checksum still describes the original bytes; the media copy no
  // longer matches it.
  EXPECT_EQ(obj.value()->crc64, util::crc64(data));
  EXPECT_FALSE(obj.value()->intact());
  auto ok = store.verify("f.emd");
  ASSERT_TRUE(ok);
  EXPECT_FALSE(ok.value());
}

TEST(StoreIntegrity, CorruptVirtualObjectDetected) {
  Store store("eagle", static_cast<int64_t>(1e12));
  ASSERT_TRUE(store.put_virtual("v.emd", 1'000'000, 0xBEEF, at(0)));
  ASSERT_TRUE(store.corrupt("v.emd", 7));
  auto ok = store.verify("v.emd");
  ASSERT_TRUE(ok);
  EXPECT_FALSE(ok.value());
  EXPECT_FALSE(store.get("v.emd").value()->intact());
  EXPECT_FALSE(store.corrupt("missing"));
  EXPECT_FALSE(store.verify("missing"));
}

TEST(StoreIntegrity, TruncateShrinksMediaCopyNotDeclaration) {
  Store store("s", 1000);
  std::vector<uint8_t> data(100, 7);
  ASSERT_TRUE(store.put("t.emd", data, at(0)));
  ASSERT_TRUE(store.truncate("t.emd", 40));
  auto obj = store.get("t.emd");
  ASSERT_TRUE(obj);
  // Manifest-declared size/crc keep the full-file values so verification can
  // notice the loss.
  EXPECT_EQ(obj.value()->size, 100);
  EXPECT_EQ(obj.value()->crc64, util::crc64(data));
  EXPECT_FALSE(obj.value()->intact());
  EXPECT_FALSE(store.truncate("t.emd", 100));  // must actually shrink
  EXPECT_FALSE(store.truncate("t.emd", -1));
  EXPECT_FALSE(store.truncate("missing", 1));
}

TEST(StoreIntegrity, QuarantineRemovesFromNamespaceAndFreesSpace) {
  Store store("s", 100);
  ASSERT_TRUE(store.put("bad.emd", std::vector<uint8_t>(60), at(0)));
  ASSERT_TRUE(store.corrupt("bad.emd"));
  ASSERT_TRUE(store.quarantine("bad.emd"));
  EXPECT_FALSE(store.exists("bad.emd"));
  EXPECT_EQ(store.used_bytes(), 0);  // capacity released for the repair copy
  EXPECT_EQ(store.quarantine_count(), 1u);
  ASSERT_EQ(store.quarantined().size(), 1u);
  EXPECT_EQ(store.quarantined()[0], "bad.emd");
  EXPECT_FALSE(store.quarantine("bad.emd"));  // already gone
  // A clean replacement can land under the original path.
  ASSERT_TRUE(store.put("bad.emd", std::vector<uint8_t>(60), at(1)));
  EXPECT_TRUE(store.verify("bad.emd").value());
}

TEST(StoreIntegrity, CorruptRandomIsSeededAndScoped) {
  Store a("a", static_cast<int64_t>(1e9));
  Store b("b", static_cast<int64_t>(1e9));
  for (int i = 0; i < 50; ++i) {
    std::string path = "exp/f" + std::to_string(i) + ".emd";
    ASSERT_TRUE(a.put(path, std::vector<uint8_t>(100, 1), at(0)));
    ASSERT_TRUE(b.put(path, std::vector<uint8_t>(100, 1), at(0)));
  }
  auto hit_a = a.corrupt_random(0.3, 1234);
  auto hit_b = b.corrupt_random(0.3, 1234);
  EXPECT_FALSE(hit_a.empty());
  EXPECT_LT(hit_a.size(), 50u);
  EXPECT_EQ(hit_a, hit_b);  // same seed, same victims: reproducible chaos
  for (const auto& path : hit_a) {
    EXPECT_FALSE(a.verify(path).value()) << path;
  }
  // Prefix scoping: nothing outside the prefix is touched.
  Store c("c", static_cast<int64_t>(1e9));
  ASSERT_TRUE(c.put("keep/safe.emd", std::vector<uint8_t>(10), at(0)));
  ASSERT_TRUE(c.put("exp/x.emd", std::vector<uint8_t>(10), at(0)));
  c.corrupt_random(1.0, 99, "exp/");
  EXPECT_TRUE(c.verify("keep/safe.emd").value());
  EXPECT_FALSE(c.verify("exp/x.emd").value());
}

}  // namespace
}  // namespace pico::storage

// ---- scrubber: periodic at-rest verification + quarantine + repair ----
#include "storage/scrubber.hpp"

namespace pico::storage {
namespace {

TEST(Scrubber, ScanQuarantinesCorruptObjectsAndRequestsRepair) {
  sim::Engine engine;
  Store store("eagle", static_cast<int64_t>(1e9));
  ASSERT_TRUE(store.put("exp/good.emd", std::vector<uint8_t>(10), at(0)));
  ASSERT_TRUE(store.put("exp/bad.emd", std::vector<uint8_t>(10), at(0)));
  ASSERT_TRUE(store.corrupt("exp/bad.emd"));

  ScrubberConfig cfg;
  cfg.prefix = "exp/";
  Scrubber scrubber(&engine, &store, cfg);
  std::vector<std::string> repairs;
  scrubber.set_repair([&](const std::string& path) { repairs.push_back(path); });

  EXPECT_EQ(scrubber.scan_once(), 1);
  EXPECT_EQ(store.quarantine_count(), 1u);
  EXPECT_TRUE(store.exists("exp/good.emd"));
  EXPECT_FALSE(store.exists("exp/bad.emd"));
  ASSERT_EQ(repairs.size(), 1u);
  EXPECT_EQ(repairs[0], "exp/bad.emd");
  EXPECT_EQ(scrubber.stats().corrupt_found, 1u);
  EXPECT_EQ(scrubber.stats().repairs_requested, 1u);
}

TEST(Scrubber, PeriodicPassesStopAtHorizon) {
  sim::Engine engine;
  Store store("eagle", static_cast<int64_t>(1e9));
  ASSERT_TRUE(store.put("a.emd", std::vector<uint8_t>(10), at(0)));

  ScrubberConfig cfg;
  cfg.interval_s = 100;
  cfg.horizon_s = 350;  // passes at 100, 200, 300 — then the queue drains
  Scrubber scrubber(&engine, &store, cfg);
  scrubber.start();
  engine.run();
  EXPECT_EQ(scrubber.stats().scans, 3u);
  EXPECT_EQ(scrubber.stats().objects_checked, 3u);
  EXPECT_EQ(scrubber.stats().corrupt_found, 0u);
  EXPECT_DOUBLE_EQ(engine.now().seconds(), 300.0);
}

TEST(Scrubber, NonPositiveIntervalDisablesScrubbing) {
  // A zero (or negative) cadence means "no scrubbing" — not a pass every
  // virtual instant. The old behaviour re-scheduled at the same timestamp
  // forever, so engine.run() never returned.
  for (double interval : {0.0, -5.0}) {
    sim::Engine engine;
    Store store("eagle", static_cast<int64_t>(1e9));
    ASSERT_TRUE(store.put("a.emd", std::vector<uint8_t>(10), at(0)));
    ASSERT_TRUE(store.corrupt("a.emd"));

    ScrubberConfig cfg;
    cfg.interval_s = interval;
    Scrubber scrubber(&engine, &store, cfg);
    scrubber.start();
    engine.run();  // queue must drain immediately
    EXPECT_EQ(scrubber.stats().scans, 0u) << "interval=" << interval;
    EXPECT_EQ(store.quarantine_count(), 0u);
    EXPECT_DOUBLE_EQ(engine.now().seconds(), 0.0);
  }
}

TEST(Scrubber, MidCampaignCorruptionCaughtOnNextPass) {
  sim::Engine engine;
  Store store("eagle", static_cast<int64_t>(1e9));
  ASSERT_TRUE(store.put("f.emd", std::vector<uint8_t>(64), at(0)));

  ScrubberConfig cfg;
  cfg.interval_s = 60;
  cfg.horizon_s = 200;
  Scrubber scrubber(&engine, &store, cfg);
  std::vector<double> repair_times;
  scrubber.set_repair(
      [&](const std::string&) { repair_times.push_back(engine.now().seconds()); });
  scrubber.start();
  // Bit rot strikes between the first (t=60) and second (t=120) passes.
  engine.schedule_at(at(90), [&] { ASSERT_TRUE(store.corrupt("f.emd")); });
  engine.run();
  ASSERT_EQ(repair_times.size(), 1u);
  EXPECT_DOUBLE_EQ(repair_times[0], 120.0);
  EXPECT_EQ(store.quarantine_count(), 1u);
}

// ---- shared payloads: one immutable buffer, copy-on-write fault surface ----

SharedBytes pattern_bytes(size_t n) {
  auto bytes = std::make_shared<std::vector<uint8_t>>(n);
  for (size_t i = 0; i < n; ++i) (*bytes)[i] = static_cast<uint8_t>(i * 7 + 3);
  return bytes;
}

TEST(StoreShared, DamageStaysWithTheDamagedObject) {
  const SharedBytes payload = pattern_bytes(4096);
  const std::vector<uint8_t> pristine = *payload;
  const uint64_t crc = util::crc64(pristine);

  // Stage one buffer under two paths, then land both on Eagle by reference.
  Store user("user", 1 << 20);
  Store eagle("eagle", 1 << 20);
  ASSERT_TRUE(user.put("stage/a.emd", payload, at(0)));
  ASSERT_TRUE(user.put("stage/b.emd", payload, at(0)));
  for (const char* path : {"stage/a.emd", "stage/b.emd"}) {
    auto src = user.get(path);
    ASSERT_TRUE(src);
    ASSERT_TRUE(eagle.put_with_crc(path, src.value()->content, crc, at(1)));
  }
  for (Store* store : {&user, &eagle}) {
    for (const char* path : {"stage/a.emd", "stage/b.emd"}) {
      EXPECT_EQ(store->get(path).value()->content, payload)
          << store->name() << " " << path << " should share, not copy";
    }
  }

  ASSERT_TRUE(eagle.corrupt("stage/a.emd", 12345));
  ASSERT_TRUE(user.truncate("stage/b.emd", 1000));

  EXPECT_FALSE(eagle.verify("stage/a.emd").value());
  EXPECT_FALSE(user.verify("stage/b.emd").value());
  EXPECT_NE(eagle.get("stage/a.emd").value()->content, payload);
  EXPECT_EQ(user.get("stage/b.emd").value()->content->size(), 1000u);
  // Every sibling still verifies and still holds the original bytes.
  for (auto [store, path] : {std::pair{&user, "stage/a.emd"},
                             std::pair{&eagle, "stage/b.emd"}}) {
    EXPECT_TRUE(store->verify(path).value()) << store->name() << " " << path;
    EXPECT_EQ(*store->get(path).value()->content, pristine)
        << store->name() << " " << path;
  }
  EXPECT_EQ(*payload, pristine);  // the caller's buffer is untouched
}

TEST(StoreShared, UsedBytesCountsEachObjectsDeclaredSize) {
  const SharedBytes payload = pattern_bytes(100);
  Store store("s", 1000);
  ASSERT_TRUE(store.put("a", payload, at(0)));
  ASSERT_TRUE(store.put("b", payload, at(0)));
  EXPECT_EQ(store.used_bytes(), 200);  // sharing is not deduplication
  ASSERT_TRUE(store.truncate("b", 10));
  EXPECT_EQ(store.used_bytes(), 200);  // declared size, not surviving bytes
  ASSERT_TRUE(store.remove("a"));
  EXPECT_EQ(store.used_bytes(), 100);
}

TEST(StoreShared, EveryPutReportsCapacityNeed) {
  Store store("tiny", 10);
  ASSERT_TRUE(store.put_virtual("v", 8, 0xAB, at(0)));
  const std::vector<util::Status> refused = {
      store.put("a", std::vector<uint8_t>(5), at(0)),
      store.put("b", pattern_bytes(5), at(0)),
      store.put_with_crc("c", pattern_bytes(5), 0, at(0)),
      store.put_virtual("d", 5, 0xCD, at(0)),
  };
  for (const auto& st : refused) {
    ASSERT_FALSE(st);
    EXPECT_EQ(st.error().code, "capacity");
    EXPECT_EQ(st.error().message, "store tiny full: need 13 over capacity 10");
  }
  EXPECT_EQ(store.used_bytes(), 8);
  EXPECT_EQ(store.object_count(), 1u);
}

}  // namespace
}  // namespace pico::storage
