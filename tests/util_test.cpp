// Unit + property tests for the util module: JSON, RNG, stats, CRC, byte
// buffers, strings, units, time formatting, thread pool, ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/mmap.hpp"
#include "util/geometry.hpp"
#include "util/id.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"
#include "util/timefmt.hpp"
#include "util/units.hpp"
#include "util/xml.hpp"

namespace pico::util {
namespace {

// ---------------------------------------------------------------- JSON ----

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_EQ(Json::parse("true").value().as_bool(), true);
  EXPECT_EQ(Json::parse("false").value().as_bool(false), false);
  EXPECT_EQ(Json::parse("42").value().as_int(), 42);
  EXPECT_EQ(Json::parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").value().as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").value().as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").value().as_string(), "hi");
}

TEST(Json, IntegersPreservedExactly) {
  int64_t big = 9007199254740993;  // not representable as double
  auto parsed = Json::parse(std::to_string(big));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed.value().is_int());
  EXPECT_EQ(parsed.value().as_int(), big);
}

TEST(Json, ParsesNestedStructures) {
  auto r = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(r);
  const Json& j = r.value();
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_EQ(j.at("a")[2].at("b").as_string(), "c");
  EXPECT_TRUE(j.at_path("d.e").is_null());
  EXPECT_TRUE(j.contains("d"));
  EXPECT_FALSE(j.contains("zzz"));
}

TEST(Json, StringEscapes) {
  auto r = Json::parse(R"("line\nbreak \"quoted\" tab\t u:A")");
  ASSERT_TRUE(r);
  EXPECT_EQ(r.value().as_string(), "line\nbreak \"quoted\" tab\t u:A");
}

TEST(Json, UnicodeEscapeEncodesUtf8) {
  auto r = Json::parse(R"("é中")");
  ASSERT_TRUE(r);
  EXPECT_EQ(r.value().as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(Json::parse(""));
  EXPECT_FALSE(Json::parse("{"));
  EXPECT_FALSE(Json::parse("[1,]"));
  EXPECT_FALSE(Json::parse("{\"a\":}"));
  EXPECT_FALSE(Json::parse("trueX"));
  EXPECT_FALSE(Json::parse("\"unterminated"));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing"));
  EXPECT_FALSE(Json::parse("nul"));
  EXPECT_FALSE(Json::parse("\"bad \\q escape\""));
}

TEST(Json, RoundTripCompact) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})",
      R"([])",
      R"({})",
      R"([1,[2,[3,[4]]]])",
      R"({"empty":"","zero":0,"neg":-1})",
  };
  for (const char* doc : docs) {
    auto first = Json::parse(doc);
    ASSERT_TRUE(first) << doc;
    auto second = Json::parse(first.value().dump());
    ASSERT_TRUE(second) << doc;
    EXPECT_EQ(first.value(), second.value()) << doc;
  }
}

TEST(Json, PrettyPrintRoundTrips) {
  auto j = Json::object({{"k", Json::array({1, 2, 3})}, {"s", "v"}});
  auto re = Json::parse(j.dump(2));
  ASSERT_TRUE(re);
  EXPECT_EQ(re.value(), j);
}

TEST(Json, DeterministicKeyOrder) {
  Json a = Json::object({{"z", 1}, {"a", 2}});
  Json b = Json::object({{"a", 2}, {"z", 1}});
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(Json, AtPathMissingReturnsNull) {
  Json j = Json::object({{"a", Json::object({{"b", 1}})}});
  EXPECT_TRUE(j.at_path("a.c").is_null());
  EXPECT_TRUE(j.at_path("x.y.z").is_null());
  EXPECT_EQ(j.at_path("a.b").as_int(), 1);
}

TEST(Json, NanSerializesAsNull) {
  Json j(std::nan(""));
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, MutationHelpers) {
  Json j;
  j["a"] = 1;
  j["b"].push_back("x");
  j["b"].push_back("y");
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").size(), 2u);
  EXPECT_EQ(j.at("b")[1].as_string(), "y");
}

// Property: random JSON trees round-trip through dump/parse.
class JsonRoundTrip : public ::testing::TestWithParam<uint64_t> {};

Json random_json(Rng& rng, int depth) {
  int pick = static_cast<int>(rng.uniform_int(0, depth <= 0 ? 4 : 6));
  switch (pick) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.chance(0.5));
    case 2: return Json(rng.uniform_int(-1'000'000, 1'000'000));
    case 3: return Json(rng.uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      int n = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      return Json(s);
    }
    case 5: {
      Json arr = Json::array();
      int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n; ++i) arr.push_back(random_json(rng, depth - 1));
      return arr;
    }
    default: {
      Json obj = Json::object();
      int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth - 1);
      }
      return obj;
    }
  }
}

TEST_P(JsonRoundTrip, DumpParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json doc = random_json(rng, 4);
    auto re = Json::parse(doc.dump());
    ASSERT_TRUE(re);
    // Doubles may lose type distinction vs int on whole values; compare via
    // second serialization (stable fixed point).
    EXPECT_EQ(re.value().dump(), doc.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ----------------------------------------------------------------- RNG ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(99), b(99), c(100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(99);
  for (int i = 0; i < 10; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  for (double lambda : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.06 + 0.05) << lambda;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1, 0, 3};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) counts[rng.weighted_index(weights)] += 1;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// --------------------------------------------------------------- stats ----

TEST(Stats, BasicMoments) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.median(), 4.5);
}

TEST(Stats, PercentileInterpolates) {
  SampleStats s;
  for (int i = 1; i <= 5; ++i) s.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(Stats, EmptyIsSafe) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

TEST(Stats, MedianOrderIndependent) {
  Rng rng(37);
  SampleStats a, b;
  std::vector<double> values;
  for (int i = 0; i < 101; ++i) values.push_back(rng.uniform(0, 100));
  for (double v : values) a.add(v);
  std::reverse(values.begin(), values.end());
  for (double v : values) b.add(v);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
}

TEST(Stats, BoxStats) {
  SampleStats s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  auto b = BoxStats::from(s);
  EXPECT_DOUBLE_EQ(b.min, 0);
  EXPECT_DOUBLE_EQ(b.q1, 25);
  EXPECT_DOUBLE_EQ(b.median, 50);
  EXPECT_DOUBLE_EQ(b.q3, 75);
  EXPECT_DOUBLE_EQ(b.max, 100);
}

TEST(Stats, QuantilesFromSamples) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  auto q = Quantiles::from(s);
  EXPECT_EQ(q.count, 100u);
  EXPECT_DOUBLE_EQ(q.p50, s.percentile(50));
  EXPECT_DOUBLE_EQ(q.p90, s.percentile(90));
  EXPECT_DOUBLE_EQ(q.p99, s.percentile(99));
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
  EXPECT_EQ(q.to_string(),
            format("p50=%.3f p90=%.3f p99=%.3f (n=%zu)", q.p50, q.p90, q.p99,
                   q.count));
  Quantiles empty = Quantiles::from(SampleStats{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
}

TEST(ThreadPool, StatsCountWorkAndBacklog) {
  ThreadPool pool(2);
  pool.submit([] {}).wait();
  std::atomic<size_t> touched{0};
  pool.parallel_chunks(100, 10, [&](size_t b, size_t e) {
    touched += e - b;
  });
  EXPECT_EQ(touched.load(), 100u);

  PoolStats st = pool.stats();
  EXPECT_EQ(st.tasks_submitted, 1u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.chunks_executed, 10u);
  EXPECT_LE(st.caller_chunks, st.chunks_executed);
  // Utilization is bounded by the definition, not timing: chunk time over
  // capacity with a huge wall clock collapses toward zero.
  EXPECT_GE(st.utilization(1e9, 2), 0.0);
  EXPECT_EQ(st.utilization(0.0, 2), 0.0);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps into first bin
  h.add(0.5);
  h.add(9.9);
  h.add(100);  // clamps into last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_in_bin(0), 2u);
  EXPECT_EQ(h.count_in_bin(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

// ----------------------------------------------------------------- CRC ----

TEST(Crc64, KnownValuesStable) {
  // Self-consistency anchors (regression detection).
  uint64_t empty = crc64("", 0);
  uint64_t abc = crc64(std::string_view("abc"));
  EXPECT_EQ(empty, crc64(std::string_view("")));
  EXPECT_NE(abc, empty);
  EXPECT_EQ(abc, crc64(std::string_view("abc")));
  EXPECT_NE(crc64(std::string_view("abd")), abc);
}

TEST(Crc64, Ecma182CheckVector) {
  // CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout ~0): the standard
  // check value pins the implementation to the published parameterization,
  // so checksums baked into existing EMD files stay valid across rewrites.
  EXPECT_EQ(crc64(std::string_view("123456789")), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(crc64_bytewise("123456789", 9), 0x995DC9BBDF1939FAull);
}

TEST(Crc64, IncrementalMatchesOneShot) {
  std::string data = "The Dynamic PicoProbe produces 100s of GB per day";
  Crc64 inc;
  inc.update(data.data(), 10);
  inc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc.value(), crc64(data));
}

TEST(Crc64, SensitiveToSingleBitFlip) {
  std::vector<uint8_t> data(1024, 0xAB);
  uint64_t base = crc64(data);
  data[512] ^= 0x01;
  EXPECT_NE(crc64(data), base);
}

// --------------------------------------------------------------- bytes ----

TEST(Bytes, PrimitivesRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.u8(0xFF);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f32(2.5f);
  w.f64(-3.25);
  w.str("hello");

  ByteReader r(buf);
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  int64_t e;
  float f;
  double g;
  std::string s;
  ASSERT_TRUE(r.u8(&a));
  ASSERT_TRUE(r.u16(&b));
  ASSERT_TRUE(r.u32(&c));
  ASSERT_TRUE(r.u64(&d));
  ASSERT_TRUE(r.i64(&e));
  ASSERT_TRUE(r.f32(&f));
  ASSERT_TRUE(r.f64(&g));
  ASSERT_TRUE(r.str(&s));
  EXPECT_EQ(a, 0xFF);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFull);
  EXPECT_EQ(e, -42);
  EXPECT_FLOAT_EQ(f, 2.5f);
  EXPECT_DOUBLE_EQ(g, -3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, VarintRoundTripEdgeValues) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  UINT64_MAX, UINT64_MAX - 1, 1ull << 63};
  for (uint64_t v : values) w.varint(v);
  ByteReader r(buf);
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(r.varint(&out));
    EXPECT_EQ(out, v);
  }
}

TEST(Bytes, SignedVarintRoundTrip) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.svarint(v);
  ByteReader r(buf);
  for (int64_t v : values) {
    int64_t out;
    ASSERT_TRUE(r.svarint(&out));
    EXPECT_EQ(out, v);
  }
}

TEST(Bytes, TruncationDetected) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.u64(1);
  ByteReader r(buf.data(), 4);  // half the bytes
  uint64_t v;
  EXPECT_FALSE(r.u64(&v));
}

TEST(Bytes, MalformedVarintDetected) {
  // 11 continuation bytes: exceeds 64-bit range.
  std::vector<uint8_t> buf(11, 0x80);
  ByteReader r(buf);
  uint64_t v;
  EXPECT_FALSE(r.varint(&v));
}

TEST(Bytes, FileRoundTrip) {
  std::string path = testing::TempDir() + "/pico_bytes_test.bin";
  std::vector<uint8_t> data = {1, 2, 3, 250, 251};
  ASSERT_TRUE(write_file(path, data));
  auto read = read_file(path);
  ASSERT_TRUE(read);
  EXPECT_EQ(read.value(), data);
  EXPECT_FALSE(read_file(path + ".does-not-exist"));
}

// -------------------------------------------------------------- strings ----

TEST(Strings, SplitAndJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(split_ws("  a\t b\nc ").size(), 3u);
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_TRUE(starts_with("picoflow", "pico"));
  EXPECT_TRUE(ends_with("file.emd", ".emd"));
  EXPECT_FALSE(ends_with("x", ".emd"));
}

TEST(Strings, FormatAndHex) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(to_hex_u64(0x0102030405060708ull), "0102030405060708");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(91e6), "91.00 MB");
  EXPECT_EQ(human_bytes(1.2e9), "1.20 GB");
}

TEST(Strings, HtmlEscape) {
  EXPECT_EQ(html_escape("<a href=\"x\">&'</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

// ---------------------------------------------------------------- units ----

TEST(Units, ParseBytes) {
  EXPECT_EQ(parse_bytes("91MB").value(), 91'000'000);
  EXPECT_EQ(parse_bytes("1.2 GB").value(), 1'200'000'000);
  EXPECT_EQ(parse_bytes("42").value(), 42);
  EXPECT_EQ(parse_bytes("1 kb").value(), 1000);
  EXPECT_FALSE(parse_bytes("twelve"));
  EXPECT_FALSE(parse_bytes("5 parsecs"));
}

TEST(Units, ParseRates) {
  EXPECT_DOUBLE_EQ(parse_rate_bps("1Gbps").value(), 1e9);
  EXPECT_DOUBLE_EQ(parse_rate_bps("200 Gbps").value(), 200e9);
  EXPECT_DOUBLE_EQ(parse_rate_bps("65GB/s").value(), 65 * 8e9);
  EXPECT_FALSE(parse_rate_bps("fast"));
}

// ----------------------------------------------------------------- time ----

TEST(TimeFmt, Iso8601RoundTrip) {
  const char* stamps[] = {"2023-04-07T12:34:56Z", "1970-01-01T00:00:00Z",
                          "2000-02-29T23:59:59Z", "2026-07-08T06:00:00Z"};
  for (const char* s : stamps) {
    int64_t unix_s = 0;
    ASSERT_TRUE(parse_iso8601(s, &unix_s)) << s;
    EXPECT_EQ(format_iso8601(unix_s), s);
  }
}

TEST(TimeFmt, RejectsInvalidDates) {
  int64_t v;
  EXPECT_FALSE(parse_iso8601("2023-13-01T00:00:00Z", &v));
  EXPECT_FALSE(parse_iso8601("2023-02-30T00:00:00Z", &v));
  EXPECT_FALSE(parse_iso8601("not a date", &v));
}

TEST(TimeFmt, LeapYearHandling) {
  int64_t v;
  EXPECT_TRUE(parse_iso8601("2024-02-29", &v));
  EXPECT_FALSE(parse_iso8601("2023-02-29", &v));
  EXPECT_TRUE(parse_iso8601("2000-02-29", &v));
  EXPECT_FALSE(parse_iso8601("1900-02-29", &v));
}

TEST(TimeFmt, DurationFormatting) {
  EXPECT_EQ(format_duration(0.0), "00:00:00.000");
  EXPECT_EQ(format_duration(3661.5), "01:01:01.500");
  EXPECT_EQ(format_duration(-1.0), "-00:00:01.000");
}

TEST(TimeFmt, DatePrefix) {
  EXPECT_EQ(iso_date_prefix("2023-04-07T12:00:00Z"), "2023-04-07");
  EXPECT_EQ(iso_date_prefix("short"), "short");
}

// ------------------------------------------------------------ threadpool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](size_t) { FAIL(); });
}

// ------------------------------------------------------------------ ids ----

TEST(IdGen, UniqueAndDeterministic) {
  IdGen a(5), b(5);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    std::string id = a.next("task");
    EXPECT_EQ(id, b.next("task"));
    EXPECT_TRUE(seen.insert(id).second) << "duplicate " << id;
  }
}

// ------------------------------------------------------------- geometry ----

TEST(Geometry, IouIdentityAndDisjoint) {
  util::Box a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(iou(a, a), 1.0);
  util::Box b{20, 20, 5, 5};
  EXPECT_DOUBLE_EQ(iou(a, b), 0.0);
}

TEST(Geometry, IouKnownOverlap) {
  util::Box a{0, 0, 10, 10};
  util::Box b{5, 5, 10, 10};
  // intersection 25, union 175
  EXPECT_NEAR(iou(a, b), 25.0 / 175.0, 1e-12);
}

TEST(Geometry, IouSymmetricProperty) {
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    util::Box a{rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 20),
                rng.uniform(1, 20)};
    util::Box b{rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 20),
                rng.uniform(1, 20)};
    double ab = iou(a, b), ba = iou(b, a);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
}

TEST(Geometry, ClipStaysInViewport) {
  util::Box b{-5, -5, 20, 8};
  util::Box c = clip(b, 10, 10);
  EXPECT_DOUBLE_EQ(c.x, 0);
  EXPECT_DOUBLE_EQ(c.y, 0);
  EXPECT_DOUBLE_EQ(c.w, 10);
  EXPECT_DOUBLE_EQ(c.h, 3);
}

}  // namespace
}  // namespace pico::util

// ------------------------------------------------------------------ xml ----
// (appended with the HMSA support; exercised further in emd_test)
namespace pico::util {
namespace {

TEST(Xml, ParseSimpleDocument) {
  auto r = xml_parse(R"(<?xml version="1.0"?>
<Root Version="1.0">
  <!-- a comment -->
  <Child key="v&amp;al">text &lt;here&gt;</Child>
  <Empty/>
</Root>)");
  ASSERT_TRUE(r);
  const XmlNode& root = r.value();
  EXPECT_EQ(root.name, "Root");
  EXPECT_EQ(root.attr("Version"), "1.0");
  ASSERT_NE(root.child("Child"), nullptr);
  EXPECT_EQ(root.child("Child")->attr("key"), "v&al");
  EXPECT_EQ(root.child("Child")->text, "text <here>");
  ASSERT_NE(root.child("Empty"), nullptr);
  EXPECT_EQ(root.child("Missing"), nullptr);
}

TEST(Xml, SerializeParseRoundTrip) {
  XmlNode root;
  root.name = "Doc";
  root.attrs["a"] = "1 < 2 & \"q\"";
  XmlNode& child = root.add_child("Entry", "payload with <brackets>");
  child.attrs["id"] = "x'y";
  root.add_child("Entry", "second");
  root.ensure_child("Nested").add_child("Leaf", "deep");

  auto re = xml_parse(xml_serialize(root));
  ASSERT_TRUE(re);
  const XmlNode& back = re.value();
  EXPECT_EQ(back.attr("a"), "1 < 2 & \"q\"");
  auto entries = back.children_named("Entry");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->text, "payload with <brackets>");
  EXPECT_EQ(entries[0]->attr("id"), "x'y");
  EXPECT_EQ(back.child("Nested")->child_text("Leaf"), "deep");
}

TEST(Xml, RejectsMalformedDocuments) {
  EXPECT_FALSE(xml_parse(""));
  EXPECT_FALSE(xml_parse("<a>"));
  EXPECT_FALSE(xml_parse("<a></b>"));
  EXPECT_FALSE(xml_parse("<a attr></a>"));
  EXPECT_FALSE(xml_parse("<a x=unquoted></a>"));
  EXPECT_FALSE(xml_parse("<a/><b/>"));
  EXPECT_FALSE(xml_parse("just text"));
}

TEST(Xml, WhitespaceBetweenChildrenIgnored) {
  auto r = xml_parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(r);
  EXPECT_TRUE(r.value().text.empty());
  EXPECT_EQ(r.value().children.size(), 2u);
}

TEST(Xml, FuzzSafety) {
  Rng rng(0x31415);
  std::string base = "<Root a=\"1\"><Kid>text</Kid><Other/></Root>";
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    size_t pos = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(mutated.size() - 1)));
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    auto r = xml_parse(mutated);  // must not crash
    (void)r;
  }
}

// -------------------------------------------------------- fused CRC copy ----

TEST(Crc64Copy, MatchesScanAndCopiesBytes) {
  Rng rng(0xC0C0);
  // Lengths straddling the 8-byte slicing word: empty, sub-word, word
  // multiples, and odd tails.
  for (size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 64u, 65u, 1000u, 4096u, 4099u}) {
    std::vector<uint8_t> src(n);
    for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
    std::vector<uint8_t> dst(n + 1, 0xEE);  // canary past the end
    uint64_t fused = crc64_copy(dst.data(), src.data(), n);
    EXPECT_EQ(fused, crc64(src.data(), n)) << "n=" << n;
    EXPECT_EQ(fused, crc64_bytewise(src.data(), n)) << "n=" << n;
    EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin())) << "n=" << n;
    EXPECT_EQ(dst[n], 0xEE) << "n=" << n;  // no overwrite past n
  }
}

TEST(Crc64Copy, UnalignedSourceAndDestination) {
  Rng rng(0xA11);
  std::vector<uint8_t> arena(600);
  for (auto& b : arena) b = static_cast<uint8_t>(rng.next_u64());
  std::vector<uint8_t> out(600);
  for (size_t off = 0; off < 8; ++off) {
    const size_t n = 512 + off;
    uint64_t fused = crc64_copy(out.data() + (7 - off % 8),
                                arena.data() + off, n);
    EXPECT_EQ(fused, crc64(arena.data() + off, n)) << "off=" << off;
  }
}

TEST(Crc64Copy, UpdateCopyStreamsAcrossChunks) {
  Rng rng(0x5EED);
  std::vector<uint8_t> src(10'000);
  for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
  std::vector<uint8_t> dst(src.size());
  Crc64 rolling;
  size_t pos = 0;
  for (size_t chunk : {1u, 17u, 63u, 4096u, 5823u}) {
    size_t n = std::min(chunk, src.size() - pos);
    rolling.update_copy(dst.data() + pos, src.data() + pos, n);
    pos += n;
  }
  rolling.update_copy(dst.data() + pos, src.data() + pos, src.size() - pos);
  EXPECT_EQ(rolling.value(), crc64(src));
  EXPECT_EQ(dst, src);
}

// ------------------------------------------- carry-less-multiply CRC ----
// Inputs of 64+ bytes take the PCLMULQDQ fold where the CPU has it, shorter
// ones and every tail take slicing-by-8; PICO_SIMD=scalar pins slicing-by-8
// throughout. Each test holds on either dispatch, against the bytewise
// reference.

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc64Clmul, EveryShortLengthAtEveryOffsetMatchesBytewise) {
  const auto data = random_bytes(256 + 16, 0xC1C1);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t n = 0; n <= 256; ++n) {
      ASSERT_EQ(crc64(data.data() + off, n),
                crc64_bytewise(data.data() + off, n))
          << "off=" << off << " n=" << n;
    }
  }
}

TEST(Crc64Clmul, RandomLongLengthsMatchBytewise) {
  Rng rng(0xF01D);
  const auto data = random_bytes((64 << 10) + 16, 0xB16);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<size_t>(rng.uniform_int(0, 64 << 10));
    const auto off = static_cast<size_t>(rng.uniform_int(0, 15));
    ASSERT_EQ(crc64(data.data() + off, n), crc64_bytewise(data.data() + off, n))
        << "off=" << off << " n=" << n;
  }
}

TEST(Crc64Clmul, SplitUpdatesCarryStateBetweenPaths) {
  // Random cut points mix sub-64-byte pieces (table path) with long ones
  // (fold path), so the running state crosses between the two both ways.
  Rng rng(0x5B17);
  const auto data = random_bytes(20'000, 0x5B);
  const uint64_t want = crc64_bytewise(data.data(), data.size());
  for (int trial = 0; trial < 100; ++trial) {
    Crc64 rolling;
    Crc64 copying;
    std::vector<uint8_t> dst(data.size());
    size_t pos = 0;
    while (pos < data.size()) {
      const int64_t cap = rng.chance(0.5) ? 80 : 5000;
      const size_t n = std::min(static_cast<size_t>(rng.uniform_int(0, cap)),
                                data.size() - pos);
      rolling.update(data.data() + pos, n);
      copying.update_copy(dst.data() + pos, data.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(rolling.value(), want) << "trial=" << trial;
    ASSERT_EQ(copying.value(), want) << "trial=" << trial;
    ASSERT_EQ(dst, data) << "trial=" << trial;
  }
}

TEST(Crc64Clmul, CopyWritesExactBytesAndNothingPast) {
  constexpr size_t kGuard = 32;
  Rng rng(0xC0B1);
  const auto data = random_bytes(5000 + 16, 0xD5);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<size_t>(
        trial < 130 ? trial : rng.uniform_int(0, 5000));
    const auto src_off = static_cast<size_t>(rng.uniform_int(0, 15));
    const auto dst_off = static_cast<size_t>(rng.uniform_int(0, 15));
    std::vector<uint8_t> out(kGuard + dst_off + n + kGuard, 0xEE);
    uint8_t* dst = out.data() + kGuard + dst_off;
    const uint8_t* src = data.data() + src_off;
    ASSERT_EQ(crc64_copy(dst, src, n), crc64_bytewise(src, n)) << "n=" << n;
    ASSERT_TRUE(std::equal(src, src + n, dst)) << "n=" << n;
    for (uint8_t* g = out.data(); g < dst; ++g) ASSERT_EQ(*g, 0xEE);
    for (uint8_t* g = dst + n; g < out.data() + out.size(); ++g) {
      ASSERT_EQ(*g, 0xEE) << "n=" << n;
    }
  }
}

TEST(Crc64Clmul, CheckValueOnEveryEntryPoint) {
  const std::string_view check = "123456789";
  EXPECT_EQ(crc64(check), 0x995DC9BBDF1939FAull);
  char dst[9];
  EXPECT_EQ(crc64_copy(dst, check.data(), check.size()),
            0x995DC9BBDF1939FAull);
  // The check string repeated past the fold threshold: fold and reference
  // agree on the value the standard string anchors.
  std::string repeated;
  for (int i = 0; i < 100; ++i) repeated += check;
  EXPECT_EQ(crc64(repeated),
            crc64_bytewise(repeated.data(), repeated.size()));
}

// ------------------------------------------------------------------ arena ----

TEST(Arena, AlignmentAndDisjointness) {
  Arena arena(1024);
  std::vector<std::pair<uint8_t*, size_t>> allocs;
  Rng rng(0xAAA);
  for (int i = 0; i < 100; ++i) {
    size_t n = static_cast<size_t>(rng.uniform_int(1, 200));
    uint8_t* p = arena.allocate_bytes(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    std::memset(p, i & 0xFF, n);  // sanitizers catch overlap/overflow
    allocs.emplace_back(p, n);
  }
  // Every allocation still holds its own fill pattern: no two overlapped.
  for (int i = 0; i < 100; ++i) {
    auto [p, n] = allocs[static_cast<size_t>(i)];
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(p[j], i & 0xFF);
  }
  EXPECT_GE(arena.reserved_bytes(), arena.allocated_bytes());
}

TEST(Arena, ResetRetainsSlabs) {
  Arena arena(4096);
  for (int i = 0; i < 10; ++i) arena.allocate(1000);
  size_t reserved = arena.reserved_bytes();
  size_t blocks = arena.block_count();
  arena.reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  // Steady state: the same allocation pattern fits in the retained slabs.
  for (int i = 0; i < 10; ++i) arena.allocate(1000);
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(Arena, OversizedRequestGetsDedicatedSlab) {
  Arena arena(1024);
  uint8_t* small = arena.allocate_bytes(100);
  std::memset(small, 0x11, 100);
  uint8_t* big = arena.allocate_bytes(10'000);  // > slab size
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 64, 0u);
  std::memset(big, 0xBB, 10'000);
  // The bump block survives the oversized detour.
  uint8_t* next = arena.allocate_bytes(100);
  ASSERT_NE(next, nullptr);
  std::memset(next, 0xCC, 100);
  EXPECT_EQ(small[0], 0x11);
  EXPECT_EQ(small[99], 0x11);
  EXPECT_EQ(big[9999], 0xBB);
}

// ------------------------------------------------------------ buffer pool ----

TEST(BufferPool, SizeClassesArePowersOfTwo) {
  EXPECT_EQ(BufferPool::size_class(0), 4096u);
  EXPECT_EQ(BufferPool::size_class(1), 4096u);
  EXPECT_EQ(BufferPool::size_class(4096), 4096u);
  EXPECT_EQ(BufferPool::size_class(4097), 8192u);
  EXPECT_EQ(BufferPool::size_class(100'000), 131'072u);
}

TEST(BufferPool, LeaseReturnsAndGetsReused) {
  BufferPool pool;
  const uint8_t* first_ptr = nullptr;
  {
    auto lease = pool.acquire(10'000);
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(lease.size(), 10'000u);
    first_ptr = lease.data();
    std::memset(lease.data(), 0xAB, lease.size());
  }  // returned to the free list
  auto again = pool.acquire(9'000);  // same 16 KiB class
  EXPECT_EQ(again.data(), first_ptr);
  auto stats = pool.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.allocated, 1u);
  EXPECT_EQ(stats.reused, 1u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool;
  auto a = pool.acquire(100);
  uint8_t* p = a.data();
  BufferPool::Lease b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.data(), p);
}

TEST(BufferPool, SharedLeaseBackingFramePayloads) {
  BufferPool pool;
  auto shared = std::make_shared<BufferPool::Lease>(pool.acquire(256));
  std::memset(shared->data(), 0x5A, shared->size());
  auto copy1 = shared;
  auto copy2 = shared;
  shared.reset();
  EXPECT_EQ(copy1->data(), copy2->data());
  EXPECT_EQ(copy1->span()[255], 0x5A);
  copy1.reset();
  EXPECT_EQ(copy2->span()[0], 0x5A);  // last owner keeps the bytes alive
}

TEST(BufferPool, FreeListDepthIsBounded) {
  BufferPool pool(/*max_cached_per_class=*/2);
  std::vector<BufferPool::Lease> leases;
  for (int i = 0; i < 5; ++i) leases.push_back(pool.acquire(100));
  leases.clear();  // 5 returns into a depth-2 free list
  auto stats = pool.stats();
  EXPECT_EQ(stats.dropped, 3u);
  EXPECT_EQ(stats.cached_bytes, 2u * 4096u);
}

// ------------------------------------------------------------ mapped file ----

TEST(MappedFile, MapsBytesIdenticalToHeapRead) {
  std::string path = testing::TempDir() + "/pico_mmap_test.bin";
  Rng rng(0x3333);
  std::vector<uint8_t> data(100'000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next_u64());
  ASSERT_TRUE(write_file(path, data));

  auto mf = MappedFile::open(path);
  ASSERT_TRUE(mf);
  EXPECT_EQ(mf.value().size(), data.size());
  auto bytes = mf.value().bytes();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), bytes.begin()));
}

TEST(MappedFile, EmptyFileAndMissingFile) {
  std::string path = testing::TempDir() + "/pico_mmap_empty.bin";
  ASSERT_TRUE(write_file(path, std::vector<uint8_t>{}));
  auto mf = MappedFile::open(path);
  ASSERT_TRUE(mf);
  EXPECT_EQ(mf.value().size(), 0u);
  EXPECT_TRUE(mf.value().bytes().empty());

  EXPECT_FALSE(MappedFile::open(testing::TempDir() + "/pico_no_such_file"));
}

TEST(MappedFile, MoveKeepsMappingAlive) {
  std::string path = testing::TempDir() + "/pico_mmap_move.bin";
  std::vector<uint8_t> data{1, 2, 3, 4, 5};
  ASSERT_TRUE(write_file(path, data));
  auto mf = MappedFile::open(path);
  ASSERT_TRUE(mf);
  MappedFile moved = std::move(mf).value();
  auto bytes = moved.bytes();
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes[4], 5);
}

}  // namespace
}  // namespace pico::util
