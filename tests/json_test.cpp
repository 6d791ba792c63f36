// JSON object and serializer oracles: the flat sorted-vector object against
// a test-only std::map reference (the representation it replaced), dump()'s
// numbers against printf, and the parser's nesting limit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace pico::util {
namespace {

using RefObject = std::map<std::string, Json>;

/// Short keys over an alphabet with NUL, DEL and high-bit bytes, so
/// collisions are common and unsigned byte order is exercised.
std::string random_key(Rng& rng) {
  static constexpr char kAlphabet[] = {'a', 'b', 'B', '\0', '\x7f',
                                       '\x80', '\xc3', '\xff'};
  std::string k;
  const int n = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n; ++i) {
    k.push_back(kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 1)]);
  }
  return k;
}

Json random_value(Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth > 0 ? 5 : 3)) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.uniform_int(-1000, 1000));
    case 2: return Json(rng.uniform(-1e3, 1e3));
    case 3: return Json(random_key(rng));
    case 4: {
      Json a = Json::array();
      for (int i = rng.uniform_int(0, 3); i > 0; --i) {
        a.push_back(random_value(rng, depth - 1));
      }
      return a;
    }
    default: {
      Json o = Json::object();
      for (int i = rng.uniform_int(0, 4); i > 0; --i) {
        o[random_key(rng)] = random_value(rng, depth - 1);
      }
      return o;
    }
  }
}

/// Compact serialization of the reference, in std::map's key order.
std::string ref_dump(const RefObject& ref) {
  if (ref.empty()) return "{}";
  std::string out = "{";
  for (const auto& [k, v] : ref) {
    if (out.size() > 1) out += ',';
    out += Json(k).dump();
    out += ':';
    out += v.dump();
  }
  return out + "}";
}

void expect_matches(const Json& j, const RefObject& ref) {
  ASSERT_TRUE(j.is_object());
  ASSERT_EQ(j.size(), ref.size());
  auto r = ref.begin();
  for (const auto& [k, v] : j.as_object()) {
    ASSERT_EQ(k, r->first);
    ASSERT_EQ(v, r->second) << v.dump() << " vs " << r->second.dump();
    ++r;
  }
  EXPECT_EQ(j.dump(), ref_dump(ref));
}

class JsonObjectOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonObjectOracle, RandomOperationsMatchStdMap) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    Json j = Json::object();
    RefObject ref;
    for (int op = 0; op < 60; ++op) {
      const std::string key = random_key(rng);
      switch (rng.uniform_int(0, 5)) {
        case 0: {  // insert or overwrite
          Json v = random_value(rng, 2);
          j[key] = v;
          ref[key] = v;
          break;
        }
        case 1: {  // operator[] alone inserts null in place
          j[key];
          ref[key];
          break;
        }
        case 2: {  // lookups
          auto it = ref.find(key);
          EXPECT_EQ(j.contains(key), it != ref.end());
          EXPECT_EQ(j.at(key), it == ref.end() ? Json() : it->second);
          break;
        }
        case 3: {  // mutable iteration rewrites values, in key order
          int64_t n = 0;
          for (auto& [k, v] : j.mutable_object()) v = Json(n++);
          n = 0;
          for (auto& [k, v] : ref) v = Json(n++);
          break;
        }
        case 4: {  // copies compare equal and stay independent
          Json copy = j;
          EXPECT_EQ(copy, j);
          copy[key] = "changed";
          EXPECT_EQ(j.at(key), ref.count(key) ? ref.at(key) : Json());
          break;
        }
        default: {  // a nested object written through operator[]
          Json& child = j[key];
          child["x"] = op;
          Json expect;
          expect["x"] = op;
          if (ref[key].is_object()) {
            Json merged = ref[key];
            merged["x"] = op;
            expect = merged;
          }
          ref[key] = expect;
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(j, ref)) << "op " << op;
    }
    auto re = Json::parse(j.dump());
    ASSERT_TRUE(re);
    EXPECT_EQ(re.value().dump(), j.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonObjectOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(JsonObjectOracle, HighBitKeysSortUnsigned) {
  Json j = Json::object({{"\xff", 1}, {"a", 2}, {"\x80z", 3}, {"", 4},
                         {std::string("\0", 1), 5}, {"\x7f", 6}});
  std::vector<std::string> keys;
  for (const auto& [k, v] : j.as_object()) keys.push_back(k);
  const std::vector<std::string> expect = {
      "", std::string("\0", 1), "a", "\x7f", "\x80z", "\xff"};
  EXPECT_EQ(keys, expect);
  EXPECT_EQ(j.dump(), "{\"\":4,\"\\u0000\":5,\"a\":2,\"\x7f\":6,"
                      "\"\x80z\":3,\"\xff\":1}");
}

TEST(JsonObjectOracle, ObjectLiteralKeepsTheFirstDuplicate) {
  const std::initializer_list<std::pair<const std::string, Json>> init = {
      {"b", 1}, {"a", 2}, {"b", 3}, {"c", 4}, {"a", 5}, {"b", 6}};
  const Json j = Json::object(init);
  const RefObject ref(init);  // std::map's range insert
  expect_matches(j, ref);
  EXPECT_EQ(j.at("b").as_int(), 1);
  EXPECT_EQ(j.at("a").as_int(), 2);
}

TEST(JsonObjectOracle, ParseKeepsTheLastDuplicate) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    RefObject ref;
    std::string text = "{";
    for (int i = rng.uniform_int(0, 12); i > 0; --i) {
      const std::string key = random_key(rng);
      const Json v = random_value(rng, 2);
      if (text.size() > 1) text += ", ";
      text += Json(key).dump() + ": " + v.dump();
      ref[key] = v;  // what `out[key] = v` kept
    }
    text += "}";
    auto j = Json::parse(text);
    ASSERT_TRUE(j) << text;
    ASSERT_NO_FATAL_FAILURE(expect_matches(j.value(), ref)) << text;
  }
}

TEST(JsonObjectOracle, ParsesALargeDescendingObject) {
  // 10^5 members written in descending key order, each key twice: the
  // parser sorts once, so this stays O(n log n).
  constexpr int kMembers = 100000;
  std::string text = "{";
  char key[16];
  for (int i = kMembers - 1; i >= 0; --i) {
    std::snprintf(key, sizeof(key), "k%06d", i);
    text += "\"";
    text += key;
    text += "\":" + std::to_string(-i) + ",\"" + key + "\":" +
            std::to_string(i) + (i ? "," : "");
  }
  text += "}";
  auto j = Json::parse(text);
  ASSERT_TRUE(j);
  ASSERT_EQ(j.value().size(), static_cast<size_t>(kMembers));
  int expect = 0;
  for (const auto& [k, v] : j.value().as_object()) {
    std::snprintf(key, sizeof(key), "k%06d", expect);
    ASSERT_EQ(k, key);
    ASSERT_EQ(v.as_int(), expect);
    ++expect;
  }
  EXPECT_EQ(j.value().at("k050000").as_int(), 50000);
}

TEST(JsonObjectOracle, EqualityComparesMembersInOrder) {
  Rng rng(5);
  for (int round = 0; round < 500; ++round) {
    Json a = Json::object(), b = Json::object();
    RefObject ra, rb;
    for (int i = rng.uniform_int(0, 4); i > 0; --i) {
      const std::string k = random_key(rng);
      const Json v = Json(rng.uniform_int(0, 1));
      a[k] = v;
      ra[k] = v;
    }
    for (int i = rng.uniform_int(0, 4); i > 0; --i) {
      const std::string k = random_key(rng);
      const Json v = Json(rng.uniform_int(0, 1));
      b[k] = v;
      rb[k] = v;
    }
    EXPECT_EQ(a == b, ra == rb) << a.dump() << " vs " << b.dump();
  }
  // Insertion order does not matter; the sorted members do.
  Json x, y;
  x["p"] = 1;
  x["q"] = 2;
  y["q"] = 2;
  y["p"] = 1;
  EXPECT_EQ(x, y);
  y["q"] = 3;
  EXPECT_NE(x, y);
}

TEST(JsonObjectOracle, EmptyAndNestedObjectsRoundTrip) {
  const Json empty = Json::object();
  EXPECT_EQ(empty.dump(), "{}");
  EXPECT_EQ(empty.dump(2), "{}");
  EXPECT_EQ(Json::parse("{}").value(), empty);
  EXPECT_NE(empty, Json());
  EXPECT_NE(empty, Json::array());

  Rng rng(11);
  for (int round = 0; round < 300; ++round) {
    const Json x = random_value(rng, 4);
    for (int indent : {-1, 0, 2}) {
      auto re = Json::parse(x.dump(indent));
      ASSERT_TRUE(re) << x.dump();
      // A whole double reads back as an int; compare the serialized forms.
      EXPECT_EQ(re.value().dump(), x.dump());
    }
  }
  const Json nested = Json::object(
      {{"a", Json::object({{"b", Json::object({{"c", Json::object()}})}})},
       {"d", Json::array({Json::object(), Json::object({{"e", 1}})})}});
  EXPECT_EQ(Json::parse(nested.dump()).value(), nested);
  EXPECT_EQ(nested.at_path("a.b.c"), Json::object());
}

// ---- numbers: dump() agrees with printf ----

std::string printf_17g(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

void expect_double_dump(double d) {
  if (std::isnan(d) || std::isinf(d)) {
    EXPECT_EQ(Json(d).dump(), "null");
  } else {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(d));
    EXPECT_EQ(Json(d).dump(), printf_17g(d)) << std::hex << bits;
  }
}

TEST(JsonNumbers, DoublesDumpAsPrintf17g) {
  using L = std::numeric_limits<double>;
  for (double d : {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, L::max(), -L::max(),
                   L::min(), -L::min(), L::denorm_min(), -L::denorm_min(),
                   L::min() - L::denorm_min(), L::epsilon(), 9007199254740993.0,
                   0x1p63, -0x1p63, 0x1p64, 123456789012345678.0,
                   L::quiet_NaN(), -L::quiet_NaN(), L::infinity(),
                   -L::infinity()}) {
    expect_double_dump(d);
  }
  for (int e = -324; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    expect_double_dump(p);
    expect_double_dump(-p);
    expect_double_dump(std::nextafter(p, 0.0));
    expect_double_dump(std::nextafter(p, L::infinity()));
  }
  // Random bit patterns cover every exponent, subnormals and NaN payloads.
  Rng rng(0x17917);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng.next_u64();
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    expect_double_dump(d);
  }
  // Subnormals alone, and values with few significant digits.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.next_u64() & ((uint64_t{1} << 52) - 1);
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    expect_double_dump(d);
    expect_double_dump(static_cast<double>(rng.uniform_int(-100000, 100000)) /
                       1000.0);
  }
}

TEST(JsonNumbers, IntegersDumpAsPrintf) {
  char buf[32];
  Rng rng(64);
  std::vector<int64_t> values = {0, 1, -1, 10, -10,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<int64_t>(rng.next_u64()) >>
                     rng.uniform_int(0, 63));
  }
  for (int64_t v : values) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    EXPECT_EQ(Json(v).dump(), buf);
  }
}

// ---- nesting depth: untrusted input cannot overflow the stack ----

TEST(JsonDepth, MillionOpenBracketsIsAnError) {
  for (char open : {'[', '{'}) {
    std::string text;
    if (open == '[') {
      text.assign(1000000, '[');
    } else {
      for (int i = 0; i < 1000000 / 6; ++i) text += "{\"a\":";
    }
    auto r = Json::parse(text);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, "parse");
    EXPECT_NE(r.error().message.find("nesting deeper than 512"),
              std::string::npos)
        << r.error().message;
  }
}

TEST(JsonDepth, TheLimitItselfParses) {
  const int n = Json::kMaxParseDepth;
  std::string at_limit = std::string(n, '[') + std::string(n, ']');
  auto ok = Json::parse(at_limit);
  ASSERT_TRUE(ok) << ok.error().message;
  const Json* cur = &ok.value();
  for (int i = 1; i < n; ++i) cur = &(*cur)[0];
  EXPECT_TRUE(cur->is_array());
  EXPECT_EQ(cur->size(), 0u);
  EXPECT_EQ(ok.value().dump(), at_limit);

  auto over = Json::parse("[" + at_limit + "]");
  ASSERT_FALSE(over);
  EXPECT_NE(over.error().message.find("at offset 512"), std::string::npos)
      << over.error().message;

  // Objects and arrays share one depth count.
  std::string mixed;
  for (int i = 0; i < n / 2; ++i) mixed += "{\"k\":[";
  for (int i = 0; i < n / 2; ++i) mixed += "]}";
  ASSERT_TRUE(Json::parse(mixed));
  EXPECT_FALSE(Json::parse("[" + mixed + "]"));
}

}  // namespace
}  // namespace pico::util
