#pragma once
// A small, dependency-free JSON value type with full parse/serialize support.
// Used throughout PicoFlow for experiment metadata (DataCite-style records),
// flow action parameters, compute function arguments/results, and search
// documents — the same roles JSON plays in the paper's Globus-based stack.
#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.hpp"

namespace pico::util {

class Json;

using JsonArray = std::vector<Json>;

/// A JSON object: its members in one vector, kept sorted by key in
/// std::string order (unsigned bytes), so serialized output is
/// deterministic — important for checksum-stable metadata records and
/// golden tests. An object is one allocation and so is a copy; lookups are
/// binary searches. Inserting a key shifts the members after it, so, as with
/// std::vector, an insert invalidates every reference, pointer and iterator
/// into the object (including a Json& from operator[] on a sibling key).
class JsonObject {
 public:
  using value_type = std::pair<std::string, Json>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  JsonObject() = default;
  /// Of duplicate keys, the first is kept (std::map's range insert did so).
  JsonObject(std::initializer_list<std::pair<const std::string, Json>> init);
  /// Members in any order; of duplicate keys, the last is kept (as repeated
  /// assignment would). One sort, O(n log n).
  static JsonObject from_unsorted(std::vector<value_type> members);

  // Iteration is in key order. Mutable iteration may change values, never
  // keys.
  iterator begin() { return members_.begin(); }
  iterator end() { return members_.end(); }
  const_iterator begin() const { return members_.begin(); }
  const_iterator end() const { return members_.end(); }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// The value under `key`, or nullptr.
  const Json* find(std::string_view key) const;
  /// The value under `key`, inserted as null in key order if absent.
  Json& operator[](std::string_view key);

  bool operator==(const JsonObject& other) const;

 private:
  /// Index of the first member whose key is not less than `key`.
  size_t lower_bound(std::string_view key) const;
  std::vector<value_type> members_;
};

/// JSON value: null, bool, number (double or int64), string, array, object.
/// Integers are preserved exactly (separate i64 alternative) so dataset byte
/// counts survive round-trips.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned v) : value_(static_cast<int64_t>(v)) {}
  Json(long v) : value_(static_cast<int64_t>(v)) {}
  Json(long long v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned long v) : value_(static_cast<int64_t>(v)) {}
  Json(unsigned long long v) : value_(static_cast<int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  /// Build an object from key/value pairs: Json::object({{"a", 1}, ...}).
  /// Of duplicate keys, the first is kept.
  static Json object(std::initializer_list<std::pair<const std::string, Json>> init = {}) {
    return Json(JsonObject(init));
  }
  /// Build an array from values: Json::array({1, "two", 3.0}).
  static Json array(std::initializer_list<Json> init = {}) {
    return Json(JsonArray(init));
  }

  Type type() const {
    switch (value_.index()) {
      case 0: return Type::Null;
      case 1: return Type::Bool;
      case 2: return Type::Int;
      case 3: return Type::Double;
      case 4: return Type::String;
      case 5: return Type::Array;
      default: return Type::Object;
    }
  }

  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  /// Typed accessors; defaults returned on type mismatch keep call sites terse.
  bool as_bool(bool fallback = false) const;
  /// as_int also returns the fallback for a double outside int64's range.
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;  ///< empty string on mismatch
  std::string as_string(const std::string& fallback) const;

  /// Array/object access; return static empties on mismatch.
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& mutable_array();    ///< converts to array if not one
  JsonObject& mutable_object();  ///< converts to object if not one

  /// Object field lookup; returns null Json if absent or not an object.
  const Json& at(std::string_view key) const;
  bool contains(std::string_view key) const;
  /// Path lookup: at_path("a.b.c") walks nested objects.
  const Json& at_path(std::string_view dotted_path) const;

  /// Object field write access (creates object/keys as needed). Inserting a
  /// key invalidates references into this object; see JsonObject.
  Json& operator[](std::string_view key);
  /// Array element access (no bounds growth).
  const Json& operator[](size_t i) const;

  size_t size() const;  ///< array/object element count, else 0

  /// Append to array (converts to array if needed).
  void push_back(Json v);

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize. indent < 0 gives compact single-line output. Doubles print
  /// as printf's "%.17g"; NaN and infinities as null.
  std::string dump(int indent = -1) const;

  /// Nesting deeper than this many arrays/objects is a parse error, so
  /// untrusted input cannot exhaust the parser's stack.
  static constexpr int kMaxParseDepth = 512;
  /// Parse a complete JSON document. Trailing garbage is an error. Of
  /// duplicate object keys, the last is kept.
  static Result<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, JsonArray,
               JsonObject>
      value_;
};

inline size_t JsonObject::lower_bound(std::string_view key) const {
  return static_cast<size_t>(
      std::lower_bound(members_.begin(), members_.end(), key,
                       [](const value_type& m, std::string_view k) {
                         return std::string_view(m.first) < k;
                       }) -
      members_.begin());
}

inline const Json* JsonObject::find(std::string_view key) const {
  const size_t i = lower_bound(key);
  if (i < members_.size() && members_[i].first == key) return &members_[i].second;
  return nullptr;
}

inline bool JsonObject::operator==(const JsonObject& other) const {
  return members_ == other.members_;
}

}  // namespace pico::util
