#pragma once
// A small, dependency-free JSON value type with full parse/serialize support.
// Used throughout PicoFlow for experiment metadata (DataCite-style records),
// flow action parameters, compute function arguments/results, and search
// documents — the same roles JSON plays in the paper's Globus-based stack.
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.hpp"

namespace pico::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps keys ordered, which makes serialized output deterministic —
// important for checksum-stable metadata records and golden tests.
using JsonObject = std::map<std::string, Json>;

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
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  /// Path lookup: at_path("a.b.c") walks nested objects.
  const Json& at_path(std::string_view dotted_path) const;

  /// Object field write access (creates object/keys as needed).
  Json& operator[](const std::string& key);
  /// Array element access (no bounds growth).
  const Json& operator[](size_t i) const;

  size_t size() const;  ///< array/object element count, else 0

  /// Append to array (converts to array if needed).
  void push_back(Json v);

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize. indent < 0 gives compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document. Trailing garbage is an error.
  static Result<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, JsonArray,
               JsonObject>
      value_;
};

}  // namespace pico::util
