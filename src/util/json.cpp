#include "util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>

namespace pico::util {
namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}
const std::string& empty_string() {
  static const std::string kEmpty;
  return kEmpty;
}
const JsonArray& empty_array() {
  static const JsonArray kEmpty;
  return kEmpty;
}
const JsonObject& empty_object() {
  static const JsonObject kEmpty;
  return kEmpty;
}

void escape_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

// Recursive-descent parser over a string_view with position tracking. The
// elements of the arrays and objects still open are collected on two
// stacks shared by every nesting level; a closed container moves its own off
// into one exactly sized allocation.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse_document() {
    Json out;
    skip_ws();
    if (!parse_value(out)) return Result<Json>::err(std::move(error_), "parse");
    skip_ws();
    if (pos_ != text_.size()) {
      return Result<Json>::err(
          "trailing characters at offset " + std::to_string(pos_), "parse");
    }
    return Result<Json>::ok(std::move(out));
  }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }
  /// String errors name no offset.
  bool fail_unplaced(const char* what) {
    error_ = what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (!eof() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool parse_value(Json& out) {
    if (eof()) return fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxParseDepth) {
          return fail("nesting deeper than " +
                      std::to_string(Json::kMaxParseDepth));
        }
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't': return parse_literal("true", Json(true), out);
      case 'f': return parse_literal("false", Json(false), out);
      case 'n': return parse_literal("null", Json(nullptr), out);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, Json value, Json& out) {
    if (!consume_literal(lit)) return fail("invalid literal");
    out = std::move(value);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (true) {
      // Copy the plain run up to the next quote or escape in one append.
      size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') {
        ++stop;
      }
      out.append(text_.data() + pos_, stop - pos_);
      pos_ = stop;
      if (eof()) return fail_unplaced("unterminated string");
      if (text_[pos_++] == '"') return true;
      if (eof()) return fail_unplaced("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail_unplaced("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail_unplaced("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences, adequate for metadata text).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail_unplaced("bad escape character");
      }
    }
  }

  bool parse_number(Json& out) {
    size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool is_double = false;
    while (!eof()) {
      char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected value");
    std::string tok(text_.substr(start, pos_ - start));
    errno = 0;
    if (!is_double) {
      char* end = nullptr;
      long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        out = Json(static_cast<int64_t>(v));
        return true;
      }
      // fall through to double on overflow
    }
    char* end = nullptr;
    double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    out = Json(d);
    return true;
  }

  bool parse_array(Json& out) {
    consume('[');
    const size_t base = items_.size();
    skip_ws();
    if (!consume(']')) {
      while (true) {
        skip_ws();
        Json v;
        if (!parse_value(v)) return false;
        items_.push_back(std::move(v));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']'");
      }
    }
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
    out = Json(JsonArray(std::make_move_iterator(first),
                         std::make_move_iterator(items_.end())));
    items_.erase(first, items_.end());
    return true;
  }

  bool parse_object(Json& out) {
    consume('{');
    const size_t base = members_.size();
    skip_ws();
    if (!consume('}')) {
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        skip_ws();
        Json v;
        if (!parse_value(v)) return false;
        members_.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}'");
      }
    }
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    out = Json(JsonObject::from_unsorted(std::vector<JsonObject::value_type>(
        std::make_move_iterator(first), std::make_move_iterator(members_.end()))));
    members_.erase(first, members_.end());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
  std::string error_;
  std::vector<Json> items_;
  std::vector<JsonObject::value_type> members_;
};

}  // namespace

JsonObject::JsonObject(
    std::initializer_list<std::pair<const std::string, Json>> init) {
  members_.reserve(init.size());
  for (const auto& [key, value] : init) {
    const size_t i = lower_bound(key);
    if (i < members_.size() && members_[i].first == key) continue;
    members_.emplace(members_.begin() + static_cast<std::ptrdiff_t>(i), key,
                     value);
  }
}

JsonObject JsonObject::from_unsorted(std::vector<value_type> members) {
  auto not_less = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(members.begin(), members.end(), not_less) !=
      members.end()) {
    std::stable_sort(members.begin(), members.end(),
                     [](const value_type& a, const value_type& b) {
                       return a.first < b.first;
                     });
    // Stable, so the last of each run of equal keys is the last written.
    auto out = members.begin();
    for (auto it = members.begin(); it != members.end();) {
      auto last = it;
      while (last + 1 != members.end() && (last + 1)->first == it->first) {
        ++last;
      }
      if (out != last) *out = std::move(*last);
      ++out;
      it = last + 1;
    }
    members.erase(out, members.end());
  }
  JsonObject o;
  o.members_ = std::move(members);
  return o;
}

Json& JsonObject::operator[](std::string_view key) {
  const size_t i = lower_bound(key);
  if (i == members_.size() || members_[i].first != key) {
    members_.emplace(members_.begin() + static_cast<std::ptrdiff_t>(i),
                     std::string(key), Json());
  }
  return members_[i].second;
}

bool Json::as_bool(bool fallback) const {
  if (auto* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

int64_t Json::as_int(int64_t fallback) const {
  if (auto* i = std::get_if<int64_t>(&value_)) return *i;
  if (auto* d = std::get_if<double>(&value_)) {
    // Only doubles inside int64's range convert (the cast is UB otherwise);
    // NaN fails both comparisons.
    if (*d >= -0x1p63 && *d < 0x1p63) return static_cast<int64_t>(*d);
  }
  return fallback;
}

double Json::as_double(double fallback) const {
  if (auto* d = std::get_if<double>(&value_)) return *d;
  if (auto* i = std::get_if<int64_t>(&value_)) return static_cast<double>(*i);
  return fallback;
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  return empty_string();
}

std::string Json::as_string(const std::string& fallback) const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  return fallback;
}

const JsonArray& Json::as_array() const {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  return empty_array();
}

const JsonObject& Json::as_object() const {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  return empty_object();
}

JsonArray& Json::mutable_array() {
  if (!std::holds_alternative<JsonArray>(value_)) value_ = JsonArray{};
  return std::get<JsonArray>(value_);
}

JsonObject& Json::mutable_object() {
  if (!std::holds_alternative<JsonObject>(value_)) value_ = JsonObject{};
  return std::get<JsonObject>(value_);
}

const Json& Json::at(std::string_view key) const {
  if (auto* o = std::get_if<JsonObject>(&value_)) {
    if (const Json* v = o->find(key)) return *v;
  }
  return null_json();
}

bool Json::contains(std::string_view key) const {
  if (auto* o = std::get_if<JsonObject>(&value_)) return o->find(key) != nullptr;
  return false;
}

const Json& Json::at_path(std::string_view dotted_path) const {
  const Json* cur = this;
  size_t start = 0;
  while (start <= dotted_path.size()) {
    size_t pos = dotted_path.find('.', start);
    cur = &cur->at(dotted_path.substr(
        start, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - start));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return *cur;
}

Json& Json::operator[](std::string_view key) { return mutable_object()[key]; }

const Json& Json::operator[](size_t i) const {
  const auto& a = as_array();
  if (i < a.size()) return a[i];
  return null_json();
}

size_t Json::size() const {
  if (auto* a = std::get_if<JsonArray>(&value_)) return a->size();
  if (auto* o = std::get_if<JsonObject>(&value_)) return o->size();
  return 0;
}

void Json::push_back(Json v) { mutable_array().push_back(std::move(v)); }

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::Int: {
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof(buf),
                                   std::get<int64_t>(value_));
      out.append(buf, r.ptr);
      break;
    }
    case Type::Double: {
      double d = std::get<double>(value_);
      if (std::isnan(d) || std::isinf(d)) {
        out += "null";  // JSON has no NaN/Inf; degrade gracefully
      } else {
        // general at precision 17 is printf's "%.17g" by definition.
        char buf[32];
        const auto r = std::to_chars(buf, buf + sizeof(buf), d,
                                     std::chars_format::general, 17);
        out.append(buf, r.ptr);
      }
      break;
    }
    case Type::String: escape_string(out, std::get<std::string>(value_)); break;
    case Type::Array: {
      const auto& a = std::get<JsonArray>(value_);
      if (a.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (size_t i = 0; i < a.size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        a[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const auto& o = std::get<JsonObject>(value_);
      if (o.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : o) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        escape_string(out, k);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        v.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace pico::util
