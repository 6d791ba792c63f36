#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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

void escape_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

// Recursive-descent parser over a string_view with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse_document() {
    skip_ws();
    auto v = parse_value();
    if (!v) return v;
    skip_ws();
    if (pos_ != text_.size()) {
      return Result<Json>::err(
          "trailing characters at offset " + std::to_string(pos_), "parse");
    }
    return v;
  }

 private:
  Result<Json> fail(const std::string& what) {
    return Result<Json>::err(what + " at offset " + std::to_string(pos_),
                             "parse");
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

  Result<Json> parse_value() {
    if (eof()) return fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s) return Result<Json>::err(s.error());
        return Result<Json>::ok(Json(std::move(s).value()));
      }
      case 't':
        if (consume_literal("true")) return Result<Json>::ok(Json(true));
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Result<Json>::ok(Json(false));
        return fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Result<Json>::ok(Json(nullptr));
        return fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Result<std::string> parse_string() {
    if (!consume('"')) {
      return Result<std::string>::err(
          "expected string at offset " + std::to_string(pos_), "parse");
    }
    std::string out;
    while (true) {
      if (eof()) {
        return Result<std::string>::err("unterminated string", "parse");
      }
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (eof()) {
          return Result<std::string>::err("unterminated escape", "parse");
        }
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
            if (pos_ + 4 > text_.size()) {
              return Result<std::string>::err("bad \\u escape", "parse");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Result<std::string>::err("bad \\u escape", "parse");
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
            return Result<std::string>::err("bad escape character", "parse");
        }
      } else {
        out.push_back(c);
      }
    }
    return Result<std::string>::ok(std::move(out));
  }

  Result<Json> parse_number() {
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
        return Result<Json>::ok(Json(static_cast<int64_t>(v)));
      }
      // fall through to double on overflow
    }
    char* end = nullptr;
    double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    return Result<Json>::ok(Json(d));
  }

  Result<Json> parse_array() {
    consume('[');
    JsonArray out;
    skip_ws();
    if (consume(']')) return Result<Json>::ok(Json(std::move(out)));
    while (true) {
      skip_ws();
      auto v = parse_value();
      if (!v) return v;
      out.push_back(std::move(v).value());
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
    return Result<Json>::ok(Json(std::move(out)));
  }

  Result<Json> parse_object() {
    consume('{');
    JsonObject out;
    skip_ws();
    if (consume('}')) return Result<Json>::ok(Json(std::move(out)));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return Result<Json>::err(key.error());
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto v = parse_value();
      if (!v) return v;
      out[std::move(key).value()] = std::move(v).value();
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
    return Result<Json>::ok(Json(std::move(out)));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

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

const Json& Json::at(const std::string& key) const {
  if (auto* o = std::get_if<JsonObject>(&value_)) {
    auto it = o->find(key);
    if (it != o->end()) return it->second;
  }
  return null_json();
}

bool Json::contains(const std::string& key) const {
  if (auto* o = std::get_if<JsonObject>(&value_)) return o->count(key) > 0;
  return false;
}

const Json& Json::at_path(std::string_view dotted_path) const {
  const Json* cur = this;
  size_t start = 0;
  while (start <= dotted_path.size()) {
    size_t pos = dotted_path.find('.', start);
    std::string key(dotted_path.substr(
        start, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - start));
    cur = &cur->at(key);
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return *cur;
}

Json& Json::operator[](const std::string& key) {
  return mutable_object()[key];
}

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
    case Type::Int: out += std::to_string(std::get<int64_t>(value_)); break;
    case Type::Double: {
      double d = std::get<double>(value_);
      if (std::isnan(d) || std::isinf(d)) {
        out += "null";  // JSON has no NaN/Inf; degrade gracefully
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out += buf;
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
