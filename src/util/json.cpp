#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace epi {

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  throw ConfigError("JSON value is not a bool");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  throw ConfigError("JSON value is not a number");
}

std::int64_t Json::as_int() const {
  const double d = as_double();
  const auto i = static_cast<std::int64_t>(std::llround(d));
  if (std::abs(d - static_cast<double>(i)) > 1e-9) {
    throw ConfigError("JSON number is not an integer");
  }
  return i;
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw ConfigError("JSON value is not a string");
}

const JsonArray& Json::as_array() const {
  if (const auto* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ConfigError("JSON value is not an array");
}

JsonArray& Json::as_array() {
  if (auto* a = std::get_if<JsonArray>(&value_)) return *a;
  throw ConfigError("JSON value is not an array");
}

const JsonObject& Json::as_object() const {
  if (const auto* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ConfigError("JSON value is not an object");
}

JsonObject& Json::as_object() {
  if (auto* o = std::get_if<JsonObject>(&value_)) return *o;
  throw ConfigError("JSON value is not an object");
}

const Json& Json::at(std::string_view key) const {
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  if (it == obj.end()) {
    throw ConfigError("JSON object missing key: " + std::string(key));
  }
  return it->second;
}

bool Json::contains(std::string_view key) const {
  const auto* o = std::get_if<JsonObject>(&value_);
  return o != nullptr && o->count(std::string(key)) != 0;
}

double Json::get_double(std::string_view key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::int64_t Json::get_int(std::string_view key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

std::string Json::get_string(std::string_view key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<std::int64_t>(d));
  } else {
    char buf[32];
    // epilint: allow(io-nonhex-float) — JSON is an interchange format, so
    // hexfloat is not an option; %.17g is the shortest decimal form that
    // still round-trips every double exactly.
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, std::get<double>(value_));
  } else if (is_string()) {
    dump_string(out, std::get<std::string>(value_));
  } else if (is_array()) {
    const auto& arr = std::get<JsonArray>(value_);
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    if (!arr.empty()) newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& obj = std::get<JsonObject>(value_);
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(out, key);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      value.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_

  [[noreturn]] void fail(const std::string& message) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream oss;
    oss << "JSON parse error at line " << line << ", column " << col << ": "
        << message;
    throw ConfigError(oss.str());
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
               " levels");
        }
        ++depth_;
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      advance();
      return Json(std::move(obj));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_whitespace();
      const char sep = advance();
      if (sep == '}') break;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      advance();
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char sep = advance();
      if (sep == ']') break;
      if (sep != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported — our
            // configs are ASCII).
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
          default: fail("invalid escape sequence");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') advance();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    try {
      return Json(std::stod(token));
    } catch (const std::exception&) {
      fail("invalid number: " + token);
    }
  }
};

}  // namespace

Json parse_json(std::string_view text) { return JsonParser(text).parse(); }

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write JSON file: " + path);
  out << value.dump(2) << '\n';
}

}  // namespace epi
