// Minimal JSON document model, parser, and serializer.
//
// EpiHiper's disease models, intervention specifications, initializations
// and traits are all JSON documents (paper §III / Appendix D: "All inputs to
// EpiHiper are given in JSON format, with the exception of the contact
// network"). This module gives us exactly enough JSON to express those
// configuration files without an external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace epi {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps key order deterministic, which keeps serialized configs
// byte-stable across runs — important for config-hash-based caching.
using JsonObject = std::map<std::string, Json>;

/// A JSON value: null, bool, number (double), string, array or object.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw ConfigError on type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object member access; throws ConfigError if not an object or missing.
  const Json& at(std::string_view key) const;
  /// True if this is an object containing `key`.
  bool contains(std::string_view key) const;
  /// Returns member or `fallback` if absent (still throws on non-object).
  double get_double(std::string_view key, double fallback) const;
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  std::string get_string(std::string_view key, std::string fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  /// Mutating object member access (creates the member).
  Json& operator[](const std::string& key);

  /// Serializes; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so deeper input fails with ConfigError instead of
/// exhausting the stack.
inline constexpr int kJsonMaxDepth = 512;

/// Parses JSON text; throws ConfigError with position info on failure,
/// including nesting deeper than kJsonMaxDepth.
Json parse_json(std::string_view text);

/// Reads and parses a JSON file.
Json read_json_file(const std::string& path);

/// Writes a JSON value to a file (pretty-printed).
void write_json_file(const std::string& path, const Json& value);

}  // namespace epi
