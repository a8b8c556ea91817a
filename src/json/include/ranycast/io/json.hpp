// Minimal JSON value model, parser and writer.
//
// Enough JSON for configuration files, experiment-result interchange, the
// run journal and telemetry: the full value model, UTF-8 pass-through
// strings with standard escapes, and precise error positions. Integers stay
// exact: an integer literal or integral value is held as int64/uint64 and
// dumped digit for digit. A double dumps without a fraction when it is
// integral and below 1e15, otherwise with 17 significant digits, so it
// parses back bit-equal. This is the leaf library ranycast::json (it links
// only ranycast::core), so every layer down to obs can use it.
#pragma once

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "ranycast/core/record.hpp"

namespace ranycast::io {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  template <std::signed_integral I>
  Json(I i) : value_(static_cast<std::int64_t>(i)) {}
  template <std::unsigned_integral I>
    requires(!std::same_as<I, bool>)
  Json(I i) : value_(static_cast<std::uint64_t>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool is_number() const noexcept {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_) ||
           std::holds_alternative<std::uint64_t>(value_);
  }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  /// Any number as a double (integers beyond 2^53 round).
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  /// Typed member readers with defaults (for config files). int_or reads an
  /// unsigned integer above INT64_MAX as its two's-complement int64, so a
  /// cast back to uint64 restores it exactly.
  double number_or(std::string_view key, double fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

  /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t, std::string,
               JsonArray, JsonObject>
      value_;
};

struct JsonParseError {
  std::size_t position{0};
  std::string message;
};

/// Parse a complete JSON document; trailing garbage is an error.
std::variant<Json, JsonParseError> parse_json(std::string_view text);

/// Convenience: parse or throw std::runtime_error with position info.
Json parse_json_or_throw(std::string_view text);

/// JSON projection of a field value: a record (core/record.hpp) becomes an
/// object keyed by its field names, a vector an array, and bool, integers,
/// double and string themselves.
template <class T>
Json to_json(const T& value) {
  if constexpr (std::is_integral_v<T> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    return Json(value);
  } else if constexpr (core::is_vector_v<T>) {
    JsonArray out;
    out.reserve(value.size());
    for (const auto& element : value) out.push_back(io::to_json(element));
    return Json(std::move(out));
  } else {
    static_assert(core::Record<T>, "no JSON projection for this field type");
    JsonObject out;
    const auto visit = [&out](std::string_view key, const auto& field) {
      out.emplace(std::string(key), io::to_json(field));
    };
    fields(visit, value);
    return Json(std::move(out));
  }
}

}  // namespace ranycast::io
