#ifndef T2M_OBS_JSON_H
#define T2M_OBS_JSON_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace t2m::obs {

/// Minimal JSON document tree for reading our own emitted artefacts
/// (trace.json, metrics.json, bench records) — a strict reader for
/// machine-written output, not a general-purpose JSON library. Objects keep
/// insertion order and allow duplicate keys (find returns the first),
/// matching what a streaming-emitted document can contain.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String: the decoded text. Number: the literal as written, so integers
  /// beyond a double's 53-bit mantissa can still be read exactly.
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member with this key, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;

  /// The number as an exact unsigned integer, read from its source text;
  /// nullopt unless it is a plain non-negative integer that fits 64 bits.
  std::optional<std::uint64_t> as_uint64() const;
};

/// Strict parse of a complete document: the whole input must be consumed
/// (trailing garbage is an error), depth is bounded, and malformed input
/// reports a parse_error Status with position context — it never throws.
Status parse_json(std::string_view text, JsonValue& out);

/// Writes `text` as a quoted JSON string: quote and backslash escaped with a
/// backslash, newline, carriage return and tab by name, other control
/// characters as \u00XX. The one string writer of every artefact we emit.
void write_json_string(std::ostream& os, std::string_view text);

}  // namespace t2m::obs

#endif  // T2M_OBS_JSON_H
