// Minimal JSON document model + recursive-descent parser.
//
// The repo emits JSON in several places (metrics dumps, Chrome traces,
// BENCH_*.json, profile reports); journals and flight-recorder dumps are
// also *read* back. This is the reading half: a small
// owning value tree, strict enough for the documents we produce (objects,
// arrays, strings with the common escapes, numbers, booleans, null;
// rejects trailing garbage), with object key order preserved so reports
// can round-trip diffs in emission order. Not a general-purpose JSON
// library: no comments, no NaN/Infinity, \uXXXX escapes outside the BMP
// are kept as two literal surrogate code points.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pscp {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< in document order

  [[nodiscard]] bool isNumber() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool isObject() const { return kind == Kind::kObject; }
  [[nodiscard]] bool isArray() const { return kind == Kind::kArray; }
  [[nodiscard]] bool isString() const { return kind == Kind::kString; }

  /// Object member lookup; null when missing or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// find() chained over a '.'-separated path ("totals.machine_cycles").
  [[nodiscard]] const JsonValue* findPath(const std::string& dottedPath) const;

  /// Serialize this value. `indent` > 0 pretty-prints with that many spaces
  /// per level; 0 emits the compact one-line form. Integral numbers print
  /// without a fractional part so documents round-trip through parseJson.
  [[nodiscard]] std::string dump(int indent = 0) const;

  // ---- construction helpers (builders for emitted reports) ----
  [[nodiscard]] static JsonValue makeString(std::string s);
  [[nodiscard]] static JsonValue makeNumber(double n);
  [[nodiscard]] static JsonValue makeBool(bool b);
  [[nodiscard]] static JsonValue makeArray();
  [[nodiscard]] static JsonValue makeObject();
  /// Append/overwrite an object member (keeps emission order for new keys).
  JsonValue& set(const std::string& key, JsonValue v);
};

/// Escape a string for embedding in a JSON document (no surrounding quotes).
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Parse `text` into `out`. On failure returns false and, when `error` is
/// non-null, stores a one-line message with the byte offset.
bool parseJson(const std::string& text, JsonValue* out, std::string* error);

/// Read a whole file and parse it; false with `error` set on I/O or parse
/// failure.
bool parseJsonFile(const std::string& path, JsonValue* out, std::string* error);

}  // namespace pscp
