// A self-contained JSON value model, parser, and serializer. AnDrone virtual
// drone definitions (paper §3, Figure 2) are JSON documents, so the core
// library carries its own parser rather than depending on a third-party one.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace androne {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
// std::map keeps key order deterministic for serialization and tests.
using JsonObject = std::map<std::string, JsonValue>;

enum class JsonType { kNull, kBool, kNumber, kString, kArray, kObject };

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}      // NOLINT: implicit
  JsonValue(bool b) : value_(b) {}                    // NOLINT: implicit
  JsonValue(double d) : value_(d) {}                  // NOLINT: implicit
  JsonValue(int i) : value_(static_cast<double>(i)) {}          // NOLINT
  JsonValue(int64_t i) : value_(static_cast<double>(i)) {}      // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}          // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}            // NOLINT
  JsonValue(JsonArray a) : value_(std::move(a)) {}              // NOLINT
  JsonValue(JsonObject o) : value_(std::move(o)) {}             // NOLINT

  JsonType type() const;

  bool is_null() const { return type() == JsonType::kNull; }
  bool is_bool() const { return type() == JsonType::kBool; }
  bool is_number() const { return type() == JsonType::kNumber; }
  bool is_string() const { return type() == JsonType::kString; }
  bool is_array() const { return type() == JsonType::kArray; }
  bool is_object() const { return type() == JsonType::kObject; }

  // Typed accessors; abort on type mismatch (check type first).
  bool AsBool() const { return std::get<bool>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  int64_t AsInt() const { return static_cast<int64_t>(std::get<double>(value_)); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const JsonArray& AsArray() const { return std::get<JsonArray>(value_); }
  JsonArray& AsArray() { return std::get<JsonArray>(value_); }
  const JsonObject& AsObject() const { return std::get<JsonObject>(value_); }
  JsonObject& AsObject() { return std::get<JsonObject>(value_); }

  // Object lookup: returns nullptr when this is not an object or the key is
  // absent, letting callers chain lookups without pre-checks.
  const JsonValue* Find(const std::string& key) const;

  // Convenience typed lookups with defaults for optional fields.
  double GetNumberOr(const std::string& key, double fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  std::string GetStringOr(const std::string& key, std::string fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  // Compact single-line serialization.
  std::string Dump() const;
  // Pretty-printed with 2-space indentation.
  std::string DumpPretty() const;

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// Parses a complete JSON document. Trailing garbage is an error.
StatusOr<JsonValue> ParseJson(const std::string& text);

// Appends |s| escaped per JSON rules (no surrounding quotes): '"', '\\' and
// control bytes are escaped, every other byte is copied as is.
void AppendJsonEscaped(std::string& out, std::string_view s);

// AppendJsonEscaped into a fresh string (exposed for tests).
std::string JsonEscape(std::string_view s);

// The serializer's number form: integers below 1e15 print without a decimal
// point, and everything else uses the first of 15, 16 or 17 significant
// digits ("%.*g") that parses back to the exact double. Shared by the
// scenario-manifest dumper, whose byte-stable round-trip contract needs one
// canonical number spelling.
std::string FormatNumberCompact(double d);

// The one JSON emitter: streams values into a caller-owned string and owns
// the layout. Compact mode writes no whitespace. Pretty mode puts each
// element on its own line indented two spaces per level and writes ": "
// after a key. Empty containers print as {} and [] in both modes.
// JsonValue::Dump/DumpPretty and hand-written serializers share it, so a
// document streamed field by field is byte-identical to the dump of the
// equivalent JsonValue tree. Inside an object every value must follow a
// Key(); the writer does not check the call sequence.
class JsonWriter {
 public:
  JsonWriter(std::string& out, bool pretty) : out_(out), pretty_(pretty) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  void Key(std::string_view key);
  void Number(double d);
  void String(std::string_view s);
  void Bool(bool b);
  void Null();
  void Value(const JsonValue& value);

 private:
  // Writes the separator and line break owed before the next value.
  void BeginElement();
  void Open(char bracket);
  void Close(char bracket);
  void NewLine();

  std::string& out_;
  const bool pretty_;
  int depth_ = 0;
  bool empty_ = true;       // The innermost open container has no element.
  bool after_key_ = false;  // The next value belongs to the last Key().
};

}  // namespace androne

#endif  // SRC_UTIL_JSON_H_
