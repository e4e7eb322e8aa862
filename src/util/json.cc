#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace androne {

JsonType JsonValue::type() const {
  switch (value_.index()) {
    case 0:
      return JsonType::kNull;
    case 1:
      return JsonType::kBool;
    case 2:
      return JsonType::kNumber;
    case 3:
      return JsonType::kString;
    case 4:
      return JsonType::kArray;
    case 5:
      return JsonType::kObject;
  }
  return JsonType::kNull;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const JsonObject& obj = AsObject();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

int64_t JsonValue::GetIntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsInt() : fallback;
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // Start of the pending run of bytes copied as is.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonEscaped(out, s);
  return out;
}

namespace {

// Integers below 1e15 print as integers; everything else takes the first
// precision of 15, 16, 17 whose "%.*g" spelling parses back to |d|.
// std::to_chars with a precision is defined as printf in the C locale and
// std::from_chars as a correctly rounded strtod, so this is the printf
// rule at a fraction of its cost.
void AppendNumber(std::string& out, double d) {
  char buf[32];
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
    out.append(buf, res.ptr);
    return;
  }
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0;
    const auto parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == d) {
      break;
    }
  }
  out.append(buf, end);
}

}  // namespace

std::string FormatNumberCompact(double d) {
  std::string out;
  AppendNumber(out, d);
  return out;
}

void JsonWriter::NewLine() {
  out_ += '\n';
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
}

void JsonWriter::BeginElement() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) {
    return;  // The document's root value.
  }
  if (!empty_) {
    out_ += ',';
  }
  empty_ = false;
  if (pretty_) {
    NewLine();
  }
}

void JsonWriter::Open(char bracket) {
  BeginElement();
  out_ += bracket;
  ++depth_;
  empty_ = true;
}

void JsonWriter::Close(char bracket) {
  --depth_;
  if (!empty_ && pretty_) {
    NewLine();
  }
  out_ += bracket;
  // The closed container was itself an element of its parent.
  empty_ = false;
}

void JsonWriter::Key(std::string_view key) {
  BeginElement();
  out_ += '"';
  AppendJsonEscaped(out_, key);
  out_ += pretty_ ? "\": " : "\":";
  after_key_ = true;
}

void JsonWriter::Number(double d) {
  BeginElement();
  AppendNumber(out_, d);
}

void JsonWriter::String(std::string_view s) {
  BeginElement();
  out_ += '"';
  AppendJsonEscaped(out_, s);
  out_ += '"';
}

void JsonWriter::Bool(bool b) {
  BeginElement();
  out_ += b ? "true" : "false";
}

void JsonWriter::Null() {
  BeginElement();
  out_ += "null";
}

void JsonWriter::Value(const JsonValue& value) {
  switch (value.type()) {
    case JsonType::kNull:
      Null();
      return;
    case JsonType::kBool:
      Bool(value.AsBool());
      return;
    case JsonType::kNumber:
      Number(value.AsDouble());
      return;
    case JsonType::kString:
      String(value.AsString());
      return;
    case JsonType::kArray:
      BeginArray();
      for (const JsonValue& item : value.AsArray()) {
        Value(item);
      }
      EndArray();
      return;
    case JsonType::kObject:
      BeginObject();
      for (const auto& [key, item] : value.AsObject()) {
        Key(key);
        Value(item);
      }
      EndObject();
      return;
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  JsonWriter(out, /*pretty=*/false).Value(*this);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  JsonWriter(out, /*pretty=*/true).Value(*this);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    RETURN_IF_ERROR(ParseValue(value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return OkStatus();
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        RETURN_IF_ERROR(ParseString(s));
        out = JsonValue(std::move(s));
        return OkStatus();
      }
      case 't':
        return ParseLiteral("true", JsonValue(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* lit, JsonValue value, JsonValue& out) {
    size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) != 0) {
      return Error(std::string("invalid literal, expected ") + lit);
    }
    pos_ += len;
    out = std::move(value);
    return OkStatus();
  }

  bool AtDigit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  // Consumes one or more digits; false if none is there.
  bool ConsumeDigits() {
    if (!AtDigit()) {
      return false;
    }
    while (AtDigit()) {
      ++pos_;
    }
    return true;
  }

  // RFC 8259 numbers only: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // (strtod alone would also take "+5", ".5", "01", "1." and hex).
  Status ParseNumber(JsonValue& out) {
    size_t start = pos_;
    Consume('-');
    if (!AtDigit()) {
      return Error(pos_ == start ? "invalid value" : "invalid number");
    }
    if (!Consume('0')) {
      ConsumeDigits();
    }
    if (Consume('.') && !ConsumeDigits()) {
      return Error("invalid number: no digits after '.'");
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) {
        Consume('-');
      }
      if (!ConsumeDigits()) {
        return Error("invalid number: no digits in exponent");
      }
    }
    if (AtDigit()) {
      return Error("invalid number: leading zero");
    }
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("invalid number '" + token + "'");
    }
    if (std::isinf(d)) {
      // JSON has no infinity; an overflowing literal is not a number the
      // serializer could write back.
      return Error("number out of range '" + token + "'");
    }
    out = JsonValue(d);
    return OkStatus();
  }

  Status ParseHex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    out = v;
    return OkStatus();
  }

  static void AppendUtf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseString(std::string& out) {
    RETURN_IF_ERROR(Expect('"'));
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Error("truncated escape");
        }
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            unsigned cp = 0;
            RETURN_IF_ERROR(ParseHex4(cp));
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // Surrogate pair.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired surrogate");
              }
              pos_ += 2;
              unsigned lo = 0;
              RETURN_IF_ERROR(ParseHex4(lo));
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            AppendUtf8(out, cp);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    RETURN_IF_ERROR(Expect('['));
    JsonArray arr;
    SkipWhitespace();
    if (Consume(']')) {
      out = JsonValue(std::move(arr));
      return OkStatus();
    }
    while (true) {
      JsonValue v;
      RETURN_IF_ERROR(ParseValue(v, depth + 1));
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) {
        out = JsonValue(std::move(arr));
        return OkStatus();
      }
      RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    RETURN_IF_ERROR(Expect('{'));
    JsonObject obj;
    SkipWhitespace();
    if (Consume('}')) {
      out = JsonValue(std::move(obj));
      return OkStatus();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      RETURN_IF_ERROR(Expect(':'));
      JsonValue v;
      RETURN_IF_ERROR(ParseValue(v, depth + 1));
      obj[std::move(key)] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) {
        out = JsonValue(std::move(obj));
        return OkStatus();
      }
      RETURN_IF_ERROR(Expect(','));
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace androne
