#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace androne {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_EQ(ParseJson("true").value().AsBool(), true);
  EXPECT_EQ(ParseJson("false").value().AsBool(), false);
  EXPECT_DOUBLE_EQ(ParseJson("3.25").value().AsDouble(), 3.25);
  EXPECT_EQ(ParseJson("-17").value().AsInt(), -17);
  EXPECT_EQ(ParseJson("\"hi\"").value().AsString(), "hi");
  EXPECT_DOUBLE_EQ(ParseJson("1e3").value().AsDouble(), 1000.0);
}

TEST(JsonParseTest, NestedStructures) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(v.ok());
  const JsonValue& root = v.value();
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[0].AsInt(), 1);
  EXPECT_TRUE(a->AsArray()[2].Find("b")->AsBool());
  EXPECT_TRUE(root.Find("c")->is_null());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsString(), "a\"b\\c\nd\teA");
}

TEST(JsonParseTest, UnicodeSurrogatePair) {
  auto v = ParseJson(R"("😀")");  // U+1F600 grinning face.
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} extra").ok());
  EXPECT_FALSE(ParseJson("\"\\u12\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud800\"").ok());  // Unpaired surrogate.
}

TEST(JsonParseTest, RejectsNumbersThatOverflowToInfinity) {
  // JSON cannot spell infinity, so a literal that overflows a double is
  // refused rather than read as inf and later written back as "inf".
  EXPECT_FALSE(ParseJson("1e999").ok());
  EXPECT_FALSE(ParseJson("-1e999").ok());
  EXPECT_FALSE(ParseJson(R"({"energy-allotted": 1e999})").ok());
  EXPECT_DOUBLE_EQ(ParseJson("1e308").value().AsDouble(), 1e308);
  // Underflow is not an error: it reads as zero, which JSON can spell.
  EXPECT_EQ(ParseJson("1e-400").value().AsDouble(), 0.0);
}

TEST(JsonParseTest, NumbersFollowTheRfc8259Grammar) {
  for (const char* bad : {"+5", ".5", "01", "1.", "1e", "--1", "-", "-.5",
                          "00", "1.e5", "1e+", "0x10", "[01]",
                          R"({"a": +5})"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  struct Case {
    const char* text;
    double value;
  };
  for (const Case& c : {Case{"0", 0.0}, Case{"-0", -0.0}, Case{"7", 7.0},
                        Case{"-12", -12.0}, Case{"0.5", 0.5},
                        Case{"-0.25", -0.25}, Case{"1e3", 1e3},
                        Case{"1E-3", 1e-3}, Case{"2.5e+2", 250.0},
                        Case{"10", 10.0}, Case{"0e0", 0.0}}) {
    auto v = ParseJson(c.text);
    ASSERT_TRUE(v.ok()) << c.text << ": " << v.status().message();
    EXPECT_EQ(v.value().AsDouble(), c.value) << c.text;
    EXPECT_EQ(std::signbit(v.value().AsDouble()), std::signbit(c.value))
        << c.text;
  }
}

TEST(JsonParseTest, RejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const std::string doc =
      R"({"apps":["com.example.survey.apk"],"energy-allotted":45000,)"
      R"("waypoints":[{"altitude":15,"latitude":43.6084298}]})";
  auto v = ParseJson(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().Dump(), doc);
}

TEST(JsonDumpTest, PrettyOutputReparses) {
  JsonObject obj;
  obj["list"] = JsonArray{1, 2, 3};
  obj["name"] = "drone";
  JsonValue v{std::move(obj)};
  auto re = ParseJson(v.DumpPretty());
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value(), v);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  JsonValue v{std::string("a\x01z")};
  EXPECT_EQ(v.Dump(), "\"a\\u0001z\"");
}

// The printf/strtod number rule the serializer had before it moved to
// std::to_chars/std::from_chars, kept as the reference the new spelling
// must match byte for byte.
std::string ReferenceNumber(double d) {
  char buf[40];
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) {
      break;
    }
  }
  return buf;
}

// The escaper before it became run-based, kept as the byte reference.
std::string ReferenceEscape(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
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
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void ExpectNumberMatchesReference(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  EXPECT_EQ(FormatNumberCompact(d), ReferenceNumber(d))
      << "bits " << std::hex << bits;
}

TEST(JsonNumberTest, RandomBitPatternsMatchPrintfReference) {
  // Every exponent, subnormals, NaN of both signs and infinities.
  Rng rng(0xb175ULL);
  for (int i = 0; i < 100'000; ++i) {
    ExpectNumberMatchesReference(FromBits(rng.NextU64()));
  }
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
  };
  for (double d : specials) {
    ExpectNumberMatchesReference(d);
  }
}

TEST(JsonNumberTest, IntegersNearTheIntegralCutoffMatchPrintfReference) {
  for (double base : {1e15, -1e15}) {
    for (int k = -2000; k <= 2000; ++k) {
      const double d = base + k;
      ExpectNumberMatchesReference(d);
      ExpectNumberMatchesReference(d + 0.5);
      ExpectNumberMatchesReference(std::nextafter(d, 0.0));
      ExpectNumberMatchesReference(std::nextafter(d, 2 * d));
    }
  }
  for (int64_t i = -100'000; i <= 100'000; i += 7) {
    ExpectNumberMatchesReference(static_cast<double>(i));
  }
}

TEST(JsonNumberTest, EveryDecadeAndItsNeighborsMatchPrintfReference) {
  // 1e-330 (below the smallest subnormal) through 1e308, each power of ten
  // with its neighbours one ULP away and a few mantissas in between.
  for (int exp = -330; exp <= 308; ++exp) {
    const double decade = std::strtod(("1e" + std::to_string(exp)).c_str(),
                                      nullptr);
    for (double mantissa : {1.0, 1.5, 2.5, 3.3333333333333335, 9.99}) {
      const double d = decade * mantissa;
      for (double v : {d, std::nextafter(d, 0.0),
                       std::nextafter(d, std::numeric_limits<double>::max())}) {
        ExpectNumberMatchesReference(v);
        ExpectNumberMatchesReference(-v);
      }
    }
  }
}

TEST(JsonNumberTest, CoordinateLikeValuesMatchPrintfReference) {
  // The values definitions actually carry: degrees and metres with 15-17
  // significant digits.
  Rng rng(0xc0deULL);
  for (int i = 0; i < 50'000; ++i) {
    ExpectNumberMatchesReference(rng.Uniform(-180, 180));
    ExpectNumberMatchesReference(rng.Uniform(0, 500) * 0.1);
  }
}

TEST(JsonEscapeTest, EveryByteEscapesAsBefore) {
  for (int b = 0; b < 256; ++b) {
    const std::string s = std::string("a") + static_cast<char>(b) + "z";
    const std::string expected = "\"" + ReferenceEscape(s) + "\"";
    EXPECT_EQ(JsonValue(s).Dump(), expected) << "byte " << b;
    JsonObject obj;
    obj[s] = JsonValue(nullptr);
    EXPECT_EQ(JsonValue(std::move(obj)).Dump(), "{" + expected + ":null}")
        << "key byte " << b;
    EXPECT_EQ(JsonEscape(s), ReferenceEscape(s)) << "byte " << b;
  }
  std::string all;
  for (int b = 255; b >= 0; --b) {
    all += static_cast<char>(b);
    all += "run";
  }
  EXPECT_EQ(JsonEscape(all), ReferenceEscape(all));
  EXPECT_EQ(JsonEscape(""), "");
}

// One nested value with empty containers at several depths.
JsonValue LayoutSample() {
  JsonObject b;
  b["c"] = "x";
  b["d"] = JsonArray{};
  JsonObject root;
  root["a"] = JsonArray{1, JsonObject{}, JsonArray{}, 2.5};
  root["b"] = std::move(b);
  root["e"] = JsonObject{};
  root["f"] = JsonArray{JsonArray{true, nullptr}};
  return JsonValue(std::move(root));
}

TEST(JsonDumpTest, CompactLayoutIsPinned) {
  EXPECT_EQ(LayoutSample().Dump(),
            R"({"a":[1,{},[],2.5],"b":{"c":"x","d":[]},"e":{},)"
            R"("f":[[true,null]]})");
  EXPECT_EQ(JsonValue(JsonObject{}).Dump(), "{}");
  EXPECT_EQ(JsonValue(JsonArray{}).DumpPretty(), "[]");
  EXPECT_EQ(JsonValue(-3).DumpPretty(), "-3");
}

TEST(JsonDumpTest, PrettyLayoutIsPinned) {
  EXPECT_EQ(LayoutSample().DumpPretty(),
            "{\n"
            "  \"a\": [\n"
            "    1,\n"
            "    {},\n"
            "    [],\n"
            "    2.5\n"
            "  ],\n"
            "  \"b\": {\n"
            "    \"c\": \"x\",\n"
            "    \"d\": []\n"
            "  },\n"
            "  \"e\": {},\n"
            "  \"f\": [\n"
            "    [\n"
            "      true,\n"
            "      null\n"
            "    ]\n"
            "  ]\n"
            "}");
}

TEST(JsonWriterTest, StreamedDocumentEqualsTreeDump) {
  const JsonValue sample = LayoutSample();
  for (bool pretty : {false, true}) {
    std::string out;
    JsonWriter w(out, pretty);
    w.BeginObject();
    w.Key("a");
    w.BeginArray();
    w.Number(1);
    w.BeginObject();
    w.EndObject();
    w.BeginArray();
    w.EndArray();
    w.Number(2.5);
    w.EndArray();
    w.Key("b");
    w.Value(*sample.Find("b"));
    w.Key("e");
    w.BeginObject();
    w.EndObject();
    w.Key("f");
    w.BeginArray();
    w.BeginArray();
    w.Bool(true);
    w.Null();
    w.EndArray();
    w.EndArray();
    w.EndObject();
    EXPECT_EQ(out, pretty ? sample.DumpPretty() : sample.Dump());
  }
}

TEST(JsonValueTest, TypedLookupsWithDefaults) {
  auto v = ParseJson(R"({"n": 4.5, "s": "x", "b": true})").value();
  EXPECT_DOUBLE_EQ(v.GetNumberOr("n", 0), 4.5);
  EXPECT_DOUBLE_EQ(v.GetNumberOr("missing", 7.0), 7.0);
  EXPECT_EQ(v.GetIntOr("n", 0), 4);
  EXPECT_EQ(v.GetStringOr("s", ""), "x");
  EXPECT_EQ(v.GetStringOr("n", "fallback"), "fallback");  // Wrong type.
  EXPECT_TRUE(v.GetBoolOr("b", false));
  EXPECT_TRUE(v.GetBoolOr("missing", true));
}

// Property test: randomly generated documents survive dump -> parse -> dump.
JsonValue RandomJson(Rng& rng, int depth) {
  int pick = depth > 3 ? static_cast<int>(rng.NextU64Below(4))
                       : static_cast<int>(rng.NextU64Below(6));
  switch (pick) {
    case 0:
      return JsonValue(nullptr);
    case 1:
      return JsonValue(rng.Bernoulli(0.5));
    case 2:
      return JsonValue(static_cast<int64_t>(rng.NextU64Below(1'000'000)) -
                       500'000);
    case 3: {
      std::string s;
      size_t len = rng.NextU64Below(12);
      for (size_t i = 0; i < len; ++i) {
        s += static_cast<char>('a' + rng.NextU64Below(26));
      }
      return JsonValue(std::move(s));
    }
    case 4: {
      JsonArray arr;
      size_t len = rng.NextU64Below(4);
      for (size_t i = 0; i < len; ++i) {
        arr.push_back(RandomJson(rng, depth + 1));
      }
      return JsonValue(std::move(arr));
    }
    default: {
      JsonObject obj;
      size_t len = rng.NextU64Below(4);
      for (size_t i = 0; i < len; ++i) {
        obj["k" + std::to_string(i)] = RandomJson(rng, depth + 1);
      }
      return JsonValue(std::move(obj));
    }
  }
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  JsonValue v = RandomJson(rng, 0);
  std::string once = v.Dump();
  auto parsed = ParseJson(once);
  ASSERT_TRUE(parsed.ok()) << once;
  EXPECT_EQ(parsed.value(), v);
  EXPECT_EQ(parsed.value().Dump(), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Range<uint64_t>(1, 33));

TEST_P(JsonRoundTripTest, ExtremeDoublesRoundTripBitExact) {
  // Doubles drawn from random bit patterns (denormals, huge exponents,
  // 17-significant-digit values): the shortest-round-trip serializer must
  // reproduce each one bit-exactly through dump -> parse.
  Rng rng(GetParam() ^ 0x5ca1ab1eULL);
  for (int i = 0; i < 64; ++i) {
    uint64_t bits = rng.NextU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) {
      continue;  // JSON has no NaN/Inf encoding.
    }
    JsonValue v(d);
    std::string dumped = v.Dump();
    auto parsed = ParseJson(dumped);
    ASSERT_TRUE(parsed.ok()) << dumped;
    ASSERT_TRUE(parsed.value().is_number()) << dumped;
    double back = parsed.value().AsDouble();
    uint64_t back_bits;
    std::memcpy(&back_bits, &back, sizeof(back));
    // Normalize -0.0 vs 0.0: both are exact parses of "-0"/"0".
    if (d == 0.0 && back == 0.0) {
      continue;
    }
    EXPECT_EQ(bits, back_bits) << dumped << " reparsed as " << back;
  }
}

}  // namespace
}  // namespace androne
