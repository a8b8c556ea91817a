#include "ranycast/io/json.hpp"

#include <gtest/gtest.h>

namespace ranycast::io {
namespace {

Json parse(std::string_view text) { return parse_json_or_throw(text); }

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainers) {
  const Json arr = parse("[1, 2, 3]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr.as_array()[2].as_number(), 3.0);

  const Json obj = parse("{\"a\": 1, \"b\": [true]}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_DOUBLE_EQ(obj.find("a")->as_number(), 1.0);
  EXPECT_TRUE(obj.find("b")->as_array()[0].as_bool());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, ParsesNested) {
  const Json j = parse(R"({"w": {"x": {"y": [1, {"z": "deep"}]}}})");
  const Json* w = j.find("w");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->find("x")->find("y")->as_array()[1].find("z")->as_string(), "deep");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xC3\xA9");   // é
  EXPECT_EQ(parse(R"("€")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, WhitespaceTolerant) {
  const Json j = parse("  {\n\t\"a\" :\r [ ] }  ");
  EXPECT_TRUE(j.find("a")->is_array());
}

TEST(Json, RejectsMalformed) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
                          "{\"a\" 1}", "[1,]x", "nul"}) {
    const auto result = parse_json(bad);
    EXPECT_TRUE(std::holds_alternative<JsonParseError>(result)) << bad;
  }
}

TEST(Json, ErrorCarriesPosition) {
  const auto result = parse_json("[1, x]");
  ASSERT_TRUE(std::holds_alternative<JsonParseError>(result));
  EXPECT_EQ(std::get<JsonParseError>(result).position, 4u);
}

TEST(Json, DumpCompact) {
  JsonObject obj{{"b", Json(true)}, {"a", Json(1)}};
  EXPECT_EQ(Json(obj).dump(), "{\"a\":1,\"b\":true}");
  EXPECT_EQ(Json(JsonArray{Json(1), Json("x")}).dump(), "[1,\"x\"]");
  EXPECT_EQ(Json(nullptr).dump(), "null");
}

TEST(Json, DumpEscapesStrings) {
  EXPECT_EQ(Json("a\"b\nc").dump(), R"("a\"b\nc")");
}

TEST(Json, DumpIntegersWithoutDecimalNoise) {
  EXPECT_EQ(Json(2023).dump(), "2023");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
}

TEST(Json, IntegersRoundTripExactly) {
  for (const char* text : {"18446744073709551615",  // 2^64 - 1
                           "-9223372036854775808",  // -2^63
                           "9007199254740993"}) {   // 2^53 + 1
    EXPECT_EQ(parse(text).dump(), text);
    EXPECT_TRUE(parse(text).is_number());
  }
  EXPECT_DOUBLE_EQ(parse("9007199254740993").as_number(), 9007199254740992.0);
  // Unsigned values above INT64_MAX come back through int_or's wrap.
  EXPECT_EQ(static_cast<std::uint64_t>(
                parse(R"({"seed":18446744073709551615})").int_or("seed", 0)),
            18446744073709551615ull);
  // Beyond uint64 and with a fraction or exponent, a literal is a double.
  EXPECT_EQ(parse("18446744073709551616").dump(), "1.8446744073709552e+19");
  EXPECT_EQ(parse("[1.5e3,2.0,-0.25]").dump(), "[1500,2,-0.25]");
}

TEST(Json, RoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":"nested \"quote\""},"d":-7})";
  const Json parsed = parse(doc);
  const Json reparsed = parse(parsed.dump());
  EXPECT_EQ(reparsed.dump(), parsed.dump());
}

TEST(Json, PrettyPrintHasIndentation) {
  const Json j = parse(R"({"a":[1]})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(Json, TypedReaders) {
  const Json j = parse(R"({"n": 3, "s": "str", "b": true})");
  EXPECT_EQ(j.int_or("n", 0), 3);
  EXPECT_EQ(j.int_or("missing", 9), 9);
  EXPECT_EQ(j.string_or("s", ""), "str");
  EXPECT_EQ(j.string_or("n", "fallback"), "fallback");  // wrong type
  EXPECT_TRUE(j.bool_or("b", false));
  EXPECT_DOUBLE_EQ(j.number_or("n", 0.0), 3.0);
}

}  // namespace
}  // namespace ranycast::io
