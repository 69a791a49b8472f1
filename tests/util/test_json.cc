/**
 * @file
 * Unit tests for the minimal JSON reader (util/json.h).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/json.h"

namespace {

using repro::util::JsonValue;

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").asNumber(), -1500.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\te")").asString(),
              "a\"b\\c\nd\te");
    EXPECT_EQ(JsonValue::parse(R"("A")").asString(), "A");
}

TEST(JsonEscape, EscapesSpecialCharacters)
{
    using repro::util::jsonEscape;
    EXPECT_EQ(jsonEscape("plain ascii"), "plain ascii");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\x7f')), "\\u007f");
    EXPECT_EQ(jsonEscape(std::string(1, '\xff')), "\\u00ff");
}

TEST(JsonEscape, RoundTripsThroughParser)
{
    using repro::util::jsonEscape;
    const std::string cases[] = {
        std::string(),
        std::string("plain"),
        std::string("quote\" backslash\\ slash/ tab\t"),
        std::string("nul\0byte", 8),
        std::string("\b\f\n\r\t"),
        std::string("\x01\x1f\x7f"),
        std::string("high\xc3\xa9" "bytes\xff"),
    };
    for (const std::string &s : cases) {
        std::string wrapped = "\"";
        wrapped += jsonEscape(s);
        wrapped += '"';
        EXPECT_EQ(JsonValue::parse(wrapped).asString(), s)
            << "escaped form: " << wrapped;
    }
}

TEST(Json, ParsesNestedStructure)
{
    const JsonValue v = JsonValue::parse(
        R"({"counters": {"a": 1, "b": 2}, "list": [1, 2, 3],
            "flag": true})");
    ASSERT_TRUE(v.isObject());
    const JsonValue *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->object().at("a").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(counters->object().at("b").asNumber(), 2.0);
    const JsonValue *list = v.find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->array().size(), 3u);
    EXPECT_DOUBLE_EQ(list->array()[2].asNumber(), 3.0);
    EXPECT_TRUE(v.find("flag")->asBool());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("1 2"), std::runtime_error);
}

TEST(Json, ParseFileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "repro_test_json.json";
    {
        std::ofstream os(path);
        os << R"({"x": [true, "s"], "n": 7})";
    }
    const JsonValue v = JsonValue::parseFile(path);
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), 7.0);
    EXPECT_EQ(v.find("x")->array()[1].asString(), "s");
    std::remove(path.c_str());
}

TEST(Json, ParseFileMissingThrows)
{
    EXPECT_THROW(JsonValue::parseFile("/nonexistent/nope.json"),
                 std::runtime_error);
}

} // namespace
