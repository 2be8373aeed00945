//===- JsonTest.cpp -------------------------------------------------------===//

#include "support/Json.h"
#include "support/JsonCheck.h"

#include <gtest/gtest.h>

#include <limits>

using namespace slam;

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json::escape("hello world_123"), "hello world_123");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("\\\""), "\\\\\\\"");
}

TEST(JsonEscape, EscapesNamedControlCharacters) {
  EXPECT_EQ(json::escape("a\nb"), "a\\nb");
  EXPECT_EQ(json::escape("\t\r\b\f"), "\\t\\r\\b\\f");
}

TEST(JsonEscape, EscapesOtherControlCharactersAsUnicode) {
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  EXPECT_EQ(json::escape(std::string_view("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscape, PassesNonAsciiBytesThrough) {
  // JSON documents are UTF-8; multi-byte sequences go through verbatim.
  EXPECT_EQ(json::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, EmitsNestedStructure) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.kv("name", "x");
  W.key("values");
  W.beginArray();
  W.value(1);
  W.value(2);
  W.beginObject();
  W.kv("ok", true);
  W.endObject();
  W.endArray();
  W.key("nothing");
  W.null();
  W.endObject();
  EXPECT_TRUE(W.complete());
  EXPECT_EQ(Out,
            "{\"name\":\"x\",\"values\":[1,2,{\"ok\":true}],"
            "\"nothing\":null}");
  EXPECT_TRUE(json::isValid(Out));
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.kv("a\"b", "c\nd");
  W.endObject();
  EXPECT_EQ(Out, "{\"a\\\"b\":\"c\\nd\"}");
  EXPECT_TRUE(json::isValid(Out));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::string Out;
  json::Writer W(Out);
  W.beginArray();
  W.value(1.5);
  W.value(std::numeric_limits<double>::infinity());
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.endArray();
  EXPECT_EQ(Out, "[1.5,null,null]");
  EXPECT_TRUE(json::isValid(Out));
}

TEST(JsonIsValid, AcceptsDocuments) {
  EXPECT_TRUE(json::isValid("{}"));
  EXPECT_TRUE(json::isValid("[]"));
  EXPECT_TRUE(json::isValid("  {\"a\": [1, -2.5, 1e9, true, null]} "));
  EXPECT_TRUE(json::isValid("\"\\u00e9\\n\""));
  EXPECT_TRUE(json::isValid("-0.5"));
}

TEST(JsonIsValid, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::isValid(""));
  EXPECT_FALSE(json::isValid("{"));
  EXPECT_FALSE(json::isValid("{\"a\":}"));
  EXPECT_FALSE(json::isValid("[1,]"));
  EXPECT_FALSE(json::isValid("{\"a\":1}x"));
  EXPECT_FALSE(json::isValid("'single'"));
  EXPECT_FALSE(json::isValid("{\"a\" 1}"));
  EXPECT_FALSE(json::isValid("01"));
  EXPECT_FALSE(json::isValid("\"\\x\""));
  EXPECT_FALSE(json::isValid(std::string_view("\"a\nb\"", 5)));
}
