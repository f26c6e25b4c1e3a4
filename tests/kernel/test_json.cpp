// Unit tests for the minimal JSON reader.
#include <gtest/gtest.h>

#include <string>

#include "kernel/json.h"

namespace {

using namespace jsk::kernel::json;

TEST(json, parses_primitives)
{
    EXPECT_TRUE(parse("null").is_null());
    EXPECT_TRUE(parse("true").as_bool());
    EXPECT_FALSE(parse("false").as_bool());
    EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-3.5e2").as_number(), -350.0);
    EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(json, parses_escapes)
{
    EXPECT_EQ(parse(R"("a\"b\\c\nd")").as_string(), "a\"b\\c\nd");
    EXPECT_THROW(parse(R"("\q")"), parse_error);  // unknown escapes still rejected
}

TEST(json, parses_nested_structures)
{
    const value v = parse(R"({"a": [1, {"b": true}], "c": "x"})");
    ASSERT_TRUE(v.is_object());
    const auto& arr = v.get("a").as_array();
    ASSERT_EQ(arr.size(), 2u);
    EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
    EXPECT_TRUE(arr[1].get("b").as_bool());
    EXPECT_EQ(v.get_string("c"), "x");
}

TEST(json, empty_containers)
{
    EXPECT_TRUE(parse("{}").as_object().empty());
    EXPECT_TRUE(parse("[]").as_array().empty());
}

TEST(json, whitespace_tolerant)
{
    const value v = parse("  {\n\t\"k\" :  [ 1 , 2 ]\n}  ");
    EXPECT_EQ(v.get("k").as_array().size(), 2u);
}

TEST(json, get_on_missing_key_is_null)
{
    const value v = parse(R"({"a": 1})");
    EXPECT_TRUE(v.get("missing").is_null());
    EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
}

TEST(json, rejects_malformed_documents)
{
    EXPECT_THROW(parse(""), parse_error);
    EXPECT_THROW(parse("{"), parse_error);
    EXPECT_THROW(parse("{\"a\" 1}"), parse_error);
    EXPECT_THROW(parse("[1,]"), parse_error);
    EXPECT_THROW(parse("tru"), parse_error);
    EXPECT_THROW(parse("1 2"), parse_error);        // trailing content
    EXPECT_THROW(parse("\"unterminated"), parse_error);
    EXPECT_THROW(parse("{\"a\":1,\"a\":2}"), parse_error);  // duplicate key
    EXPECT_THROW(parse("-"), parse_error);
}

TEST(json, parse_error_carries_offset)
{
    try {
        parse("[1, x]");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_GT(e.offset(), 0u);
    }
}

TEST(json, parses_unicode_escapes)
{
    EXPECT_EQ(parse(R"("\u0041")").as_string(), "A");
    EXPECT_EQ(parse(R"("\u0001")").as_string(), std::string("\x01"));
    EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xc3\xa9");      // e-acute
    EXPECT_EQ(parse(R"("\u4e2d")").as_string(), "\xe4\xb8\xad");  // CJK
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
    EXPECT_THROW(parse(R"("\u12")"), parse_error);      // truncated
    EXPECT_THROW(parse(R"("\uzzzz")"), parse_error);    // non-hex
    EXPECT_THROW(parse(R"("\ud83d")"), parse_error);    // unpaired high
    EXPECT_THROW(parse(R"("\ude00")"), parse_error);    // unpaired low
    EXPECT_THROW(parse(R"("\ud83dx")"), parse_error);   // pair cut short
}

TEST(json, dump_is_compact_key_ordered_and_round_trips)
{
    object o;
    o.emplace("b", value{2.0});
    o.emplace("a", value{std::string("hi\n\x01")});
    o.emplace("list", value{array{value{true}, value{nullptr}, value{0.5}}});
    const value v{std::move(o)};

    const std::string text = dump(v);
    // std::map iteration order: keys sorted; integers render without exponent;
    // control characters escape as \uXXXX.
    EXPECT_EQ(text, "{\"a\":\"hi\\n\\u0001\",\"b\":2,\"list\":[true,null,0.5]}");

    // Round trip through our own parser preserves structure and bytes.
    const value back = parse(text);
    EXPECT_EQ(dump(back), text);
    EXPECT_EQ(back.get_string("a"), std::string("hi\n\x01"));
}

TEST(json, dump_renders_large_and_fractional_numbers_deterministically)
{
    EXPECT_EQ(dump(value{1234567890.0}), "1234567890");
    EXPECT_EQ(dump(value{-3.0}), "-3");
    EXPECT_EQ(dump(value{0.1}), "0.10000000000000001");  // %.17g, bit-exact
    const value round_tripped = parse(dump(value{0.1}));
    EXPECT_EQ(round_tripped.as_number(), 0.1);
}

// --- nesting cap: outside input cannot recurse the parser off the stack ------

/// The offset parse() reports for `text`, or npos when it parses.
std::size_t error_offset(const std::string& text)
{
    try {
        parse(text);
    } catch (const parse_error& e) {
        return e.offset();
    }
    return std::string::npos;
}

TEST(json, refuses_arrays_nested_past_the_cap)
{
    EXPECT_EQ(error_offset(std::string(100'000, '[')), max_depth);
    EXPECT_EQ(error_offset(std::string(max_depth + 1, '[') + std::string(max_depth + 1, ']')),
              max_depth);
}

TEST(json, refuses_objects_nested_past_the_cap)
{
    std::string deep;
    for (std::size_t i = 0; i <= max_depth; ++i) deep += "{\"k\":";
    deep += "1" + std::string(max_depth + 1, '}');
    EXPECT_EQ(error_offset(deep), max_depth * 5);  // the first '{' past the cap
}

TEST(json, parses_a_document_exactly_at_the_cap)
{
    value v = parse(std::string(max_depth, '[') + std::string(max_depth, ']'));
    for (std::size_t depth = 1; depth < max_depth; ++depth) {
        ASSERT_EQ(v.as_array().size(), 1u);
        v = value(v.as_array()[0]);
    }
    EXPECT_TRUE(v.as_array().empty());

    std::string objects;
    for (std::size_t i = 0; i < max_depth; ++i) objects += "{\"k\":";
    objects += "1" + std::string(max_depth, '}');
    EXPECT_NO_THROW(parse(objects));
}

}  // namespace
