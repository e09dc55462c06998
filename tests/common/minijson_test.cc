/**
 * @file
 * Unit tests for the public minijson API (common/minijson.hh): the
 * strict RFC 8259 parse() contract, byte-offset error messages and
 * the nesting-depth limit.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/minijson.hh"

using namespace vsv;

TEST(MinijsonParse, Scalars)
{
    EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
        minijson::parse("null").v));
    EXPECT_EQ(std::get<bool>(minijson::parse("true").v), true);
    EXPECT_EQ(std::get<bool>(minijson::parse("false").v), false);
    EXPECT_DOUBLE_EQ(minijson::parse("-12.5e2").num(), -1250.0);
    EXPECT_EQ(minijson::parse("\"a\\nb\\u0041\"").str(), "a\nbA");
}

TEST(MinijsonParse, NestedDocument)
{
    const minijson::Value doc = minijson::parse(
        R"({"runs":[{"id":"mcf/base","ok":true},{"id":"mcf/fsm"}],)"
        R"("seed":7})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("runs"));
    ASSERT_TRUE(doc.at("runs").isArray());
    EXPECT_EQ(doc.at("runs").array().size(), 2u);
    EXPECT_EQ(doc.at("runs").array()[0].at("id").str(), "mcf/base");
    EXPECT_DOUBLE_EQ(doc.at("seed").num(), 7.0);
    EXPECT_FALSE(doc.has("absent"));
    EXPECT_THROW(doc.at("absent"), std::runtime_error);
}

TEST(MinijsonParse, RejectsNonRfc8259)
{
    // Each deviation must throw, not be half-accepted.
    EXPECT_THROW(minijson::parse(""), std::runtime_error);
    EXPECT_THROW(minijson::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(minijson::parse("{a:1}"), std::runtime_error);
    EXPECT_THROW(minijson::parse("[1,2,]"), std::runtime_error);
    EXPECT_THROW(minijson::parse("01"), std::runtime_error);
    EXPECT_THROW(minijson::parse("+1"), std::runtime_error);
    EXPECT_THROW(minijson::parse("1."), std::runtime_error);
    EXPECT_THROW(minijson::parse("NaN"), std::runtime_error);
    EXPECT_THROW(minijson::parse("Infinity"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"bad \\x escape\""),
                 std::runtime_error);
    EXPECT_THROW(minijson::parse("\"\\u00ff\""), std::runtime_error);
    EXPECT_THROW(minijson::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"raw\ncontrol\""),
                 std::runtime_error);
}

TEST(MinijsonParse, ErrorsNameTheByteOffset)
{
    try {
        minijson::parse("{\"a\": zz}");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("at byte"),
                  std::string::npos);
    }
}

TEST(MinijsonParse, DeepNestingIsAParseErrorNotACrash)
{
    // 100 000 '[' used to recurse once per bracket and overflow the
    // stack; a campaign peer could send exactly this as its HELLO.
    const std::string hostile =
        std::string(100000, '[') + std::string(100000, ']');
    try {
        minijson::parse(hostile);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("minijson: ", 0), 0u) << what;
        EXPECT_NE(what.find("nesting"), std::string::npos) << what;
    }
    EXPECT_THROW(minijson::parse(std::string(100000, '{')),
                 std::runtime_error);

    // The limit is exact, and objects and arrays share it.
    const std::size_t max = minijson::Parser::maxDepth;
    EXPECT_NO_THROW(minijson::parse(std::string(max, '[') +
                                    std::string(max, ']')));
    EXPECT_THROW(minijson::parse(std::string(max + 1, '[') +
                                 std::string(max + 1, ']')),
                 std::runtime_error);
    std::string mixed;
    for (std::size_t i = 0; i < max; ++i)
        mixed += i % 2 ? "[" : "{\"k\":";
    EXPECT_THROW(minijson::parse(mixed + "[]"), std::runtime_error);
}
