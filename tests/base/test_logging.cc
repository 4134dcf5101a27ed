/** @file Unit tests for csprintf and the assertion machinery. */

#include <gtest/gtest.h>

#include "base/json.hh"
#include "base/logging.hh"

namespace tw
{
namespace
{

TEST(Csprintf, FormatsBasicTypes)
{
    EXPECT_EQ(csprintf("plain"), "plain");
    EXPECT_EQ(csprintf("%d + %d = %d", 2, 3, 5), "2 + 3 = 5");
    EXPECT_EQ(csprintf("%.3f", 1.0 / 3.0), "0.333");
    EXPECT_EQ(csprintf("%s-%c", "ab", 'z'), "ab-z");
}

TEST(Csprintf, HandlesLongOutput)
{
    std::string big(5000, 'x');
    std::string out = csprintf("[%s]", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 2);
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(out.back(), ']');
}

TEST(Csprintf, EmptyFormat)
{
    EXPECT_EQ(csprintf("%s", ""), "");
}

TEST(AssertDeath, PanicsWithMessage)
{
    EXPECT_DEATH(
        { TW_ASSERT(1 == 2, "math broke: %d", 42); }, "math broke: 42");
}

TEST(AssertDeath, PassesWhenTrue)
{
    TW_ASSERT(2 + 2 == 4, "should not fire");
    SUCCEED();
}

TEST(PanicDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %s", "now"), "boom now");
}

TEST(FatalDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %d", 7),
                ::testing::ExitedWithCode(1), "bad config 7");
}

TEST(LogJson, LinePinnedAtEpoch)
{
    // The exact line for a known instant: the TW_LOG=json format is
    // a contract with log scrapers, so a change here is a breaking
    // change, not a refactor.
    EXPECT_EQ(logLineJson("warn", "twserved", 3, 0, "hello"),
              "{\"ts\":\"1970-01-01T00:00:00.000Z\",\"level\":"
              "\"warn\",\"thread\":3,\"component\":\"twserved\","
              "\"msg\":\"hello\"}");
}

TEST(LogJson, EscapesAndParsesBack)
{
    std::string line = logLineJson(
        "info", "tw", 12, 1717171717123, "quo\"te\nnewline\ttab");
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(line, j, &err)) << err;
    ASSERT_TRUE(j.isObject());
    // Field order is insertion order — pinned.
    const auto &m = j.members();
    ASSERT_EQ(m.size(), 5u);
    EXPECT_EQ(m[0].first, "ts");
    EXPECT_EQ(m[1].first, "level");
    EXPECT_EQ(m[2].first, "thread");
    EXPECT_EQ(m[3].first, "component");
    EXPECT_EQ(m[4].first, "msg");
    EXPECT_EQ(j.find("level")->asString(), "info");
    EXPECT_EQ(j.find("thread")->asU64(), 12u);
    EXPECT_EQ(j.find("component")->asString(), "tw");
    EXPECT_EQ(j.find("msg")->asString(), "quo\"te\nnewline\ttab");
    // 1717171717123 ms = 2024-05-31T16:08:37.123Z.
    EXPECT_EQ(j.find("ts")->asString(), "2024-05-31T16:08:37.123Z");
}

TEST(LogJson, SetterSwitchesWarnLines)
{
    // twserved's main() calls setLogJson(true) for TW_LOG=json.
    setLogJson(true);
    ::testing::internal::CaptureStderr();
    warn("disk %d", 7);
    std::string json = ::testing::internal::GetCapturedStderr();
    setLogJson(false);
    ::testing::internal::CaptureStderr();
    warn("disk %d", 7);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "warn: disk 7\n");

    Json j;
    ASSERT_TRUE(Json::parse(json, j, nullptr)) << json;
    EXPECT_EQ(j.find("level")->asString(), "warn");
    EXPECT_EQ(j.find("msg")->asString(), "disk 7");
}

} // namespace
} // namespace tw
