/** @file The strict number parsing every CLI flag goes through. */

#include <gtest/gtest.h>

#include <cstdint>

#include "base/numparse.hh"

namespace tw
{
namespace
{

TEST(NumParse, AcceptsPlainDigitsUpToTheBound)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUnsigned("0", 10, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("10", 10, v));
    EXPECT_EQ(v, 10u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", UINT64_MAX, v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(NumParse, RefusesWhatStrtoullWouldBend)
{
    // Each of these reads as some number through strtoull or atoi.
    for (const char *text :
         {"", " 1", "+1", "-1", "1 ", "1x", "0x10", "1e3", "11",
          "18446744073709551616"}) {
        std::uint64_t v = 7;
        EXPECT_FALSE(parseUnsigned(text, 10, v)) << "'" << text << "'";
        EXPECT_EQ(v, 7u) << "'" << text << "'";
    }
    std::uint64_t v = 0;
    EXPECT_FALSE(parseUnsigned(nullptr, 10, v));
}

TEST(NumParse, PositiveIntIsOneToUintMax)
{
    unsigned v = 0;
    EXPECT_TRUE(positiveInt("1", v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(positiveInt("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
    EXPECT_FALSE(positiveInt("0", v));
    EXPECT_FALSE(positiveInt("4294967296", v));
    EXPECT_FALSE(positiveInt("abc", v));
}

void
noUsage(std::FILE *)
{
}

TEST(NumParse, FlagsReadSizesAndExitTwoOnGarbage)
{
    const NumericFlags flags("prog", noUsage);
    EXPECT_EQ(flags.bytes("--cache", "64"), 64u);
    EXPECT_EQ(flags.bytes("--cache", "4K"), 4096u);
    EXPECT_EQ(flags.bytes("--cache", "2m"), 2u << 20);
    EXPECT_EQ(flags.number("--deadline", "0", 0, 5), 0u);
    EXPECT_EXIT(flags.bytes("--cache", "4Kb"),
                testing::ExitedWithCode(2),
                "prog: --cache: malformed value '4Kb'");
    EXPECT_EXIT(flags.bytes("--cache", "32"), testing::ExitedWithCode(2),
                "malformed");
    EXPECT_EXIT(flags.positive("--queue", "abc"),
                testing::ExitedWithCode(2), "--queue");
    EXPECT_EXIT(flags.number("--tcp", "65536", 1, 65535),
                testing::ExitedWithCode(2), "--tcp");
}

} // namespace
} // namespace tw
