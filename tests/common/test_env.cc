/**
 * @file
 * Tests for the ANCHORTLB_* environment readers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "common/env.hh"

namespace atlb
{
namespace
{

TEST(Env, ConfiguredThreadCountHonoursEnvVariable)
{
    ::setenv("ANCHORTLB_THREADS", "5", 1);
    EXPECT_EQ(configuredThreadCount(), 5u);
    ::unsetenv("ANCHORTLB_THREADS");
}

TEST(Env, ParseU64TakesTheWholeStringOrNothing)
{
    EXPECT_EQ(parseU64("20000"), 20000u);
    EXPECT_EQ(parseU64("18446744073709551615"), ~0ULL);
    EXPECT_EQ(parseU64("7f0000000", 16), 0x7f0000000ULL);
    for (const char *bad : {"", "20k", "-1", "+1", " 1", "1 ", "0x10",
                            "18446744073709551616"})
        EXPECT_EQ(parseU64(bad), std::nullopt) << "'" << bad << "'";
}

TEST(Env, ParseDoubleTakesTheWholeStringOrNothing)
{
    EXPECT_EQ(parseDouble("0.02"), 0.02);
    EXPECT_EQ(parseDouble("1e-3"), 1e-3);
    EXPECT_EQ(parseDouble("-0.5"), -0.5);
    for (const char *bad : {"", "0.5x", "x", " 1", "1 ", "1,5"})
        EXPECT_EQ(parseDouble(bad), std::nullopt) << "'" << bad << "'";
}

TEST(Env, ConfiguredThreadCountDefaultsToHardware)
{
    ::unsetenv("ANCHORTLB_THREADS");
    EXPECT_EQ(configuredThreadCount(), hardwareThreadCount());
    EXPECT_GE(hardwareThreadCount(), 1u);
}

} // namespace
} // namespace atlb
