/**
 * @file
 * Tests for the ANCHORTLB_* environment readers.
 */

#include <gtest/gtest.h>

#include <cstdlib>

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

TEST(Env, ConfiguredThreadCountDefaultsToHardware)
{
    ::unsetenv("ANCHORTLB_THREADS");
    EXPECT_EQ(configuredThreadCount(), hardwareThreadCount());
    EXPECT_GE(hardwareThreadCount(), 1u);
}

} // namespace
} // namespace atlb
