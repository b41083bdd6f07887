/**
 * @file
 * Tests for the binary trace file format.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "trace/trace_io.hh"

namespace atlb
{
namespace
{

class TraceIoTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per test case and process: ctest runs cases of this
        // binary concurrently.
        const auto *info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = testing::TempDir() + "atlb_" + info->name() + "_" +
                std::to_string(::getpid()) + ".bin";
        detail::setThrowOnError(true);
    }
    void TearDown() override
    {
        detail::setThrowOnError(false);
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTrip)
{
    std::vector<MemAccess> accesses = {
        {VirtAddr{0x7f0000000000}, false},
        {VirtAddr{0x7f0000001008}, true},
        {VirtAddr{0x12345678}, false},
        {VirtAddr{~0ULL - 7}, true},
    };
    {
        TraceWriter w(path_);
        for (const auto &a : accesses)
            w.append(a);
        EXPECT_EQ(w.written(), accesses.size());
    }
    TraceFileSource src(path_);
    EXPECT_EQ(src.length(), accesses.size());
    MemAccess got;
    for (const auto &expect : accesses) {
        ASSERT_TRUE(src.next(got));
        EXPECT_EQ(got.vaddr, VirtAddr{expect.vaddr.raw() & ~1ULL});
        EXPECT_EQ(got.write, expect.write);
    }
    EXPECT_FALSE(src.next(got));
}

TEST_F(TraceIoTest, EmptyTrace)
{
    { TraceWriter w(path_); }
    TraceFileSource src(path_);
    EXPECT_EQ(src.length(), 0u);
    MemAccess a;
    EXPECT_FALSE(src.next(a));
}

TEST_F(TraceIoTest, ResetReplays)
{
    {
        TraceWriter w(path_);
        w.append({VirtAddr{0x1000}, false});
        w.append({VirtAddr{0x2000}, true});
    }
    TraceFileSource src(path_);
    MemAccess a;
    ASSERT_TRUE(src.next(a));
    ASSERT_TRUE(src.next(a));
    ASSERT_FALSE(src.next(a));
    src.reset();
    ASSERT_TRUE(src.next(a));
    EXPECT_EQ(a.vaddr, VirtAddr{0x1000});
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileSource("/nonexistent/path/trace.bin"),
                 std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NOTATRACEFILE___garbage";
    }
    EXPECT_THROW(TraceFileSource src(path_), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyIsFatalAtOpen)
{
    {
        TraceWriter w(path_);
        for (int i = 0; i < 10; ++i)
            w.append({VirtAddr{static_cast<std::uint64_t>(i) << 12}, false});
    }
    // Chop half a record: the open-time size check must reject the file
    // before any record is served (previously this failed mid-replay).
    {
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        const auto size = in.tellg();
        std::vector<char> buf(static_cast<std::size_t>(size) - 4);
        in.seekg(0);
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    EXPECT_THROW(TraceFileSource src(path_), std::runtime_error);
}

TEST_F(TraceIoTest, OversizedFileIsFatalAtOpen)
{
    {
        TraceWriter w(path_);
        for (int i = 0; i < 10; ++i)
            w.append({VirtAddr{static_cast<std::uint64_t>(i) << 12}, false});
    }
    // Append stray bytes: the header now undercounts the body, which
    // would silently drop the tail without the size check.
    {
        std::ofstream out(path_,
                          std::ios::binary | std::ios::app);
        out << "junk";
    }
    EXPECT_THROW(TraceFileSource src(path_), std::runtime_error);
}

TEST_F(TraceIoTest, OverflowingHeaderCountIsFatalAtOpen)
{
    // A 16-byte file claiming 2^61 accesses makes count * 8 wrap to 0,
    // so a naive `16 + count * 8 == size` check would pass; the count
    // must be bounded by division before it is multiplied.
    {
        TraceWriter w(path_); // empty trace: header only
    }
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(8);
        const std::uint64_t bogus = 1ULL << 61;
        for (int i = 0; i < 8; ++i) {
            const char byte =
                static_cast<char>((bogus >> (8 * i)) & 0xff);
            f.write(&byte, 1);
        }
    }
    EXPECT_THROW(TraceFileSource src(path_), std::runtime_error);
}

TEST_F(TraceIoTest, LargeRoundTripPreservesOrder)
{
    const std::uint64_t n = 50000;
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({VirtAddr{(i * 0x9e3779b9ULL) << 3}, (i & 3) == 0});
    }
    TraceFileSource src(path_);
    MemAccess a;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(src.next(a));
        ASSERT_EQ(a.vaddr, VirtAddr{((i * 0x9e3779b9ULL) << 3) & ~1ULL});
        ASSERT_EQ(a.write, (i & 3) == 0);
    }
    EXPECT_FALSE(src.next(a));
}

} // namespace
} // namespace atlb
