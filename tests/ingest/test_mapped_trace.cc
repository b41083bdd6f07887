/**
 * @file
 * Tests for the mmap-backed zero-copy v1 reader.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "ingest/mapped_trace.hh"
#include "trace/trace_io.hh"

namespace atlb
{
namespace
{

class MappedTraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = testing::TempDir() + "atlb_map_" + info->name() + "_" +
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

TEST_F(MappedTraceTest, MatchesIfstreamReaderExactly)
{
    const std::uint64_t n = 20'000;
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({VirtAddr{(i * 0x9e3779b9ULL) << 3}, (i & 3) == 0});
    }
    TraceFileSource ifs(path_);
    MappedTraceSource mapped(path_);
    EXPECT_EQ(mapped.length(), n);
    MemAccess a, b;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(ifs.next(a));
        ASSERT_TRUE(mapped.next(b));
        ASSERT_EQ(a.vaddr, b.vaddr) << "record " << i;
        ASSERT_EQ(a.write, b.write) << "record " << i;
    }
    EXPECT_FALSE(mapped.next(b));
}

TEST_F(MappedTraceTest, BatchedFillMatchesNext)
{
    const std::uint64_t n = 5'000;
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({VirtAddr{i << 12}, (i & 1) == 0});
    }
    MappedTraceSource mapped(path_);
    std::vector<MemAccess> got;
    MemAccess buf[333];
    std::size_t k;
    while ((k = mapped.fill(buf, 333)) > 0)
        got.insert(got.end(), buf, buf + k);
    ASSERT_EQ(got.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i].vaddr, VirtAddr{i << 12});
        ASSERT_EQ(got[i].write, (i & 1) == 0);
    }
}

TEST_F(MappedTraceTest, ResetRewindsAnExhaustedSource)
{
    const std::uint64_t n = 1'000;
    {
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            w.append({VirtAddr{i << 12}, false});
    }
    MappedTraceSource mapped(path_);
    MemAccess a;
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(mapped.next(a));
    EXPECT_EQ(a.vaddr, VirtAddr{(n - 1) << 12});
    EXPECT_FALSE(mapped.next(a));
    mapped.reset();
    ASSERT_TRUE(mapped.next(a));
    EXPECT_EQ(a.vaddr, VirtAddr{0});
}

TEST_F(MappedTraceTest, MissingFileIsFatal)
{
    EXPECT_THROW(MappedTraceSource("/nonexistent/trace.bin"),
                 std::runtime_error);
}

TEST_F(MappedTraceTest, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NOTATRACEFILE___";
    }
    EXPECT_THROW(MappedTraceSource src(path_), std::runtime_error);
}

TEST_F(MappedTraceTest, SizeMismatchIsFatalAtOpen)
{
    {
        TraceWriter w(path_);
        for (int i = 0; i < 8; ++i)
            w.append({VirtAddr{static_cast<std::uint64_t>(i) << 12}, false});
    }
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "xx"; // header now undercounts the body
    }
    EXPECT_THROW(MappedTraceSource src(path_), std::runtime_error);
}

TEST_F(MappedTraceTest, OverflowingHeaderCountIsFatalAtOpen)
{
    // A 16-byte file whose header claims 2^61 accesses makes
    // count * 8 wrap to 0, so a naive `16 + count * 8 == size` check
    // passes and fill() runs off the end of the mapping. The open
    // must reject the count instead.
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
    EXPECT_THROW(MappedTraceSource src(path_), std::runtime_error);
}

} // namespace
} // namespace atlb
