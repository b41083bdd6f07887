/**
 * @file
 * Tests for the ATLBTRC1 module: TraceWriter's bytes, and
 * MappedTraceSource replaying exactly the accesses handed to the
 * writer (and a plain std::ifstream decode of the same file) or
 * refusing the file at open.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "ingest/trace_v1.hh"

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
        path_ = testing::TempDir() + "atlb_" + info->test_suite_name() +
                "_" + info->name() + "_" + std::to_string(::getpid()) +
                ".bin";
        detail::setThrowOnError(true);
    }
    void TearDown() override
    {
        detail::setThrowOnError(false);
        std::remove(path_.c_str());
    }

    /** Write @p n accesses i << 12 (reads); return them. */
    std::vector<MemAccess> writePages(std::uint64_t n)
    {
        std::vector<MemAccess> accesses;
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i) {
            accesses.push_back({VirtAddr{i << 12}, false});
            w.append(accesses.back());
        }
        return accesses;
    }

    /** Write @p n accesses with scattered vaddrs, every fourth a write. */
    std::vector<MemAccess> writeScattered(std::uint64_t n)
    {
        std::vector<MemAccess> accesses;
        TraceWriter w(path_);
        for (std::uint64_t i = 0; i < n; ++i) {
            accesses.push_back(
                {VirtAddr{(i * 0x9e3779b9ULL) << 3}, (i & 3) == 0});
            w.append(accesses.back());
        }
        return accesses;
    }

    /** Overwrite the header's access count with @p count. */
    void patchHeaderCount(std::uint64_t count)
    {
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        for (int i = 0; i < 8; ++i) {
            const char byte = static_cast<char>((count >> (8 * i)) & 0xff);
            f.write(&byte, 1);
        }
    }

    /** The open must fail, fatally and through traceV1Count alike. */
    void expectRefused(const std::string &reason)
    {
        std::string error;
        EXPECT_FALSE(traceV1Count(path_, error));
        EXPECT_NE(error.find(reason), std::string::npos) << error;
        EXPECT_THROW(MappedTraceSource src(path_), std::runtime_error);
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
    std::string error;
    EXPECT_EQ(traceV1Count(path_, error), accesses.size()) << error;
    MappedTraceSource src(path_);
    EXPECT_EQ(src.length(), accesses.size());
    MemAccess got;
    for (const auto &expect : accesses) {
        ASSERT_TRUE(src.next(got));
        EXPECT_EQ(got.vaddr, VirtAddr{expect.vaddr.raw() & ~1ULL});
        EXPECT_EQ(got.write, expect.write);
    }
    EXPECT_FALSE(src.next(got));
}

TEST_F(TraceIoTest, WriterBytesArePinned)
{
    // The whole file, byte for byte: a writer and a reader that change
    // together still round-trip, so only a literal catches a format
    // change.
    {
        TraceWriter w(path_);
        w.append({VirtAddr{0x7f0000001000}, false});
        w.append({VirtAddr{0x7f0000002008}, true});
        w.append({VirtAddr{0x12345679}, false}); // odd: low bit dropped
    }
    const unsigned char expect[] = {
        'A', 'T', 'L', 'B', 'T', 'R', 'C', '1',         // magic
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count
        0x00, 0x10, 0x00, 0x00, 0x00, 0x7f, 0x00, 0x00, // read
        0x09, 0x20, 0x00, 0x00, 0x00, 0x7f, 0x00, 0x00, // write
        0x78, 0x56, 0x34, 0x12, 0x00, 0x00, 0x00, 0x00, // read, even
    };
    std::ifstream in(path_, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, std::string(reinterpret_cast<const char *>(expect),
                               sizeof(expect)));
}

TEST_F(TraceIoTest, EmptyTrace)
{
    { TraceWriter w(path_); }
    MappedTraceSource src(path_);
    EXPECT_EQ(src.length(), 0u);
    MemAccess a;
    EXPECT_FALSE(src.next(a));
}

TEST_F(TraceIoTest, ResetReplays)
{
    const std::vector<MemAccess> written = writePages(1'000);
    MappedTraceSource src(path_);
    MemAccess a;
    for (std::size_t i = 0; i < written.size(); ++i)
        ASSERT_TRUE(src.next(a));
    EXPECT_EQ(a.vaddr, written.back().vaddr);
    ASSERT_FALSE(src.next(a));
    src.reset();
    ASSERT_TRUE(src.next(a));
    EXPECT_EQ(a.vaddr, written.front().vaddr);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(MappedTraceSource("/nonexistent/path/trace.bin"),
                 std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NOTATRACEFILE___garbage";
    }
    expectRefused("is not an ATLBTRC1 trace file");
}

TEST_F(TraceIoTest, TruncatedBodyIsFatalAtOpen)
{
    writePages(10);
    // Chop half a record: the open-time size check must reject the file
    // before any record is served.
    {
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        const auto size = in.tellg();
        std::vector<char> buf(static_cast<std::size_t>(size) - 4);
        in.seekg(0);
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    expectRefused("header counts 10 accesses but the file holds 92 bytes");
}

TEST_F(TraceIoTest, OversizedFileIsFatalAtOpen)
{
    writePages(10);
    // Append stray bytes: the header now undercounts the body, which
    // would silently drop the tail without the size check.
    {
        std::ofstream out(path_,
                          std::ios::binary | std::ios::app);
        out << "junk";
    }
    expectRefused(
        "header counts 10 accesses but the file holds 100 bytes");
}

TEST_F(TraceIoTest, OverflowingHeaderCountIsFatalAtOpen)
{
    // A 16-byte file claiming 2^61 accesses makes count * 8 wrap to 0,
    // so a naive `16 + count * 8 == size` check would pass and fill()
    // would run off the end of the mapping; the count must be bounded
    // by division before it is multiplied.
    writePages(0); // header only
    patchHeaderCount(1ULL << 61);
    expectRefused("(truncated or oversized)");
}

TEST_F(TraceIoTest, LargeRoundTripPreservesOrder)
{
    // Drained in chunks that divide nothing, so chunk edges land
    // everywhere in the record stream.
    const std::uint64_t n = 50000;
    const std::vector<MemAccess> written = writeScattered(n);
    MappedTraceSource src(path_);
    std::vector<MemAccess> got;
    MemAccess buf[333];
    while (const std::size_t k = src.fill(buf, 333))
        got.insert(got.end(), buf, buf + k);
    ASSERT_EQ(got.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i].vaddr, written[i].vaddr) << "record " << i;
        ASSERT_EQ(got[i].write, written[i].write) << "record " << i;
    }
}

/**
 * The mmap reader on its own: its chunked decode against a plain
 * stream read of the same bytes, its rewind, and the files it must
 * refuse before mapping.
 */
class MappedTraceTest : public TraceIoTest
{
  protected:
    /** Decode path_ record by record through std::ifstream. */
    std::vector<MemAccess> readWithIfstream()
    {
        std::ifstream in(path_, std::ios::binary);
        char magic[8] = {};
        in.read(magic, 8);
        EXPECT_TRUE(std::equal(magic, magic + 8, traceV1Magic));
        const std::uint64_t count = readU64(in);
        std::vector<MemAccess> accesses;
        for (std::uint64_t i = 0; i < count && in; ++i) {
            const std::uint64_t word = readU64(in);
            accesses.push_back({VirtAddr{word & ~1ULL}, (word & 1) != 0});
        }
        EXPECT_TRUE(in) << "file ends before its header's count";
        return accesses;
    }

    /** Drain @p src through fill() in chunks of @p chunk. */
    static std::vector<MemAccess> drain(MappedTraceSource &src,
                                        std::size_t chunk)
    {
        std::vector<MemAccess> got;
        std::vector<MemAccess> buf(chunk);
        while (const std::size_t k = src.fill(buf.data(), chunk))
            got.insert(got.end(), buf.begin(), buf.begin() + k);
        return got;
    }

  private:
    static std::uint64_t readU64(std::istream &in)
    {
        unsigned char bytes[8] = {};
        in.read(reinterpret_cast<char *>(bytes), 8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
        return v;
    }
};

TEST_F(MappedTraceTest, MatchesIfstreamReaderExactly)
{
    const std::uint64_t n = 20'000;
    writeScattered(n);
    const std::vector<MemAccess> expect = readWithIfstream();
    ASSERT_EQ(expect.size(), n);
    MappedTraceSource mapped(path_);
    EXPECT_EQ(mapped.length(), n);
    MemAccess b;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(mapped.next(b));
        ASSERT_EQ(expect[i].vaddr, b.vaddr) << "record " << i;
        ASSERT_EQ(expect[i].write, b.write) << "record " << i;
    }
    EXPECT_FALSE(mapped.next(b));
}

TEST_F(MappedTraceTest, BatchedFillMatchesNext)
{
    const std::uint64_t n = 5'000;
    writeScattered(n);
    MappedTraceSource batched(path_);
    const std::vector<MemAccess> got = drain(batched, 333);
    MappedTraceSource single(path_);
    MemAccess a;
    ASSERT_EQ(got.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(single.next(a));
        ASSERT_EQ(got[i].vaddr, a.vaddr) << "record " << i;
        ASSERT_EQ(got[i].write, a.write) << "record " << i;
    }
    EXPECT_FALSE(single.next(a));
}

TEST_F(MappedTraceTest, ResetRewindsAnExhaustedSource)
{
    // Exhausted through fill(), rewound, drained again in a chunk size
    // that lands the chunk edges elsewhere: the same stream both times.
    const std::vector<MemAccess> written = writeScattered(1'000);
    MappedTraceSource mapped(path_);
    const std::vector<MemAccess> first = drain(mapped, 64);
    MemAccess a;
    EXPECT_FALSE(mapped.next(a));
    mapped.reset();
    const std::vector<MemAccess> second = drain(mapped, 97);
    ASSERT_EQ(first.size(), written.size());
    ASSERT_EQ(second.size(), written.size());
    for (std::size_t i = 0; i < written.size(); ++i) {
        ASSERT_EQ(first[i].vaddr, written[i].vaddr) << "record " << i;
        ASSERT_EQ(second[i].vaddr, written[i].vaddr) << "record " << i;
        ASSERT_EQ(second[i].write, written[i].write) << "record " << i;
    }
}

TEST_F(MappedTraceTest, MissingFileIsFatal)
{
    // path_ names no file: SetUp creates none.
    expectRefused("cannot open trace file");
}

TEST_F(MappedTraceTest, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NOTATRACEFILE___"; // exactly one header's worth
    }
    expectRefused("is not an ATLBTRC1 trace file");
}

TEST_F(MappedTraceTest, SizeMismatchIsFatalAtOpen)
{
    writePages(8);
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "xx"; // header now undercounts the body
    }
    expectRefused("header counts 8 accesses but the file holds 82 bytes");
}

TEST_F(MappedTraceTest, OverflowingHeaderCountIsFatalAtOpen)
{
    // A one-record file whose header claims 2^61 + 1 accesses: count * 8
    // wraps to 8, so a naive `16 + count * 8 == size` check matches the
    // 24-byte file exactly and fill() would read far past the mapping.
    writePages(1);
    patchHeaderCount((1ULL << 61) + 1);
    expectRefused("(truncated or oversized)");
}

} // namespace
} // namespace atlb
