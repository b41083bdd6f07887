/**
 * @file
 * Tests for the ATLBTRC2 block codec: round-trip fidelity, seek
 * behaviour across block boundaries, and corruption detection.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/simd_test_util.hh"
#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"
#include "ingest/trace_v2_crafted.hh"

namespace atlb
{
namespace
{

class TraceV2Test : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            testing::UnitTest::GetInstance()->current_test_info();
        path_ = testing::TempDir() + "atlb_v2_" + info->name() + "_" +
                std::to_string(::getpid()) + ".bin";
        detail::setThrowOnError(true);
    }
    void TearDown() override
    {
        detail::setThrowOnError(false);
        std::remove(path_.c_str());
    }

    void write(const std::vector<MemAccess> &accesses,
               std::uint64_t block_capacity)
    {
        TraceV2Writer w(path_, block_capacity);
        for (const MemAccess &a : accesses)
            w.append(a);
        w.close();
        ASSERT_EQ(w.written(), accesses.size());
    }

    std::vector<MemAccess> readAll()
    {
        TraceV2Source src(path_);
        std::vector<MemAccess> out;
        MemAccess a;
        while (src.next(a))
            out.push_back(a);
        return out;
    }

    /** Random stream mixing local and far jumps, reads and writes. */
    static std::vector<MemAccess> randomStream(std::size_t n,
                                               std::uint32_t seed)
    {
        std::mt19937_64 rng(seed);
        std::vector<MemAccess> out;
        out.reserve(n);
        std::uint64_t va = 0x7f0000000000ULL;
        for (std::size_t i = 0; i < n; ++i) {
            switch (rng() % 4) {
              case 0: va += rng() % 4096; break;            // same page
              case 1: va += pageBytes * (rng() % 8); break; // near
              case 2: va -= std::min(va, pageBytes * (rng() % 512));
                      break;                                // backwards
              default: va = 0x7f0000000000ULL + (rng() % (1ULL << 34));
                      break;                                // far jump
            }
            out.push_back({VirtAddr{va}, (rng() & 1) != 0});
        }
        return out;
    }

    static std::vector<char> slurp(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        std::vector<char> buf(static_cast<std::size_t>(in.tellg()));
        in.seekg(0);
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        return buf;
    }

    static void dump(const std::string &path,
                     const std::vector<char> &buf)
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }

    static std::uint64_t readU64At(const std::vector<char> &buf,
                                   std::size_t at)
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[at + i]))
                 << (8 * i);
        return v;
    }

    static void putU64At(std::vector<char> &buf, std::size_t at,
                         std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }

    std::string path_;
};

TEST_F(TraceV2Test, RoundTripIsByteEqual)
{
    // Property: decode(encode(s)) == s exactly, including write flags
    // and odd vaddrs (v2, unlike v1, keeps vaddr's low bit).
    for (const std::uint32_t seed : {1u, 2u, 3u}) {
        const std::vector<MemAccess> in = randomStream(10'000, seed);
        write(in, 1024);
        const std::vector<MemAccess> out = readAll();
        ASSERT_EQ(out.size(), in.size());
        for (std::size_t i = 0; i < in.size(); ++i) {
            ASSERT_EQ(out[i].vaddr, in[i].vaddr) << "access " << i;
            ASSERT_EQ(out[i].write, in[i].write) << "access " << i;
        }
    }
}

TEST_F(TraceV2Test, BitPackedBlocksRoundTripAndCompress)
{
    // A gups-like stream — uniformly random jumps over a huge
    // footprint — defeats varint coding (every delta needs 5+ bytes),
    // so the writer must fall back to the tag-1 bit-packed block
    // encoding. Check the round trip stays exact and the file still
    // beats v1's flat 8 bytes/access.
    std::mt19937_64 rng(29);
    std::vector<MemAccess> in;
    in.reserve(20'000);
    for (std::size_t i = 0; i < 20'000; ++i) {
        const std::uint64_t va =
            0x100000000ULL + (rng() % (1ULL << 33)) * 8;
        in.push_back({VirtAddr{va}, (rng() & 1) != 0});
    }
    write(in, 1024);
    const std::vector<MemAccess> out = readAll();
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(out[i].vaddr, in[i].vaddr) << "access " << i;
        ASSERT_EQ(out[i].write, in[i].write) << "access " << i;
    }
    std::ifstream f(path_, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::uint64_t>(f.tellg());
    // 36-bit deltas pack to ~4.5 bytes/access plus index overhead;
    // varint would need ~5.6. Anything under 5x shows tag 1 engaged.
    EXPECT_LT(bytes, in.size() * 5);
}

TEST_F(TraceV2Test, EmptyTrace)
{
    write({}, 64);
    TraceV2Source src(path_);
    EXPECT_EQ(src.length(), 0u);
    EXPECT_EQ(src.blockCount(), 0u);
    MemAccess a;
    EXPECT_FALSE(src.next(a));
    src.reset();
    EXPECT_FALSE(src.next(a));
}

TEST_F(TraceV2Test, MultiBlockGeometry)
{
    const std::vector<MemAccess> in = randomStream(1000, 7);
    write(in, 64); // 15 full blocks + a 40-access tail
    TraceV2Source src(path_);
    EXPECT_EQ(src.length(), 1000u);
    EXPECT_EQ(src.blockCapacity(), 64u);
    EXPECT_EQ(src.blockCount(), 16u);
}

TEST_F(TraceV2Test, TrailerCarriesVaddrBounds)
{
    std::vector<MemAccess> in = randomStream(500, 11);
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const MemAccess &a : in) {
        lo = std::min(lo, a.vaddr.raw());
        hi = std::max(hi, a.vaddr.raw());
    }
    write(in, 128);
    TraceV2Source src(path_);
    EXPECT_EQ(src.minVaddr(), lo);
    EXPECT_EQ(src.maxVaddr(), hi);
}

TEST_F(TraceV2Test, FillMatchesNext)
{
    const std::vector<MemAccess> in = randomStream(777, 13);
    write(in, 64);
    TraceV2Source batched(path_);
    std::vector<MemAccess> got;
    MemAccess buf[100]; // deliberately not a divisor of the block size
    std::size_t n;
    while ((n = batched.fill(buf, 100)) > 0)
        got.insert(got.end(), buf, buf + n);
    ASSERT_EQ(got.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        ASSERT_EQ(got[i].vaddr, in[i].vaddr) << "access " << i;
}

TEST_F(TraceV2Test, BackwardRepositionWithinTheLoadedBlock)
{
    // The reader keeps the loaded block decoded; a reset() back into
    // it must serve that block's words from the start rather than
    // re-read the file or serve stale words.
    const std::vector<MemAccess> in = randomStream(500, 41);
    write(in, 256);
    TraceV2Source src(path_);
    MemAccess a;
    for (int i = 0; i < 100; ++i) // land mid-block 0
        ASSERT_TRUE(src.next(a));
    src.reset();
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(src.next(a)) << "access " << i;
        EXPECT_EQ(a.vaddr, in[static_cast<std::size_t>(i)].vaddr)
            << "access " << i;
    }
    // Forward again past the original cursor, still block 0.
    for (std::size_t i = 30; i <= 180; ++i) {
        ASSERT_TRUE(src.next(a)) << "access " << i;
        EXPECT_EQ(a.vaddr, in[i].vaddr) << "access " << i;
    }
}

TEST_F(TraceV2Test, BlockStatsMatchIndexAndObserveBothEncodings)
{
    // Half page-local (varint wins), half uniformly scattered
    // (bit-packed wins): blockStats must agree with the index on
    // count/bytes and surface both encoding tags.
    std::mt19937_64 rng(43);
    std::vector<MemAccess> in;
    for (std::size_t i = 0; i < 2'000; ++i)
        in.push_back({VirtAddr{0x7f0000000000ULL + i * 64}, false});
    for (std::size_t i = 0; i < 2'000; ++i)
        in.push_back(
            {VirtAddr{0x100000000ULL + (rng() % (1ULL << 33)) * 8},
             false});
    write(in, 256);

    TraceV2Source src(path_);
    std::uint64_t total = 0, varint = 0, packed = 0;
    for (std::size_t b = 0; b < src.blockCount(); ++b) {
        const TraceV2BlockStats s = src.blockStats(b);
        EXPECT_GE(s.bytes, 2u) << "block " << b; // tag + payload
        EXPECT_GT(s.count, 0u) << "block " << b;
        if (s.encoding == traceV2EncodingVarint) {
            ++varint;
            EXPECT_EQ(s.packed_width, 0u) << "block " << b;
        } else {
            ASSERT_EQ(s.encoding, traceV2EncodingPacked);
            ++packed;
            EXPECT_GE(s.packed_width, 1u) << "block " << b;
            EXPECT_LE(s.packed_width, 64u) << "block " << b;
        }
        total += s.count;
    }
    EXPECT_EQ(total, src.length());
    EXPECT_GT(varint, 0u);
    EXPECT_GT(packed, 0u);
}

TEST_F(TraceV2Test, BlockStatsDoesNotDisturbReplay)
{
    const std::vector<MemAccess> in = randomStream(1'000, 47);
    write(in, 128);
    TraceV2Source src(path_);
    MemAccess a;
    for (int i = 0; i < 200; ++i) // cursor mid-block 1
        ASSERT_TRUE(src.next(a));
    // Interrogate every block — including the loaded one and blocks
    // behind/ahead of the cursor — then keep replaying.
    for (std::size_t b = 0; b < src.blockCount(); ++b)
        (void)src.blockStats(b);
    for (std::size_t i = 200; i < in.size(); ++i) {
        ASSERT_TRUE(src.next(a)) << "access " << i;
        ASSERT_EQ(a.vaddr, in[i].vaddr) << "access " << i;
        ASSERT_EQ(a.write, in[i].write) << "access " << i;
    }
    EXPECT_FALSE(src.next(a));
}

TEST_F(TraceV2Test, ConvertFromV1IsStreamEqual)
{
    // v1 drops vaddr's low bit at write time; converting the decoded v1
    // stream to v2 and back must reproduce it exactly.
    const std::string v1_path = path_ + ".v1";
    const std::vector<MemAccess> in = randomStream(3'000, 17);
    {
        TraceWriter w(v1_path);
        for (const MemAccess &a : in)
            w.append(a);
    }
    {
        MappedTraceSource v1(v1_path);
        TraceV2Writer w(path_, 256);
        MemAccess a;
        while (v1.next(a))
            w.append(a);
        w.close();
    }
    MappedTraceSource v1(v1_path);
    TraceV2Source v2(path_);
    MemAccess a, b;
    std::size_t i = 0;
    while (v1.next(a)) {
        ASSERT_TRUE(v2.next(b)) << "access " << i;
        ASSERT_EQ(a.vaddr, b.vaddr) << "access " << i;
        ASSERT_EQ(a.write, b.write) << "access " << i;
        ++i;
    }
    EXPECT_FALSE(v2.next(b));
    std::remove(v1_path.c_str());
}

TEST_F(TraceV2Test, HugeVaddrIsFatalAtWrite)
{
    TraceV2Writer w(path_);
    EXPECT_THROW(w.append({VirtAddr{1ULL << 63}, false}), std::runtime_error);
}

TEST_F(TraceV2Test, FlippedBlockByteIsFatalAtDecode)
{
    write(randomStream(1'000, 19), 64);
    // Flip one byte inside the first block's payload (offset 16 is the
    // first encoded access): the per-block FNV must catch it when that
    // block is decoded.
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekg(20);
        char byte;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(20);
        f.write(&byte, 1);
    }
    TraceV2Source src(path_); // index still intact: open succeeds
    MemAccess a;
    EXPECT_THROW(src.next(a), std::runtime_error);
}

TEST_F(TraceV2Test, MangledIndexFooterIsFatalAtOpen)
{
    write(randomStream(1'000, 23), 64);
    std::uint64_t file_bytes;
    {
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        file_bytes = static_cast<std::uint64_t>(in.tellg());
    }
    // Corrupt a byte inside the block index (between the trailer's
    // index_offset and the trailer itself): the index checksum in the
    // trailer must reject the file before any block is read.
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(static_cast<std::streamoff>(file_bytes - 64 - 8));
        const char junk = 0x5a;
        f.write(&junk, 1);
    }
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);
}

TEST_F(TraceV2Test, TruncatedFileIsFatalAtOpen)
{
    write(randomStream(1'000, 29), 64);
    std::vector<char> buf;
    {
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        buf.resize(static_cast<std::size_t>(in.tellg()) - 9);
        in.seekg(0);
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    }
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);
}

TEST_F(TraceV2Test, OverflowingBlockCountIsFatalAtOpen)
{
    write(randomStream(1'000, 31), 64);
    // Add 2^59 to the trailer's block_count: block_count * 32 wraps by
    // exactly 2^64, so a naive geometry sum still matches the file
    // size while the index allocation balloons to exabytes. The open
    // must reject the count with a clean fatal instead.
    std::vector<char> buf = slurp(path_);
    const std::size_t count_at = buf.size() - 64 + 8;
    std::uint64_t block_count = readU64At(buf, count_at);
    putU64At(buf, count_at, block_count + (1ULL << 59));
    dump(path_, buf);
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);
}

TEST_F(TraceV2Test, PayloadIndexGapIsFatalAtOpen)
{
    write(randomStream(1'000, 37), 64);
    // Splice pad bytes between the last block and the index, bumping
    // the trailer's index_offset to match: every per-block check and
    // the index checksum still pass, but the payload no longer ends
    // where the index starts — open-time validation must notice.
    std::vector<char> buf = slurp(path_);
    const std::size_t offset_at = buf.size() - 64;
    const std::uint64_t index_offset = readU64At(buf, offset_at);
    putU64At(buf, offset_at, index_offset + 8);
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(index_offset),
               8, '\x5a');
    dump(path_, buf);
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);
}

TEST_F(TraceV2Test, OversizedBlockCapacityIsRefusedAtOpen)
{
    // One packed block of 2^58 + 1 accesses at width 64 under a header
    // of the same capacity. (count - 1) * 64 wraps to 0, so a payload
    // check that multiplies first takes the 9-byte body as whole, and a
    // reader then asks for exabytes of words or reads past the body.
    // The capacity cap refuses the file before any block is read.
    test::writeOversizedPackedBlockTrace(path_, 0x7f0000000000ULL);
    const std::vector<char> file = slurp(path_);
    ASSERT_EQ(file.size(), 121u);
    std::string error;
    EXPECT_FALSE(traceV2Layout(path_, error));
    EXPECT_NE(error.find("ATLBTRC2 block capacity 288230376151711745 in "
                         "header is outside [1, 1048576]"),
              std::string::npos)
        << error;
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);

    // The body itself, with the count its index declares.
    std::vector<std::uint64_t> words;
    EXPECT_FALSE(decodeTraceV2Block(
        reinterpret_cast<const std::uint8_t *>(file.data()) + 16, 9,
        test::oversizedBlockCount, simdBlockUnpackFn(simdLevel()), words,
        error));
    EXPECT_EQ(error, "holds 288230376151711745 accesses (outside [1, "
                     "1048576])");
}

TEST_F(TraceV2Test, WidthZeroBlocksStopAtTheCap)
{
    // A width-0 packed block has an empty payload for any count, so
    // only the cap bounds the words it decodes to.
    const std::uint8_t body[] = {traceV2EncodingPacked, 0, 0x02};
    std::vector<std::uint64_t> words;
    std::string error;
    ASSERT_TRUE(decodeTraceV2Block(body, sizeof(body),
                                   traceV2MaxBlockCapacity,
                                   simdBlockUnpackFn(simdLevel()), words,
                                   error))
        << error;
    ASSERT_EQ(words.size(), traceV2MaxBlockCapacity);
    EXPECT_EQ(words.front(), 1u);
    EXPECT_EQ(words.back(), 1u);
    EXPECT_FALSE(decodeTraceV2Block(body, sizeof(body),
                                    traceV2MaxBlockCapacity + 1,
                                    simdBlockUnpackFn(simdLevel()), words,
                                    error));
    EXPECT_THROW(TraceV2Writer(path_, traceV2MaxBlockCapacity + 1),
                 std::runtime_error);
}

TEST_F(TraceV2Test, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "definitely not a trace file, but comfortably over "
               "eighty bytes of content so the length check passes";
    }
    EXPECT_THROW(TraceV2Source src(path_), std::runtime_error);
}

// --- scalar vs SIMD block decode ----------------------------------------

/**
 * The decoder captures its unpack kernel at construction, so a source
 * built inside a ScopedSimdLevel(Scalar) scope replays the whole file
 * through the scalar block unpack even after the scope ends.
 */
class TraceV2SimdTest : public TraceV2Test
{
  protected:
    std::vector<MemAccess> readAllScalar()
    {
        std::vector<MemAccess> out;
        std::unique_ptr<TraceV2Source> src;
        {
            test::ScopedSimdLevel forced(SimdLevel::Scalar);
            src = std::make_unique<TraceV2Source>(path_);
        }
        MemAccess a;
        while (src->next(a))
            out.push_back(a);
        return out;
    }

    static void expectSameStream(const std::vector<MemAccess> &a,
                                 const std::vector<MemAccess> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].vaddr, b[i].vaddr) << i;
            ASSERT_EQ(a[i].write, b[i].write) << i;
        }
    }

    /** Scattered stream: every delta is large, so bit-packing wins. */
    static std::vector<MemAccess> scatteredStream(std::size_t n,
                                                  std::uint32_t seed)
    {
        std::mt19937_64 rng(seed);
        std::vector<MemAccess> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back({VirtAddr{0x7f0000000000ULL +
                                    (rng() % (1ULL << 40))},
                           (rng() & 1) != 0});
        return out;
    }

    /** Count blocks using each encoding tag. */
    void countEncodings(std::size_t &varint, std::size_t &packed)
    {
        TraceV2Source src(path_);
        varint = packed = 0;
        for (std::size_t b = 0; b < src.blockCount(); ++b) {
            if (src.blockStats(b).encoding == traceV2EncodingPacked)
                ++packed;
            else
                ++varint;
        }
    }
};

TEST_F(TraceV2SimdTest, PackedBlocksDecodeIdenticallyAcrossLevels)
{
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    // Scattered stream, small capacity: many packed blocks plus a
    // partial tail block exercising the whole-block unpack boundary.
    write(scatteredStream(10'000, 5), 512);
    std::size_t varint = 0;
    std::size_t packed = 0;
    countEncodings(varint, packed);
    ASSERT_GT(packed, 0u) << "stream failed to force packed blocks";
    expectSameStream(readAll(), readAllScalar());
}

TEST_F(TraceV2SimdTest, MixedEncodingStreamDecodesIdentically)
{
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    // The writer picks per block whichever of varint/packed is smaller
    // (the packed_bytes < varint_bytes crossover). Alternate
    // block-aligned segments: tiny deltas with one far jump per block
    // (varint wins — packed would pay the jump's width on every
    // delta) and uniform scatter (packed wins — every delta is wide
    // anyway). The decoder must flip between the packed and the varint
    // block decode on every block boundary.
    constexpr std::size_t cap = 256;
    std::mt19937_64 rng(11);
    std::vector<MemAccess> stream;
    std::uint64_t va = 0x7f0000000000ULL;
    for (std::size_t b = 0; b < 40; ++b) {
        for (std::size_t i = 0; i < cap; ++i) {
            if ((b & 1) != 0)
                va = 0x7f0000000000ULL + (rng() % (1ULL << 40));
            else if (i == cap / 2)
                va = 0x7f0000000000ULL + (rng() % (1ULL << 38));
            else
                va += rng() % 16;
            stream.push_back({VirtAddr{va}, (rng() & 1) != 0});
        }
    }
    write(stream, cap);
    std::size_t varint = 0;
    std::size_t packed = 0;
    countEncodings(varint, packed);
    ASSERT_GT(varint, 0u) << "local segments no longer varint-encoded";
    ASSERT_GT(packed, 0u) << "scatter segments no longer packed";
    expectSameStream(readAll(), readAllScalar());
}

TEST_F(TraceV2SimdTest, ResetRereadsDecodeIdentically)
{
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    const std::vector<MemAccess> stream = scatteredStream(3'000, 23);
    write(stream, 512);

    TraceV2Source vec(path_);
    std::unique_ptr<TraceV2Source> scalar;
    {
        test::ScopedSimdLevel forced(SimdLevel::Scalar);
        scalar = std::make_unique<TraceV2Source>(path_);
    }
    // Each pass reads the first `stop` accesses (block capacity 512),
    // so the next reset() either lands in the loaded, already decoded
    // block 0 (after stops 1 and 511) or reloads it (after 513 and
    // 1029): every re-read must go through the same unpack kernel as
    // the first read.
    for (const std::size_t stop : {1u, 511u, 513u, 1'029u, 3'000u}) {
        vec.reset();
        scalar->reset();
        MemAccess va;
        MemAccess sa;
        for (std::size_t i = 0; i < stop; ++i) {
            ASSERT_TRUE(vec.next(va)) << "stop=" << stop << " i=" << i;
            ASSERT_TRUE(scalar->next(sa)) << "stop=" << stop
                                          << " i=" << i;
            ASSERT_EQ(va.vaddr, sa.vaddr) << "stop=" << stop
                                          << " i=" << i;
            ASSERT_EQ(va.write, sa.write) << "stop=" << stop
                                          << " i=" << i;
            ASSERT_EQ(va.vaddr, stream[i].vaddr)
                << "stop=" << stop << " i=" << i;
        }
    }
}

} // namespace
} // namespace atlb
