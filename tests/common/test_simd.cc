/**
 * @file
 * Tests for the runtime SIMD dispatch layer and its kernels.
 *
 * The dispatch contract (common/simd.hh): every vector kernel is
 * bit-for-bit equivalent to its scalar reference. The differentials
 * here sweep the full input space boundaries — all 65 bit widths,
 * counts crossing every 4-lane group and buffer tail, eq-bitset word
 * straddles — against references built from the same primitives the
 * production scalar paths use (getBits, plain loops). On hosts whose
 * detected level is scalar the kernel tests skip; the dispatch tests
 * still run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bitpack.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/simd_test_util.hh"

namespace atlb
{
namespace
{

TEST(SimdDispatch, LevelNames)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Neon), "neon");
}

TEST(SimdDispatch, ScalarLevelHasNoKernelPointers)
{
    // nullptr is the scalar contract for the per-access kernels: call
    // sites keep their inline reference loops instead of an indirect
    // call. The block unpack runs once per block, so the decoder takes
    // one path at every level and the scalar level's kernel is the
    // reference unpack itself.
    EXPECT_EQ(simdFindU64Fn(SimdLevel::Scalar), nullptr);
    EXPECT_EQ(simdVpnEqFn(SimdLevel::Scalar), nullptr);
    EXPECT_EQ(simdBlockUnpackFn(SimdLevel::Scalar), &scalarUnpackBits);
}

TEST(SimdDispatch, DetectedVectorLevelProvidesAllKernels)
{
    const SimdLevel d = detectedSimdLevel();
    if (d == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    EXPECT_NE(simdFindU64Fn(d), nullptr);
    EXPECT_NE(simdVpnEqFn(d), nullptr);
    // NEON's block unpack is the shared scalar routine on purpose: it
    // has no 64-bit gather.
    EXPECT_NE(simdBlockUnpackFn(d), nullptr);
}

TEST(SimdDispatch, ForceIsScopedAndRestored)
{
    const SimdLevel before = simdLevel();
    {
        test::ScopedSimdLevel forced(SimdLevel::Scalar);
        EXPECT_EQ(simdLevel(), SimdLevel::Scalar);
    }
    EXPECT_EQ(simdLevel(), before);
}

TEST(AlignedU64Buffer, AlignedZeroedCopyableMovable)
{
    AlignedU64Buffer a(9);
    ASSERT_EQ(a.size(), 9u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % simdAlignBytes,
              0u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], 0u);
    a[3] = 42;

    AlignedU64Buffer b = a; // copy
    EXPECT_EQ(b.size(), 9u);
    EXPECT_EQ(b[3], 42u);
    b[3] = 7;
    EXPECT_EQ(a[3], 42u) << "copy must not alias";

    const AlignedU64Buffer c = std::move(b); // move
    EXPECT_EQ(c[3], 7u);
    EXPECT_EQ(b.size(), 0u); // NOLINT(bugprone-use-after-move)

    a.reset(2);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], 0u);
}

// --- set-probe kernel ---------------------------------------------------

TEST(SimdFindU64, EveryPositionAndCountMatchesScalarScan)
{
    const SimdFindU64Fn fn = simdFindU64Fn(detectedSimdLevel());
    if (fn == nullptr)
        GTEST_SKIP() << "no vector level on this host";
    const std::uint64_t want = 0xdeadbeefcafef00dULL;
    for (unsigned count = 1; count <= 16; ++count) {
        AlignedU64Buffer words(count);
        for (unsigned i = 0; i < count; ++i)
            words[i] = 1000 + i; // never equal to want
        EXPECT_EQ(fn(words.data(), count, want), -1) << count;
        for (unsigned pos = 0; pos < count; ++pos) {
            words[pos] = want;
            EXPECT_EQ(fn(words.data(), count, want),
                      static_cast<int>(pos))
                << count << "/" << pos;
            words[pos] = 1000 + pos;
        }
    }
}

TEST(SimdFindU64, ZeroCountNeverMatches)
{
    const SimdFindU64Fn fn = simdFindU64Fn(detectedSimdLevel());
    if (fn == nullptr)
        GTEST_SKIP() << "no vector level on this host";
    const std::uint64_t word = 5;
    EXPECT_EQ(fn(&word, 0, 5), -1);
}

// --- bit-unpack kernel --------------------------------------------------

/**
 * Pack @p vals at @p width bits with putBits into an *exact-size*
 * buffer — no slack, so a kernel that over-reads its tail trips ASan.
 */
std::vector<std::uint8_t>
packExact(const std::vector<std::uint64_t> &vals, unsigned width)
{
    const std::size_t bytes = (vals.size() * width + 7) / 8;
    std::vector<std::uint8_t> buf(std::max<std::size_t>(bytes, 1), 0);
    std::uint64_t bitpos = 0;
    for (const std::uint64_t v : vals) {
        putBits(buf.data(), bitpos, v, width);
        bitpos += width;
    }
    return buf;
}

TEST(SimdUnpack, WidthExhaustiveRoundTrip)
{
    // Every width 0..64 x counts crossing each 4-lane group boundary
    // and the gather-safe/tail crossover. The scalar routine is itself
    // checked against the values packed (putBits/getBits round-trip),
    // then the vector kernel against the scalar output.
    const SimdUnpackFn fn = simdBlockUnpackFn(detectedSimdLevel());
    Rng rng(0xbeef);
    const std::size_t counts[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 100};
    for (unsigned width = 0; width <= 64; ++width) {
        const std::uint64_t mask =
            width >= 64 ? ~0ULL : ((std::uint64_t{1} << width) - 1);
        for (const std::size_t count : counts) {
            std::vector<std::uint64_t> vals(count);
            for (std::uint64_t &v : vals)
                v = rng.next() & mask;
            const std::vector<std::uint8_t> buf = packExact(vals, width);

            std::vector<std::uint64_t> scalar(count + 1, 0xa5a5);
            scalarUnpackBits(buf.data(), buf.size(), width,
                             scalar.data(), count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(scalar[i], vals[i])
                    << "scalar w=" << width << " n=" << count
                    << " i=" << i;

            std::vector<std::uint64_t> simd(count + 1, 0x5a5a);
            fn(buf.data(), buf.size(), width, simd.data(), count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(simd[i], vals[i])
                    << "simd w=" << width << " n=" << count
                    << " i=" << i;
        }
    }
}

TEST(SimdUnpack, SlackBufferTakesTheVectorPathAllTheWay)
{
    // With >= 8 trailing slack bytes every field is gather-safe, so
    // the vector loop covers the whole run.
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    const SimdUnpackFn fn = simdBlockUnpackFn(detectedSimdLevel());
    Rng rng(0xf00d);
    for (const unsigned width : {1u, 13u, 33u, 52u, 57u}) {
        const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
        std::vector<std::uint64_t> vals(257);
        for (std::uint64_t &v : vals)
            v = rng.next() & mask;
        std::vector<std::uint8_t> buf = packExact(vals, width);
        buf.resize(buf.size() + 8, 0);
        std::vector<std::uint64_t> out(vals.size());
        fn(buf.data(), buf.size(), width, out.data(), vals.size());
        for (std::size_t i = 0; i < vals.size(); ++i)
            ASSERT_EQ(out[i], vals[i]) << "w=" << width << " i=" << i;
    }
}

// --- VPN/same-page pre-pass kernel --------------------------------------

/** Reference form of the SimdVpnEqFn contract, written as plain loops. */
void
refVpnEq(const std::uint8_t *accesses, std::size_t count, unsigned shift,
         std::uint64_t prev, std::uint64_t *vpns, std::uint64_t *eqbits)
{
    for (std::size_t w = 0; w < (count + 63) / 64; ++w)
        eqbits[w] = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t raw = 0;
        std::memcpy(&raw, accesses + 16 * i, sizeof(raw));
        vpns[i] = raw >> shift;
        const std::uint64_t before = i == 0 ? prev : vpns[i - 1];
        if (vpns[i] == before)
            eqbits[i / 64] |= std::uint64_t{1} << (i % 64);
    }
}

TEST(SimdVpnEq, MatchesReferenceAcrossCountsAndStraddles)
{
    const SimdVpnEqFn fn = simdVpnEqFn(detectedSimdLevel());
    if (fn == nullptr)
        GTEST_SKIP() << "no vector level on this host";
    Rng rng(0x51bd);
    // Counts crossing 4-lane groups and the 64-bit bitset words (the
    // vector eq groups start at i = 1, so movemask nibbles straddle
    // word boundaries near 64/128).
    const std::size_t counts[] = {0,  1,  2,  3,   4,   5,   7,  8,
                                  63, 64, 65, 127, 128, 200, 512};
    for (const std::size_t count : counts) {
        for (const unsigned shift : {12u, 21u}) {
            // 16-byte records; repeats are frequent so eq bits are
            // dense (same page := same value after the shift).
            std::vector<std::uint8_t> recs(16 * count + 1);
            std::uint64_t va = 0x7f00000000ULL;
            for (std::size_t i = 0; i < count; ++i) {
                if (rng.nextBounded(3) != 0)
                    va += rng.nextBounded(2) << shift;
                const std::uint64_t low = rng.nextBounded(
                    std::uint64_t{1} << shift);
                const std::uint64_t word = (va & ~((std::uint64_t{1}
                                                    << shift) -
                                                   1)) |
                                           low;
                std::memcpy(recs.data() + 16 * i, &word, sizeof(word));
            }
            const std::uint64_t prev =
                count != 0 && rng.nextBounded(2) != 0
                    ? va >> shift
                    : ~std::uint64_t{0};

            const std::size_t words = (count + 63) / 64;
            std::vector<std::uint64_t> ref_vpns(count + 1);
            std::vector<std::uint64_t> ref_bits(words + 1);
            refVpnEq(recs.data(), count, shift, prev, ref_vpns.data(),
                     ref_bits.data());

            AlignedU64Buffer vpns(count + 1);
            AlignedU64Buffer bits(words + 1);
            for (std::size_t w = 0; w < words; ++w)
                bits[w] = ~std::uint64_t{0}; // kernel must zero these
            fn(recs.data(), count, shift, prev, vpns.data(),
               bits.data());

            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(vpns[i], ref_vpns[i])
                    << "n=" << count << " i=" << i;
            for (std::size_t w = 0; w < words; ++w)
                ASSERT_EQ(bits[w], ref_bits[w])
                    << "n=" << count << " word=" << w;
        }
    }
}

} // namespace
} // namespace atlb
