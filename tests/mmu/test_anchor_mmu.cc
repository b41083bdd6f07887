/**
 * @file
 * Tests for the anchor (hybrid coalescing) MMU — paper Section 3,
 * Table 2 L2 flow, and Fig. 6 indexing.
 */

#include <gtest/gtest.h>

#include "mmu/anchor_mmu.hh"
#include "mmu_test_util.hh"
#include "os/table_builder.hh"

namespace atlb
{
namespace
{

using test::baseVpn;
using test::va;

class AnchorMmuTest : public ::testing::Test
{
  protected:
    AnchorMmuTest() : map_(test::makeVariedMap()) {}

    PageTable
    anchorTable(std::uint64_t distance)
    {
        return buildAnchorPageTable(map_, AnchorDist::fromPages(distance));
    }

    MemoryMap map_;
    MmuConfig cfg_;
};

TEST_F(AnchorMmuTest, Table2Row1RegularHit)
{
    // Pages 4..7 have an unmapped anchor VPN, so walks fill regular 4KB
    // entries; pages 16..115 are anchor-covered L1-eviction fodder.
    MemoryMap m;
    m.add(baseVpn + 4, Ppn{0x3000}, PageCount{4});
    m.add(baseVpn + 16, Ppn{0x5000}, PageCount{100});
    m.finalize();
    PageTable t = buildAnchorPageTable(m, AnchorDist::fromPages(8));
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    mmu.translate(va(5)); // walk, regular 4KB fill
    for (std::uint64_t i = 0; i < 100; ++i)
        mmu.translate(va(16 + i)); // evict the L1 4KB TLB
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.level, HitLevel::L2Regular);
    EXPECT_EQ(r.cycles, cfg_.l2_hit_cycles);
    EXPECT_EQ(r.ppn, Ppn{0x3001});
}

TEST_F(AnchorMmuTest, HugePagePreferredOverSmallDistanceAnchor)
{
    // Chunk B is huge-mapped; with distance 8 (< 512) the OS places no
    // anchor at the huge-page start, so translation uses 2MB entries.
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    const TranslationResult r = mmu.translate(va(512));
    EXPECT_EQ(r.size, PageSize::Huge2M);
    EXPECT_EQ(mmu.anchorStats().anchor_fills, 0u);
    EXPECT_EQ(mmu.anchorStats().regular_fills, 1u);
    // The whole block is now covered by the L1 2MB entry.
    EXPECT_EQ(mmu.translate(va(900)).level, HitLevel::L1);
}

TEST_F(AnchorMmuTest, Table2Row2AnchorHit)
{
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    EXPECT_EQ(mmu.translate(va(0)).level, HitLevel::PageWalk);
    // Pages 1..7 share page 0's anchor (contiguity 8).
    for (std::uint64_t i = 1; i < 8; ++i) {
        const TranslationResult r = mmu.translate(va(i));
        ASSERT_EQ(r.level, HitLevel::Coalesced) << "page " << i;
        ASSERT_EQ(r.ppn, map_.translate(baseVpn + i));
        ASSERT_EQ(r.cycles, cfg_.coalesced_hit_cycles);
    }
    EXPECT_EQ(mmu.stats().page_walks, 1u);
    EXPECT_EQ(mmu.anchorStats().anchor_hits, 7u);
}

TEST_F(AnchorMmuTest, Table2Row3AnchorHitContiguityMiss)
{
    // Chunk D has 3 pages: its anchor (distance 8) has contiguity 3.
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    // Make page +8195 exist: extend the map locally instead — use the
    // varied map's chunk C tail: last anchor at +4192 covers 4 pages
    // (chunk C is 100 pages: anchors at +4096..+4192, last contig 4).
    mmu.translate(va(4192)); // fills anchor with contiguity 4
    const TranslationResult hit = mmu.translate(va(4195));
    EXPECT_EQ(hit.level, HitLevel::Coalesced);
    // Page +4196 is unmapped; instead exercise the row-3 path with a
    // *different* chunk: +8192 anchor has contiguity 3; after caching
    // it, accessing +8194 hits but +8195.. are unmapped. Row 3 needs a
    // mapped page beyond the anchor's contiguity within the same
    // distance block, i.e. a PA-discontinuity inside a block.
    MemoryMap m;
    m.add(baseVpn, Ppn{0x1000}, PageCount{3});          // pages 0-2
    m.add(baseVpn + 3, Ppn{0x2000}, PageCount{5});      // pages 3-7, different PA run
    m.finalize();
    PageTable t2 = buildAnchorPageTable(m, AnchorDist::fromPages(8));
    AnchorMmu mmu2(cfg_, t2, AnchorDist::fromPages(8));
    mmu2.translate(va(0)); // walk; anchor contiguity 3 cached
    EXPECT_EQ(mmu2.translate(va(1)).level, HitLevel::Coalesced);
    // Page 4 is beyond the anchor's contiguity: anchor entry hits but
    // the contiguity check fails -> walk, regular fill (row 3).
    const TranslationResult r = mmu2.translate(va(4));
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    EXPECT_EQ(r.ppn, Ppn{0x2000 + 1});
    EXPECT_EQ(mmu2.anchorStats().anchor_partial_misses, 1u);
    // The regular entry (not another anchor) was filled (row 3).
    EXPECT_EQ(mmu2.anchorStats().regular_fills, 1u);
}

TEST_F(AnchorMmuTest, Table2Row4WalkFillsAnchorOnly)
{
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    mmu.translate(va(3)); // covered page: walk fills anchor, not regular
    EXPECT_EQ(mmu.anchorStats().anchor_fills, 1u);
    EXPECT_EQ(mmu.anchorStats().regular_fills, 0u);
    // The anchor covers the whole block including page 0.
    EXPECT_EQ(mmu.translate(va(0)).level, HitLevel::Coalesced);
}

TEST_F(AnchorMmuTest, Table2Row5WalkFillsRegularOnly)
{
    // A page whose anchor VPN is unmapped: block [+8192..+8200) anchor
    // at +8192 exists (chunk D), so use a chunk starting mid-block.
    MemoryMap m;
    m.add(baseVpn + 4, Ppn{0x3000}, PageCount{4}); // pages 4-7 only; anchor VPN +0 unmapped
    m.finalize();
    PageTable t = buildAnchorPageTable(m, AnchorDist::fromPages(8));
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    EXPECT_EQ(r.ppn, Ppn{0x3001});
    EXPECT_EQ(mmu.anchorStats().anchor_fills, 0u);
    EXPECT_EQ(mmu.anchorStats().regular_fills, 1u);
}

TEST_F(AnchorMmuTest, AnchorCoverageCappedByDistance)
{
    // Chunk C (100 pages, never huge-mapped) with distance 64: the
    // anchor at +4096 covers [+4096, +4160) only.
    PageTable t = anchorTable(64);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(64));
    mmu.translate(va(4096)); // walk; anchor at +4096, contiguity 64
    EXPECT_EQ(mmu.translate(va(4150)).level, HitLevel::Coalesced);
    // +4170 is in the next anchor block: that anchor is not cached yet.
    const TranslationResult r = mmu.translate(va(4170));
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    // ... and is covered once its own anchor is cached.
    EXPECT_EQ(mmu.translate(va(4180)).level, HitLevel::Coalesced);
}

TEST_F(AnchorMmuTest, LargeDistanceCoversHugeMappedRun)
{
    // Distance >= 512 anchors sit at PMD level over huge-mapped runs:
    // one anchor translates pages spanning several 2MB pages.
    MemoryMap m;
    m.add(baseVpn, Ppn{0x40000}, PageCount{4096}); // 16MB aligned chunk, huge-eligible
    m.finalize();
    PageTable t2 = buildAnchorPageTable(m, AnchorDist::fromPages(2048));
    AnchorMmu mmu2(cfg_, t2, AnchorDist::fromPages(2048));
    mmu2.translate(vaOf(baseVpn + 1));
    // Anything in [0, 2048) is covered by the cached anchor.
    const TranslationResult r = mmu2.translate(vaOf(baseVpn + 1500));
    EXPECT_EQ(r.level, HitLevel::Coalesced);
    EXPECT_EQ(r.ppn, Ppn{0x40000 + 1500});
    // [2048, 4096) needs the second anchor.
    EXPECT_EQ(mmu2.translate(vaOf(baseVpn + 3000)).level,
              HitLevel::PageWalk);
    EXPECT_EQ(mmu2.translate(vaOf(baseVpn + 3500)).level,
              HitLevel::Coalesced);
}

TEST_F(AnchorMmuTest, SetDistanceFlushesAndRekeys)
{
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    mmu.translate(va(0));
    mmu.translate(va(1));
    EXPECT_GT(mmu.l2Tlb().validCount(), 0u);
    t.sweepAnchors(map_, AnchorDist::fromPages(4));
    mmu.setDistance(AnchorDist::fromPages(4));
    EXPECT_EQ(mmu.distance().pages(), 4u);
    EXPECT_EQ(mmu.l2Tlb().validCount(), 0u);
    // Still translates correctly at the new distance.
    EXPECT_EQ(mmu.translate(va(1)).ppn, map_.translate(baseVpn + 1));
    EXPECT_EQ(mmu.translate(va(2)).level, HitLevel::Coalesced);
}

TEST_F(AnchorMmuTest, TranslationsAlwaysCorrectAcrossDistances)
{
    for (const std::uint64_t d : {2ULL, 8ULL, 64ULL, 512ULL, 4096ULL}) {
        PageTable t = anchorTable(d);
        AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(d));
        for (int pass = 0; pass < 2; ++pass) {
            for (const Chunk &c : map_.chunks()) {
                for (std::uint64_t i = 0; i < c.pages; i += 5) {
                    const Vpn vpn = c.vpn + i;
                    ASSERT_EQ(mmu.translate(vaOf(vpn)).ppn,
                              map_.translate(vpn))
                        << "distance " << d << " vpn offset "
                        << vpn - baseVpn;
                }
            }
        }
    }
}

TEST_F(AnchorMmuTest, AnchorEntriesSpreadAcrossSets)
{
    // Fig. 6: consecutive anchors must land in consecutive sets so the
    // whole TLB is usable for anchors. With the naive VPN indexing all
    // anchors of distance >= numSets would alias into one set.
    MemoryMap m;
    m.add(baseVpn, Ppn{0x40000}, PageCount{1 << 16}); // 256MB contiguous
    m.finalize();
    const std::uint64_t d = 512;
    PageTable t = buildAnchorPageTable(m, AnchorDist::fromPages(d));
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(d));
    // Touch one page in each of 64 distinct anchor blocks.
    for (std::uint64_t b = 0; b < 64; ++b)
        mmu.translate(vaOf(baseVpn + b * d + 3));
    // All 64 anchors must be resident simultaneously (64 sets used).
    std::uint64_t resident = 0;
    for (std::uint64_t b = 0; b < 64; ++b) {
        if (mmu.l2Tlb().probe(EntryKind::Anchor,
                              AnchorMmu::anchorKey(
                                  baseVpn + b * d, AnchorDist::fromPages(d))))
            ++resident;
    }
    EXPECT_EQ(resident, 64u);
}

TEST_F(AnchorMmuTest, StatsBreakdownConsistent)
{
    PageTable t = anchorTable(8);
    AnchorMmu mmu(cfg_, t, AnchorDist::fromPages(8));
    for (std::uint64_t i = 0; i < 8; ++i)
        mmu.translate(va(i));
    const MmuStats &s = mmu.stats();
    EXPECT_EQ(s.accesses, 8u);
    EXPECT_EQ(s.l1_hits + s.l2_regular_hits + s.coalesced_hits +
                  s.page_walks,
              s.accesses);
}

} // namespace
} // namespace atlb
