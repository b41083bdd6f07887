/**
 * @file
 * Tests for the anchor MMU with a region table (Section 4.2 extension).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu_test_util.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"

namespace atlb
{
namespace
{

using test::baseVpn;

/** Mixed mapping: 16K pages of fragments then 128K pages of big runs. */
MemoryMap
mixedMap(std::uint64_t seed = 5)
{
    ScenarioParams params;
    params.footprint_pages = 1;
    params.seed = seed;
    return buildSegmentedScenario(
        params, {{16384, 1, 16}, {131072, 4096, 16384}});
}

class RegionAnchorMmuTest : public ::testing::Test
{
  protected:
    RegionAnchorMmuTest()
        : map_(mixedMap()), partition_(partitionAnchorRegions(map_)),
          table_(buildRegionAnchorPageTable(map_, partition_))
    {
    }

    MemoryMap map_;
    RegionPartition partition_;
    PageTable table_;
    MmuConfig cfg_;
};

TEST_F(RegionAnchorMmuTest, PartitionHasTwoScales)
{
    ASSERT_GE(partition_.regions.size(), 2u);
    EXPECT_LT(partition_.regions.front().distance,
              partition_.regions.back().distance);
}

TEST_F(RegionAnchorMmuTest, TranslationsAlwaysCorrect)
{
    AnchorMmu mmu(cfg_, table_, partition_);
    Rng rng(17);
    const Vpn lo = map_.chunks().front().vpn;
    const Vpn hi = map_.chunks().back().vpnEnd();
    for (int i = 0; i < 50000; ++i) {
        const Vpn vpn = lo + rng.nextBounded(hi - lo);
        if (!map_.mapped(vpn))
            continue;
        ASSERT_EQ(mmu.translate(vaOf(vpn)).ppn, map_.translate(vpn))
            << "vpn offset " << vpn - lo;
    }
}

TEST_F(RegionAnchorMmuTest, AnchorsServeBothRegions)
{
    AnchorMmu mmu(cfg_, table_, partition_);
    // Sweep a stretch of each regime: interior pages must be served by
    // anchors filled at each region's own distance.
    const auto sweep = [&](const AnchorRegion &region) {
        const std::uint64_t span =
            std::min<std::uint64_t>(region.pages(), 2000);
        for (Vpn v = region.begin; v < region.begin + span; ++v) {
            if (map_.mapped(v)) {
                ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_.translate(v));
            }
        }
    };
    sweep(partition_.regions.front());
    const std::uint64_t front_hits = mmu.anchorStats().anchor_hits;
    EXPECT_GT(mmu.anchorStats().anchor_fills, 0u);
    EXPECT_GT(front_hits, 0u);
    sweep(partition_.regions.back());
    EXPECT_GT(mmu.anchorStats().anchor_hits, front_hits)
        << "big-run region saw no anchor hits";
}

TEST_F(RegionAnchorMmuTest, BeatsSingleDistanceOnMixedMapping)
{
    // Single-distance dynamic anchor (the paper's base scheme).
    PageTable single_table =
        buildAnchorPageTable(map_, partition_.default_distance);
    AnchorMmu single(cfg_, single_table, partition_.default_distance);
    AnchorMmu multi(cfg_, table_, partition_);

    // Access both regimes evenly: uniform pages over each regime.
    Rng rng(23);
    const AnchorRegion &frag = partition_.regions.front();
    const AnchorRegion &runs = partition_.regions.back();
    for (int i = 0; i < 60000; ++i) {
        Vpn vpn;
        if (i & 1)
            vpn = frag.begin + rng.nextBounded(frag.pages());
        else
            vpn = runs.begin + rng.nextBounded(runs.pages());
        if (!map_.mapped(vpn))
            continue;
        single.translate(vaOf(vpn));
        multi.translate(vaOf(vpn));
    }
    EXPECT_LT(multi.stats().page_walks, single.stats().page_walks);
}

TEST_F(RegionAnchorMmuTest, CrossRegionAnchorsNeverUsed)
{
    // A VPN near a region boundary whose anchor VPN (at this region's
    // distance) falls before the region start must not be served by an
    // anchor — the slot belongs to the previous region, whose sweep at
    // its own distance wrote the contiguity found there.
    MemoryMap map;
    // PA not 2MB-congruent: every page is 4KB-mapped.
    map.add(baseVpn, Ppn{0x100001}, PageCount{8192});
    map.finalize();
    RegionPartition partition;
    partition.regions = {
        {baseVpn, baseVpn + 100, AnchorDist::fromPages(256)},
        {baseVpn + 100, baseVpn + 8192, AnchorDist::fromPages(1024)},
    };
    const PageTable table = buildRegionAnchorPageTable(map, partition);
    AnchorMmu mmu(cfg_, table, partition);

    // +150 lies in the second region; its anchor VPN at distance 1024
    // is baseVpn, inside the first region.
    const TranslationResult r = mmu.translate(vaOf(baseVpn + 150));
    EXPECT_EQ(r.ppn, map.translate(baseVpn + 150));
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    EXPECT_EQ(mmu.anchorStats().anchor_fills, 0u);
    EXPECT_EQ(mmu.l2Tlb().probe(EntryKind::Anchor,
                                AnchorMmu::anchorKey(
                                    baseVpn, AnchorDist::fromPages(1024))),
              nullptr);
}

TEST_F(RegionAnchorMmuTest, FlushClearsState)
{
    AnchorMmu mmu(cfg_, table_, partition_);
    mmu.translate(vaOf(partition_.regions.front().begin));
    EXPECT_GT(mmu.l2Tlb().validCount(), 0u);
    mmu.flushAll();
    EXPECT_EQ(mmu.l2Tlb().validCount(), 0u);
}

TEST_F(RegionAnchorMmuTest, RejectsOversizedRegionTable)
{
    detail::setThrowOnError(true);
    RegionPartition big = partition_;
    while (big.regions.size() <= AnchorMmu::maxRegions) {
        AnchorRegion r = big.regions.back();
        r.begin = r.end;
        r.end = r.begin + 1;
        big.regions.push_back(r);
    }
    EXPECT_THROW(AnchorMmu(cfg_, table_, big), std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
} // namespace atlb
