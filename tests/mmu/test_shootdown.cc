/**
 * @file
 * Targeted-shootdown tests: after the OS migrates a page, a
 * page-granular invalidation must leave no stale translation behind in
 * any scheme — including stale *coalesced* entries that merely cover
 * the page (the subtle case the paper's Section 3.3 warns about for
 * anchor entries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <stdexcept>

#include "common/logging.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/colt_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "mmu_test_util.hh"
#include "os/region_partitioner.hh"
#include "os/table_builder.hh"

namespace atlb
{
namespace
{

using test::baseVpn;
using test::va;

/** A 16-page contiguous chunk (one run, simple to reason about). */
MemoryMap
runMap()
{
    MemoryMap m;
    m.add(baseVpn, Ppn{0x9000}, PageCount{16});
    m.finalize();
    return m;
}

constexpr Ppn migrated{0x4444};

TEST(Shootdown, BaselineL1AndL2)
{
    const MemoryMap m = runMap();
    PageTable t = buildPageTable(m, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, t);
    mmu.translate(va(5));
    EXPECT_EQ(mmu.translate(va(5)).level, HitLevel::L1);

    t.remap4K(baseVpn + 5, migrated);
    mmu.invalidatePage(baseVpn + 5);
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.ppn, migrated);
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    // Untouched neighbours keep their entries.
    mmu.translate(va(6));
}

TEST(Shootdown, AnchorEntryCoveringThePageDies)
{
    const MemoryMap m = runMap();
    PageTable t = buildAnchorPageTable(m, AnchorDist::fromPages(8));
    MmuConfig cfg;
    AnchorMmu mmu(cfg, t, AnchorDist::fromPages(8));
    // Cache the anchor for block [0,8) and hit through it.
    mmu.translate(va(0));
    EXPECT_EQ(mmu.translate(va(5)).level, HitLevel::Coalesced);

    // OS migrates page 5: run is broken at 5. Update the PTE and the
    // anchor's contiguity, then shoot the page down.
    t.remap4K(baseVpn + 5, migrated);
    t.setAnchorContiguity(baseVpn, 5, AnchorDist::fromPages(8));
    mmu.invalidatePage(baseVpn + 5);

    // Without the anchor invalidation, the stale cached anchor (contig
    // 8) would translate page 5 to the *old* frame. It must re-walk.
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.ppn, migrated);
    EXPECT_EQ(r.level, HitLevel::PageWalk);
    // And the refreshed anchor covers only the first 5 pages now.
    mmu.flushAll();
    mmu.translate(va(0));
    EXPECT_EQ(mmu.translate(va(3)).level, HitLevel::Coalesced);
    EXPECT_EQ(mmu.translate(va(6)).level, HitLevel::PageWalk);
}

TEST(Shootdown, ClusterEntryCoveringThePageDies)
{
    const MemoryMap m = runMap();
    PageTable t = buildPageTable(m, false);
    MmuConfig cfg;
    ClusterMmu mmu(cfg, t, false);
    mmu.translate(va(0));
    EXPECT_EQ(mmu.translate(va(5)).level, HitLevel::Coalesced);

    t.remap4K(baseVpn + 5, migrated);
    mmu.invalidatePage(baseVpn + 5);
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.ppn, migrated);
    EXPECT_EQ(r.level, HitLevel::PageWalk);
}

TEST(Shootdown, RmmRangeCoveringThePageDies)
{
    const MemoryMap m = runMap();
    PageTable t = buildPageTable(m, true);
    MmuConfig cfg;
    cfg.rmm_min_range_pages = 2;
    RmmMmu mmu(cfg, t, m);
    mmu.translate(va(0));
    EXPECT_EQ(mmu.translate(va(5)).level, HitLevel::Coalesced);

    t.remap4K(baseVpn + 5, migrated);
    mmu.invalidatePage(baseVpn + 5);
    const TranslationResult r = mmu.translate(va(5));
    EXPECT_EQ(r.ppn, migrated);
}

TEST(Shootdown, ColtFaRunCoveringThePageDies)
{
    const MemoryMap m = runMap();
    PageTable t = buildPageTable(m, false);
    MmuConfig cfg;
    ColtMmu mmu(cfg, t);
    mmu.translate(va(0));
    EXPECT_EQ(mmu.translate(va(9)).level, HitLevel::Coalesced);

    t.remap4K(baseVpn + 9, migrated);
    mmu.invalidatePage(baseVpn + 9);
    const TranslationResult r = mmu.translate(va(9));
    EXPECT_EQ(r.ppn, migrated);
}

TEST(Shootdown, UnrelatedPagesKeepTheirEntries)
{
    const MemoryMap m = runMap();
    PageTable t = buildAnchorPageTable(m, AnchorDist::fromPages(8));
    MmuConfig cfg;
    AnchorMmu mmu(cfg, t, AnchorDist::fromPages(8));
    mmu.translate(va(0));  // anchor for block [0,8)
    mmu.translate(va(8));  // anchor for block [8,16)
    const std::uint64_t walks = mmu.stats().page_walks;

    t.remap4K(baseVpn + 2, migrated);
    t.setAnchorContiguity(baseVpn, 2, AnchorDist::fromPages(8));
    mmu.invalidatePage(baseVpn + 2);

    // Block [8,16)'s anchor must have survived: no new walk.
    EXPECT_EQ(mmu.translate(va(12)).level, HitLevel::Coalesced);
    EXPECT_EQ(mmu.stats().page_walks, walks);
}

// ---------------------------------------------------------------------
// Shootdown storms: four ASID-tagged address spaces share one MMU under
// SwitchPolicy::Asid while their pages keep migrating. Every remap is
// followed by an ASID-qualified invalidatePage against the (descheduled)
// owner; no stale translation may survive it. Checked builds
// additionally oracle-verify every translation against the loaded page
// table inside translate(), so a stale hit anywhere in the storm is
// fatal even where the test only asserts the remapped page.
// ---------------------------------------------------------------------

/** Four 16-page address spaces at distinct frame bases. */
std::array<MemoryMap, 4>
stormMaps()
{
    std::array<MemoryMap, 4> maps;
    for (std::size_t i = 0; i < maps.size(); ++i) {
        maps[i].add(baseVpn, Ppn{0x9000 + 0x1000 * i}, PageCount{16});
        maps[i].finalize();
    }
    return maps;
}

/**
 * Per-space anchor-contiguity ledger: a block's contiguity only ever
 * shrinks, to the smallest migrated offset seen so far. Writing the
 * latest offset unconditionally would re-cover earlier breaks and make
 * the anchor sweep resurrect pre-migration frames.
 */
struct ContigLedger {
    std::array<std::map<std::uint64_t, std::uint64_t>, 4> broken;

    std::uint64_t breakAt(int space, Vpn anchor, std::uint64_t offset)
    {
        auto [it, inserted] =
            broken[static_cast<std::size_t>(space)].try_emplace(
                anchor.raw(), offset);
        if (!inserted)
            it->second = std::min(it->second, offset);
        return it->second;
    }
};

/**
 * Drive @p mmu through 12 remap epochs over four ASID-tagged spaces.
 * @p ctx yields space i's ProcessContext (ASID i + 1); @p remapPage
 * applies one migration to space @p target's page table.
 */
void
runStorm(Mmu &mmu, const std::function<ProcessContext(int)> &ctx,
         const std::function<void(int target, unsigned page, Ppn frame)>
             &remapPage)
{
    mmu.setSwitchPolicy(SwitchPolicy::Asid);
    for (int i = 0; i < 4; ++i) {
        mmu.switchProcess(ctx(i));
        for (unsigned p = 0; p < 16; ++p)
            mmu.translate(va(p));
    }
    int current = 3;
    std::uint64_t fresh = 0x100000;
    for (int epoch = 0; epoch < 12; ++epoch) {
        int target = epoch % 4;
        if (target == current) {
            current = (target + 1) % 4;
            mmu.switchProcess(ctx(current));
        }
        const unsigned page = static_cast<unsigned>(epoch) % 16;
        const Ppn frame{fresh++};
        remapPage(target, page, frame);
        // Cross-ASID shootdown while the owner is descheduled.
        mmu.invalidatePage(
            baseVpn + page,
            Asid{static_cast<std::uint64_t>(target) + 1});
        mmu.switchProcess(ctx(target));
        current = target;
        ASSERT_EQ(mmu.translate(va(page)).ppn, frame)
            << "stale translation survived epoch " << epoch;
        for (unsigned q = 0; q < 16; ++q)
            mmu.translate(va(q));
    }
}

TEST(ShootdownStorm, BaselineNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildPageTable(maps[i], false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, tables[0]);
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            tables[t].remap4K(baseVpn + p, f);
        });
}

TEST(ShootdownStorm, ClusterNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildPageTable(maps[i], false);
    MmuConfig cfg;
    ClusterMmu mmu(cfg, tables[0], false);
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            tables[t].remap4K(baseVpn + p, f);
        });
}

TEST(ShootdownStorm, ColtNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildPageTable(maps[i], false);
    MmuConfig cfg;
    // The FA array would refill broken runs from neighbouring PTE
    // scans, which do see the migrations — safe to leave on.
    ColtMmu mmu(cfg, tables[0]);
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            tables[t].remap4K(baseVpn + p, f);
        });
}

TEST(ShootdownStorm, RmmNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildPageTable(maps[i], true);
    MmuConfig cfg;
    // The harness's range table (the MemoryMap) is immutable, so a
    // range refill after a migration would resurrect pre-migration
    // frames — real RMM requires the OS to update the range table on
    // migration. Model that by keeping runs below the refill floor;
    // range-TLB ASID exactness is pinned by the targeted tests above
    // and the RangeTlb unit tests.
    cfg.rmm_min_range_pages = 32;
    RmmMmu mmu(cfg, tables[0], maps[0]);
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.map = &maps[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            tables[t].remap4K(baseVpn + p, f);
        });
}

TEST(ShootdownStorm, AnchorFallbackNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    // Distinct distances per space: the storm also exercises retained
    // anchor entries of different per-process distance registers
    // coexisting in the shared L2.
    const std::array<AnchorDist, 4> dists = {
        AnchorDist::fromPages(4), AnchorDist::fromPages(8),
        AnchorDist::fromPages(16), AnchorDist::fromPages(8)};
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildAnchorPageTable(maps[i], dists[i]);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, tables[0], dists[0]);
    ContigLedger ledger;
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.anchor_distance = dists[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            // Keep the anchor sweep honest: the migrated page breaks
            // its block's contiguity at the page's offset (and the
            // block never heals — see ContigLedger).
            tables[t].remap4K(baseVpn + p, f);
            const Vpn vpn = baseVpn + p;
            const Vpn anchor = dists[t].anchorOf(vpn);
            tables[t].setAnchorContiguity(
                anchor,
                ledger.breakAt(t, anchor, dists[t].offsetOf(vpn)),
                dists[t]);
        });
}

TEST(ShootdownStorm, RegionAnchorFallbackNoStaleAcrossFourAsids)
{
    auto maps = stormMaps();
    std::array<RegionPartition, 4> parts;
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i) {
        parts[i] = partitionAnchorRegions(maps[i]);
        tables[i] = buildRegionAnchorPageTable(maps[i], parts[i]);
    }
    MmuConfig cfg;
    AnchorMmu mmu(cfg, tables[0], parts[0]);
    const auto distFor = [&](int t, Vpn vpn) {
        for (const AnchorRegion &r : parts[t].regions)
            if (r.contains(vpn))
                return r.distance;
        return parts[t].default_distance;
    };
    ContigLedger ledger;
    runStorm(
        mmu,
        [&](int i) {
            ProcessContext c;
            c.table = &tables[i];
            c.partition = &parts[i];
            c.asid = Asid{static_cast<std::uint64_t>(i) + 1};
            return c;
        },
        [&](int t, unsigned p, Ppn f) {
            tables[t].remap4K(baseVpn + p, f);
            const Vpn vpn = baseVpn + p;
            const AnchorDist d = distFor(t, vpn);
            const Vpn anchor = d.anchorOf(vpn);
            tables[t].setAnchorContiguity(
                anchor, ledger.breakAt(t, anchor, d.offsetOf(vpn)), d);
        });
}

TEST(ShootdownStorm, CrossAsidInvalidationIsTargeted)
{
    // Exact (register-free) schemes must not disturb other address
    // spaces or other pages: after one cross-ASID page shootdown, the
    // bystander space replays hit-for-hit and the owner re-walks only
    // the shot-down page.
    auto maps = stormMaps();
    std::array<PageTable, 4> tables;
    for (int i = 0; i < 4; ++i)
        tables[i] = buildPageTable(maps[i], false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, tables[0]);
    mmu.setSwitchPolicy(SwitchPolicy::Asid);

    ProcessContext a;
    a.table = &tables[0];
    a.asid = Asid{1};
    ProcessContext b;
    b.table = &tables[1];
    b.asid = Asid{2};

    mmu.switchProcess(a);
    for (unsigned p = 0; p < 16; ++p)
        mmu.translate(va(p));
    mmu.switchProcess(b);
    for (unsigned p = 0; p < 16; ++p)
        mmu.translate(va(p));

    // From b, migrate a's page 5 and shoot it down in a only.
    tables[0].remap4K(baseVpn + 5, migrated);
    mmu.invalidatePage(baseVpn + 5, Asid{1});

    std::uint64_t walks = mmu.stats().page_walks;
    for (unsigned p = 0; p < 16; ++p)
        mmu.translate(va(p));
    EXPECT_EQ(mmu.stats().page_walks, walks) << "bystander lost entries";

    mmu.switchProcess(a);
    walks = mmu.stats().page_walks;
    for (unsigned p = 0; p < 16; ++p)
        mmu.translate(va(p));
    EXPECT_EQ(mmu.stats().page_walks, walks + 1)
        << "exact shootdown must re-walk exactly the shot-down page";
    EXPECT_EQ(mmu.translate(va(5)).ppn, migrated);
}

TEST(Shootdown, UnmapThenAccessIsFatal)
{
    const MemoryMap m = runMap();
    PageTable t = buildPageTable(m, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, t);
    t.unmap4K(baseVpn + 7);
    mmu.invalidatePage(baseVpn + 7);
    detail::setThrowOnError(true);
    EXPECT_THROW(mmu.translate(va(7)), std::runtime_error);
    detail::setThrowOnError(false);
}

} // namespace
} // namespace atlb
