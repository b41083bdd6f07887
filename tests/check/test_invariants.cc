/**
 * @file
 * Corruption-injection tests for the structural invariant checkers:
 * deliberately break each guarded invariant and assert the checker
 * reports it (and that the verify*() wrappers die loudly). A checker
 * that cannot detect planted corruption proves nothing about runs
 * where it stays silent.
 */

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/mmu_config.hh"
#include "os/memory_map.hh"
#include "os/region_partitioner.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "tlb/set_assoc_tlb.hh"

namespace atlb
{
namespace
{

TlbEntry
makeEntry(EntryKind kind, std::uint64_t key, std::uint64_t ppn)
{
    TlbEntry e;
    e.kind = kind;
    e.key = TlbKey{key};
    e.ppn = Ppn{ppn};
    e.valid = true;
    return e;
}

// ---------------------------------------------------------------- TLB --

TEST(TlbInvariants, CleanTlbPasses)
{
    SetAssocTlb tlb(16, 4, "t");
    for (std::uint64_t k = 0; k < 12; ++k)
        tlb.insert(makeEntry(EntryKind::Page4K, k, 100 + k));
    EXPECT_TRUE(checkTlbInvariants(tlb).ok());
    verifyTlbInvariants(tlb); // must not die
}

TEST(TlbInvariants, DetectsDuplicateTagInSet)
{
    SetAssocTlb tlb(16, 4, "t");
    tlb.insert(makeEntry(EntryKind::Page4K, 4, 100));
    // Plant a second valid entry with the same (kind, key) in another
    // way of the same set — unreachable through insert(), which
    // overwrites in place.
    const unsigned set = static_cast<unsigned>(4 % tlb.numSets());
    tlb.entryAtForTest(set, 3) = makeEntry(EntryKind::Page4K, 4, 200);
    tlb.setLastUseForTest(set, 3, 1);

    const InvariantReport report = checkTlbInvariants(tlb);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("duplicate tag"),
              std::string::npos);
}

TEST(TlbInvariants, DetectsEntryInWrongSet)
{
    SetAssocTlb tlb(16, 4, "t");
    // Key 1 indexes set 1; plant it in set 0.
    tlb.entryAtForTest(0, 0) = makeEntry(EntryKind::Page4K, 1, 100);
    tlb.setLastUseForTest(0, 0, 1);

    const InvariantReport report = checkTlbInvariants(tlb);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("indexes set"),
              std::string::npos);
}

TEST(TlbInvariants, DetectsAmbiguousLruOrder)
{
    SetAssocTlb tlb(16, 4, "t");
    tlb.insert(makeEntry(EntryKind::Page4K, 0, 100));
    tlb.insert(makeEntry(EntryKind::Page4K, 4, 101)); // same set (0)
    const unsigned set = 0;
    tlb.setLastUseForTest(set, 1, tlb.lastUseAt(set, 0));

    const InvariantReport report = checkTlbInvariants(tlb);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("LRU"), std::string::npos);
}

TEST(TlbInvariants, DetectsTimestampBeyondClock)
{
    SetAssocTlb tlb(16, 4, "t");
    tlb.insert(makeEntry(EntryKind::Page4K, 0, 100));
    tlb.setLastUseForTest(0, 0, tlb.lruTick() + 1000);

    const InvariantReport report = checkTlbInvariants(tlb);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("exceeds clock"),
              std::string::npos);
}

TEST(TlbInvariantsDeathTest, VerifyDiesOnDuplicateTag)
{
    SetAssocTlb tlb(16, 4, "t");
    tlb.insert(makeEntry(EntryKind::Page4K, 4, 100));
    const unsigned set = static_cast<unsigned>(4 % tlb.numSets());
    tlb.entryAtForTest(set, 3) = makeEntry(EntryKind::Page4K, 4, 200);
    tlb.setLastUseForTest(set, 3, 1);
    EXPECT_DEATH(verifyTlbInvariants(tlb), "duplicate tag");
}

// ------------------------------------------------------------- anchor --

/** 24 mapped pages, then a hole; anchor distance 16. */
constexpr Vpn anchorBase{0x100000};
constexpr std::uint64_t anchorDistance = 16;
constexpr AnchorDist anchorDist = AnchorDist::fromPages(anchorDistance);

MemoryMap
shortRunMap()
{
    MemoryMap m;
    m.add(anchorBase, Ppn{0x5000},
          PageCount{24}); // second anchor's run is 8 pages
    m.finalize();
    return m;
}

TEST(AnchorInvariants, CleanAnchorStatePasses)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    for (std::uint64_t i = 0; i < 24; ++i)
        mmu.translate(vaOf(anchorBase + i));
    EXPECT_TRUE(checkAnchorInvariants(mmu).ok());
    verifyAnchorInvariants(mmu); // must not die
}

TEST(AnchorInvariants, DetectsContiguityCrossingUnmappedPage)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    // Corrupt the OS state: the second anchor (avpn +16) really covers
    // 8 pages; claim the full distance, crossing into the hole at +24.
    table.setAnchorContiguity(anchorBase + 16, anchorDistance,
                              anchorDist);

    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    // Accessing a *mapped* page caches the over-long anchor entry; the
    // translation itself is still correct, so only the invariant
    // checker can expose the latent corruption.
    mmu.translate(vaOf(anchorBase + 17));

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("crosses unmapped"),
              std::string::npos);
}

TEST(AnchorInvariants, DetectsStaleContiguityAfterMigration)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    mmu.translate(vaOf(anchorBase + 3)); // caches anchor at +0

    // The OS migrates a page inside the anchor's run but forgets the
    // shootdown: the cached contiguity is now stale.
    table.remap4K(anchorBase + 5, Ppn{0x9999});

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("disagrees"),
              std::string::npos);
}

TEST(AnchorInvariants, DetectsContiguityOutOfRange)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);

    // Plant an anchor entry whose cached contiguity is zero — a value
    // insert() can never produce — straight into the L2.
    SetAssocTlb &l2 = mmu.l2TlbForTest();
    TlbEntry e = makeEntry(EntryKind::Anchor,
                           AnchorMmu::anchorKey(anchorBase, anchorDist).raw(),
                           0x5000);
    e.aux = 0;
    const unsigned set = static_cast<unsigned>(e.key.raw() % l2.numSets());
    l2.entryAtForTest(set, 0) = e;
    l2.setLastUseForTest(set, 0, 1);

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("outside"),
              std::string::npos);

    // Claiming more than the distance is equally unrepresentable.
    e.aux = static_cast<std::uint32_t>(anchorDistance) + 1;
    l2.entryAtForTest(set, 0) = e;
    const InvariantReport over = checkAnchorInvariants(mmu);
    ASSERT_FALSE(over.ok());
    EXPECT_NE(over.violations.front().find("outside"),
              std::string::npos);
}

TEST(AnchorInvariants, DetectsAnchorKeyedAtForeignDistance)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);

    // Plant an anchor keyed at distance 32 in an MMU whose table was
    // swept at 16: its cached contiguity was measured at a distance the
    // region table never uses for that VPN.
    SetAssocTlb &l2 = mmu.l2TlbForTest();
    TlbEntry e = makeEntry(
        EntryKind::Anchor,
        AnchorMmu::anchorKey(anchorBase, AnchorDist::fromPages(32)).raw(),
        0x5000);
    e.aux = 16;
    const unsigned set = static_cast<unsigned>(e.key.raw() % l2.numSets());
    l2.entryAtForTest(set, 0) = e;
    l2.setLastUseForTest(set, 0, 1);

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("keyed at distance"),
              std::string::npos);
}

TEST(AnchorInvariants, RegionTableCleanStatePasses)
{
    // Fragments then big runs: the partition gives the two regimes
    // different distances, so anchors of both keyings are cached.
    ScenarioParams params;
    params.footprint_pages = 1;
    params.seed = 5;
    const MemoryMap map = buildSegmentedScenario(
        params, {{16384, 1, 16}, {131072, 4096, 16384}});
    const RegionPartition partition = partitionAnchorRegions(map);
    const PageTable table = buildRegionAnchorPageTable(map, partition);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, partition);

    Rng rng(5);
    const Vpn lo = map.chunks().front().vpn;
    const Vpn hi = map.chunks().back().vpnEnd();
    for (int done = 0; done < 20000;) {
        const Vpn vpn = lo + rng.nextBounded(hi - lo);
        if (!map.mapped(vpn))
            continue;
        mmu.translate(vaOf(vpn));
        ++done;
    }
    EXPECT_GT(mmu.anchorStats().anchor_fills, 0u);
    const InvariantReport report = checkAnchorInvariants(mmu);
    EXPECT_TRUE(report.ok()) << report.violations.front();
}

/** Host environment mapping exactly the GPAs of shortRunMap(). */
MemoryMap
shortRunHostMap()
{
    MemoryMap m;
    m.add(Vpn{0x5000} /* GPA as the host's "vpn" dimension */,
          Ppn{0x9000}, PageCount{24});
    m.finalize();
    return m;
}

TEST(AnchorInvariants, NestedCleanStatePasses)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    const MemoryMap host_map = shortRunHostMap();
    PageTable host_table = buildPageTable(host_map, false);

    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    mmu.setNested(&host_table, &host_map);
    for (std::uint64_t i = 0; i < 24; ++i)
        mmu.translate(vaOf(anchorBase + i));
    EXPECT_TRUE(checkAnchorInvariants(mmu).ok());
}

TEST(AnchorInvariants, DetectsGuestFrameUnmappedInHost)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    const MemoryMap host_map = shortRunHostMap();
    PageTable host_table = buildPageTable(host_map, false);

    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    mmu.setNested(&host_table, &host_map);
    mmu.translate(vaOf(anchorBase + 3)); // caches the anchor at +0

    // Ballooning without a shootdown: a page inside the cached anchor's
    // run now points at a GPA the host no longer maps.
    table.remap4K(anchorBase + 5, Ppn{0x7f000});

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("unmapped in host"),
              std::string::npos);
}

TEST(AnchorInvariants, DetectsStaleCombinedFrameAfterHostMigration)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    const MemoryMap host_map = shortRunHostMap();
    PageTable host_table = buildPageTable(host_map, false);

    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    mmu.setNested(&host_table, &host_map);
    mmu.translate(vaOf(anchorBase + 3));

    // The *host* migrates a frame inside the run: the anchor's combined
    // GVA -> HPA arithmetic is now stale in the host dimension.
    host_table.remap4K(Vpn{0x5000 + 5}, Ppn{0x4444});

    const InvariantReport report = checkAnchorInvariants(mmu);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("disagrees"),
              std::string::npos);
}

TEST(AnchorInvariantsDeathTest, VerifyDiesOnCorruptContiguity)
{
    const MemoryMap map = shortRunMap();
    PageTable table = buildAnchorPageTable(map, anchorDist);
    table.setAnchorContiguity(anchorBase + 16, anchorDistance,
                              anchorDist);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, anchorDist);
    mmu.translate(vaOf(anchorBase + 17));
    EXPECT_DEATH(verifyAnchorInvariants(mmu), "crosses unmapped");
}

// -------------------------------------------------------------- buddy --

TEST(BuddyInvariants, CleanAllocatorPasses)
{
    BuddyAllocator buddy(256, 6);
    const Ppn a = buddy.allocate(2);
    const Ppn b = buddy.allocate(0);
    ASSERT_NE(a, invalidPpn);
    ASSERT_NE(b, invalidPpn);
    buddy.free(a, 2);
    EXPECT_TRUE(checkBuddyInvariants(buddy).ok());
    verifyBuddyInvariants(buddy); // must not die
    buddy.free(b, 0);
    EXPECT_TRUE(checkBuddyInvariants(buddy).ok());
}

TEST(BuddyInvariants, DetectsDoubleFree)
{
    BuddyAllocator buddy(64, 6);
    const Ppn a = buddy.allocate(0);
    ASSERT_NE(a, invalidPpn);
    buddy.free(a, 0); // coalesces back into the big block
    buddy.free(a, 0); // double free: overlaps the merged block

    const InvariantReport report = checkBuddyInvariants(buddy);
    ASSERT_FALSE(report.ok());
    bool mentions_overlap_or_count = false;
    for (const std::string &v : report.violations) {
        if (v.find("overlap") != std::string::npos ||
            v.find("counter") != std::string::npos) {
            mentions_overlap_or_count = true;
        }
    }
    EXPECT_TRUE(mentions_overlap_or_count);
}

TEST(BuddyInvariants, DetectsMisalignedFreeBlock)
{
    BuddyAllocator buddy(64, 6);
    const Ppn all = buddy.allocate(6); // drain the pool: no real blocks
    ASSERT_NE(all, invalidPpn);
    buddy.plantFreeBlockForTest(Ppn{1}, 1); // order-1 block must be 2-aligned

    const InvariantReport report = checkBuddyInvariants(buddy);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("misaligned"),
              std::string::npos);
}

TEST(BuddyInvariants, DetectsBlockPastPoolEnd)
{
    BuddyAllocator buddy(64, 6);
    const Ppn all = buddy.allocate(6);
    ASSERT_NE(all, invalidPpn);
    buddy.plantFreeBlockForTest(Ppn{64}, 0); // aligned, but outside the pool

    const InvariantReport report = checkBuddyInvariants(buddy);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.violations.front().find("past pool end"),
              std::string::npos);
}

TEST(BuddyInvariants, DetectsUncoalescedBuddies)
{
    BuddyAllocator buddy(64, 6);
    const Ppn all = buddy.allocate(6);
    ASSERT_NE(all, invalidPpn);
    // Two free buddies at the same order are unreachable state under
    // eager coalescing — free() would have merged them to order 1.
    buddy.plantFreeBlockForTest(Ppn{4}, 0);
    buddy.plantFreeBlockForTest(Ppn{5}, 0);

    const InvariantReport report = checkBuddyInvariants(buddy);
    ASSERT_FALSE(report.ok());
    bool mentions_coalesce = false;
    for (const std::string &v : report.violations)
        if (v.find("failed to coalesce") != std::string::npos)
            mentions_coalesce = true;
    EXPECT_TRUE(mentions_coalesce);
}

TEST(BuddyInvariantsDeathTest, VerifyDiesOnDoubleFree)
{
    BuddyAllocator buddy(64, 6);
    const Ppn a = buddy.allocate(0);
    ASSERT_NE(a, invalidPpn);
    buddy.free(a, 0);
    buddy.free(a, 0);
    EXPECT_DEATH(verifyBuddyInvariants(buddy), "buddy invariant");
}

} // namespace
} // namespace atlb
