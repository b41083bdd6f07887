/**
 * @file
 * Tests for the radix page table and anchor-contiguity encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

constexpr Vpn base{0x7f0000000ULL}; // 2MB-aligned test VPN base

/** Shorthand for the test's anchor distances. */
AnchorDist
dist(std::uint64_t pages)
{
    return AnchorDist::fromPages(pages);
}

TEST(Pte, FieldRoundTrip)
{
    const std::uint64_t e = pte::make(Ppn{0x12345}, false);
    EXPECT_TRUE(pte::present(e));
    EXPECT_FALSE(pte::huge(e));
    EXPECT_EQ(pte::pfn(e), Ppn{0x12345});
}

TEST(Pte, HugeFieldRoundTrip)
{
    const std::uint64_t e = pte::make(Ppn{0x2000}, true);
    EXPECT_TRUE(pte::present(e));
    EXPECT_TRUE(pte::huge(e));
    EXPECT_EQ(pte::hugePfn(e), Ppn{0x2000});
}

TEST(Pte, ContigByteDoesNotDisturbPfn)
{
    std::uint64_t e = pte::make(Ppn{0xabcdef}, false);
    e = pte::withContigByte(e, 0x5a);
    EXPECT_EQ(pte::pfn(e), Ppn{0xabcdef});
    EXPECT_EQ(pte::contigByte(e), 0x5a);
    e = pte::withContigByte(e, 0);
    EXPECT_EQ(pte::contigByte(e), 0);
    EXPECT_EQ(pte::pfn(e), Ppn{0xabcdef});
}

TEST(Pte, HugeContigByteCoexistsWithHugePfn)
{
    std::uint64_t e = pte::make(Ppn{0x2000}, true); // 2MB-aligned frame
    e = pte::withHugeContigByte(e, 0xff);
    e = pte::withContigByte(e, 0xee);
    EXPECT_EQ(pte::hugePfn(e), Ppn{0x2000});
    EXPECT_EQ(pte::hugeContigByte(e), 0xff);
    EXPECT_EQ(pte::contigByte(e), 0xee);
    EXPECT_TRUE(pte::huge(e));
}

TEST(PageTable, WalkUnmappedMisses)
{
    PageTable t;
    EXPECT_FALSE(t.walk(base).present);
    EXPECT_FALSE(t.walk(Vpn{0}).present);
}

TEST(PageTable, Map4KWalk)
{
    PageTable t;
    t.map4K(base + 5, Ppn{777});
    const WalkResult w = t.walk(base + 5);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.ppn, Ppn{777});
    EXPECT_EQ(w.size, PageSize::Base4K);
    EXPECT_FALSE(t.walk(base + 4).present);
    EXPECT_FALSE(t.walk(base + 6).present);
    EXPECT_EQ(t.mapped4K(), 1u);
}

TEST(PageTable, Map2MWalkCoversBlock)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 9});
    for (const std::uint64_t off : {0ULL, 1ULL, 255ULL, 511ULL}) {
        const WalkResult w = t.walk(base + off);
        ASSERT_TRUE(w.present);
        EXPECT_EQ(w.ppn, Ppn{512 * 9} + off);
        EXPECT_EQ(w.size, PageSize::Huge2M);
    }
    EXPECT_FALSE(t.walk(base + 512).present);
    EXPECT_EQ(t.mapped2M(), 1u);
}

TEST(PageTable, PrefetchWalkIsSemanticsFree)
{
    // prefetchWalk only issues cache hints; it must be callable on any
    // VPN — 4K-mapped, 2M-mapped, unmapped, partially built subtrees —
    // and leave every later walk() result unchanged.
    PageTable t;
    t.map4K(base + 5, Ppn{777});
    t.map2M(base + 512, Ppn{512 * 9});
    for (const Vpn v : {base + 5, base + 512, base + 600, base + 4,
                        Vpn{0}, Vpn{1ULL << 40}}) {
        t.prefetchWalk(v);
        t.prefetchWalk(v); // idempotent
    }
    EXPECT_EQ(t.walk(base + 5).ppn, Ppn{777});
    EXPECT_EQ(t.walk(base + 513).ppn, Ppn{512 * 9 + 1});
    EXPECT_FALSE(t.walk(base + 4).present);
    EXPECT_FALSE(t.walk(Vpn{0}).present);
    EXPECT_EQ(t.mapped4K(), 1u);
    EXPECT_EQ(t.mapped2M(), 1u);
}

TEST(PageTable, MixedSizesCoexist)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 4});
    t.map4K(base + 512, Ppn{99});
    EXPECT_EQ(t.walk(base + 100).size, PageSize::Huge2M);
    EXPECT_EQ(t.walk(base + 512).size, PageSize::Base4K);
    EXPECT_EQ(t.walk(base + 512).ppn, Ppn{99});
}

TEST(PageTable, MoveSemantics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    PageTable u = std::move(t);
    EXPECT_TRUE(u.walk(base).present);
}

class AnchorEncoding
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>>
{
};

TEST_P(AnchorEncoding, RoundTripAt4KEntries)
{
    const auto [distance, contig] = GetParam();
    PageTable t;
    // Map a run long enough to hold the anchor and its neighbour.
    for (Vpn v = base; v < base + 4; ++v)
        t.map4K(v, Ppn{5000 + (v - base)});
    t.setAnchorContiguity(base, contig, dist(distance));
    EXPECT_EQ(t.anchorContiguity(base, dist(distance)), contig);
    // PFNs must be undisturbed by the encoding.
    EXPECT_EQ(t.walk(base).ppn, Ppn{5000});
    EXPECT_EQ(t.walk(base + 1).ppn, Ppn{5001});
}

INSTANTIATE_TEST_SUITE_P(
    DistancesAndContigs, AnchorEncoding,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{2, 1},
                      std::pair<std::uint64_t, std::uint64_t>{2, 2},
                      std::pair<std::uint64_t, std::uint64_t>{8, 8},
                      std::pair<std::uint64_t, std::uint64_t>{64, 33},
                      std::pair<std::uint64_t, std::uint64_t>{256, 256},
                      std::pair<std::uint64_t, std::uint64_t>{512, 257},
                      std::pair<std::uint64_t, std::uint64_t>{512, 512},
                      std::pair<std::uint64_t, std::uint64_t>{4096, 4096},
                      std::pair<std::uint64_t, std::uint64_t>{65536,
                                                              65536}));

TEST(PageTableAnchor, HighByteLivesInNeighbourEntry)
{
    PageTable t;
    for (Vpn v = base; v < base + 2; ++v)
        t.map4K(v, Ppn{100 + (v - base)});
    // Contiguity 300 with distance 512 needs the neighbour's byte.
    t.setAnchorContiguity(base, 300, dist(512));
    EXPECT_EQ(t.anchorContiguity(base, dist(512)), 300u);
    // The neighbour entry still translates normally.
    EXPECT_EQ(t.walk(base + 1).ppn, Ppn{101});
}

TEST(PageTableAnchor, ClearRemovesAnchor)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    t.map4K(base + 1, Ppn{2});
    t.setAnchorContiguity(base, 400, dist(512));
    t.setAnchorContiguity(base, 0, dist(512));
    // Cleared anchor reads back as the self-covering minimum.
    EXPECT_EQ(t.anchorContiguity(base, dist(512)), 1u);
}

TEST(PageTableAnchor, HugeAnchorStoresFullContiguity)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 20});
    t.setAnchorContiguity(base, 40000, dist(65536));
    EXPECT_EQ(t.anchorContiguity(base, dist(65536)), 40000u);
    // Frame must be intact after packing 16 bits into the entry.
    EXPECT_EQ(t.walk(base).ppn, Ppn{512 * 20});
    EXPECT_EQ(t.walk(base + 511).ppn, Ppn{512 * 20 + 511});
}

TEST(PageTableAnchor, InsideHugePageHasNoAnchorSlot)
{
    PageTable t;
    t.map2M(base, Ppn{512 * 20});
    // distance 8 anchor at base+8 falls inside the huge page.
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 0u);
}

TEST(PageTableAnchor, UnmappedAnchorReadsZero)
{
    PageTable t;
    EXPECT_EQ(t.anchorContiguity(base, dist(64)), 0u);
}

TEST(PageTableAnchor, SweepSetsAllAnchorsOfChunk)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{100}); // unaligned-by-8 length
    m.finalize();
    PageTable t = buildPageTable(m, false);
    // Anchors at base+0, +8, ..., +96: thirteen aligned positions.
    const std::uint64_t touched = t.sweepAnchors(m, dist(8));
    EXPECT_EQ(touched, 13u);
    // Interior anchors carry min(run, distance).
    EXPECT_EQ(t.anchorContiguity(base, dist(8)), 8u);
    EXPECT_EQ(t.anchorContiguity(base + 48, dist(8)), 8u);
    // Final anchor covers only the tail.
    EXPECT_EQ(t.anchorContiguity(base + 96, dist(8)), 4u);
}

TEST(PageTableAnchor, SweepCapsAtDistance)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{1000});
    m.finalize();
    PageTable t = buildPageTable(m, false);
    t.sweepAnchors(m, dist(64));
    EXPECT_EQ(t.anchorContiguity(base, dist(64)), 64u);
}

TEST(PageTableAnchor, ResweepClearsStaleAnchors)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{64});
    m.finalize();
    PageTable t = buildPageTable(m, false);
    t.sweepAnchors(m, dist(8));
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 8u);
    t.sweepAnchors(m, dist(32));
    EXPECT_EQ(t.anchorContiguity(base, dist(32)), 32u);
    // Old distance-8 anchor at +8 must be gone (reads as self-cover).
    EXPECT_EQ(t.anchorContiguity(base + 8, dist(8)), 1u);
}

TEST(PageTableAnchor, SweepCountGrowsWithSmallerDistance)
{
    MemoryMap m;
    m.add(base, Ppn{9000}, PageCount{1 << 15});
    m.finalize();
    PageTable t = buildPageTable(m, false);
    const std::uint64_t big = t.sweepAnchors(m, dist(512));
    PageTable t2 = buildPageTable(m, false);
    const std::uint64_t small = t2.sweepAnchors(m, dist(8));
    EXPECT_GT(small, big * 32);
}

/** How a table built with (@p use_thp, @p use_1g) must map @p vpn. */
void
expectWalkMatchesMap(const PageTable &table, const MemoryMap &map,
                     bool use_thp, bool use_1g, Vpn vpn)
{
    const WalkResult w = table.walk(vpn);
    ASSERT_EQ(w.present, map.mapped(vpn)) << "vpn " << vpn;
    if (!w.present)
        return;
    EXPECT_EQ(w.ppn, map.translate(vpn)) << "vpn " << vpn;
    PageSize size = PageSize::Base4K;
    unsigned levels = 4;
    if (use_1g && map.giantEligible(vpn)) {
        size = PageSize::Giant1G;
        levels = 2;
    } else if (use_thp && map.hugeEligible(vpn)) {
        size = PageSize::Huge2M;
        levels = 3;
    }
    EXPECT_EQ(w.size, size) << "vpn " << vpn;
    EXPECT_EQ(w.levels, levels) << "vpn " << vpn;
}

/**
 * Build @p map's plain, THP and THP+1GB tables and walk each chunk's
 * first, last and one-past-end page plus 64 seeded pages of each.
 */
void
expectTablesMatchMap(const MemoryMap &map, std::uint64_t seed)
{
    struct Layout
    {
        bool use_thp;
        bool use_1g;
    };
    const Layout layouts[] = {{false, false}, {true, false}, {true, true}};
    const Vpn lo = map.chunks().front().vpn;
    const Vpn hi = map.chunks().back().vpnEnd();
    for (const Layout &layout : layouts) {
        SCOPED_TRACE(::testing::Message() << "thp " << layout.use_thp
                                          << " 1g " << layout.use_1g);
        const PageTable table =
            buildPageTable(map, layout.use_thp, layout.use_1g);
        for (const Chunk &c : map.chunks()) {
            for (const Vpn vpn : {c.vpn, c.vpnEnd() - 1, c.vpnEnd()}) {
                expectWalkMatchesMap(table, map, layout.use_thp,
                                     layout.use_1g, vpn);
            }
        }
        Rng rng(seed);
        for (int i = 0; i < 64; ++i) {
            // Mostly inside the mapping, sometimes just past it.
            const Vpn vpn = lo + rng.nextBounded((hi - lo) + hugePages);
            expectWalkMatchesMap(table, map, layout.use_thp, layout.use_1g,
                                 vpn);
        }
        EXPECT_EQ(table.mapped4K() + table.mapped2M() * hugePages +
                      table.mapped1G() * giantPages,
                  map.mappedPages());
    }
}

/**
 * After a sweep at @p distance, every aligned anchor of @p map holds
 * what the map implies: min(run, distance, 2^16) at a 4KB entry and at
 * a 2MB leaf's start when the distance reaches a huge page; 0 at a 2MB
 * leaf's start for shorter distances and inside a huge page.
 */
void
expectAnchorsMatchMap(const PageTable &table, const MemoryMap &map,
                      AnchorDist distance)
{
    for (const Chunk &c : map.chunks()) {
        for (Vpn avpn = c.vpn.alignUp(distance.pages()); avpn < c.vpnEnd();
             avpn += distance.pages()) {
            const std::uint64_t contig =
                std::min({std::uint64_t{c.vpnEnd() - avpn}, distance.pages(),
                          PageTable::maxContiguity});
            std::uint64_t expected = contig;
            if (map.hugeEligible(avpn)) {
                const bool leaf_start = avpn.isAligned(hugePages);
                expected =
                    leaf_start && distance.pages() >= hugePages ? contig : 0;
            }
            ASSERT_EQ(table.anchorContiguity(avpn, distance), expected)
                << "distance " << distance << " anchor " << avpn;
        }
    }
}

TEST(PageTable, BuildAgreesWithTheMap)
{
    // Every catalog pair, as the engine builds it at a small footprint.
    SimOptions options;
    options.footprint_scale = 0.02;
    options.seed = 42;
    std::uint64_t seed = 1;
    for (const std::string &name : paperWorkloadNames()) {
        for (const ScenarioKind kind : allScenarios) {
            SCOPED_TRACE(name + "/" + scenarioName(kind));
            const CellPairState pair(options, name, kind);
            expectTablesMatchMap(pair.map(), seed++);

            // One THP table re-swept through every candidate, in the
            // order the AnchorIdeal sweep tries them.
            PageTable table = buildPageTable(pair.map(), true);
            for (const std::uint64_t d : pair.distancesByCost()) {
                const AnchorDist distance = AnchorDist::fromPages(d);
                table.sweepAnchors(pair.map(), distance);
                expectAnchorsMatchMap(table, pair.map(), distance);
            }
        }
    }

    // A 1GB-eligible run with 4KB and 2MB pieces on both sides of its
    // 1GB block, so every leaf size exists.
    MemoryMap giant;
    const Vpn giant_base = Vpn{giantPages * 0x1fc} - 700;
    giant.add(giant_base, Ppn{giantPages * 3} - 700,
              PageCount{giantPages + 1300});
    giant.finalize();
    ASSERT_TRUE(giant.giantEligible(Vpn{giantPages * 0x1fc}));
    expectTablesMatchMap(giant, seed);
    EXPECT_EQ(buildPageTable(giant, true, true).mapped1G(), 1u);
}

class PageTableErrors : public ::testing::Test
{
  protected:
    void SetUp() override { detail::setThrowOnError(true); }
    void TearDown() override { detail::setThrowOnError(false); }
};

TEST_F(PageTableErrors, DoubleMapPanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.map4K(base, Ppn{2}), std::logic_error);
}

TEST_F(PageTableErrors, MisalignedHugeMapPanics)
{
    PageTable t;
    EXPECT_THROW(t.map2M(base + 1, Ppn{512}), std::logic_error);
}

TEST_F(PageTableErrors, HugeOverExisting4KPanics)
{
    PageTable t;
    t.map4K(base + 3, Ppn{1});
    EXPECT_THROW(t.map2M(base, Ppn{512}), std::logic_error);
}

TEST_F(PageTableErrors, AnchorOnUnalignedVpnPanics)
{
    PageTable t;
    t.map4K(base + 1, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base + 1, 1, dist(8)),
                 std::logic_error);
}

TEST_F(PageTableErrors, ContiguityBeyondDistancePanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base, 9, dist(8)),
                 std::logic_error);
}

TEST_F(PageTableErrors, BadDistancePanics)
{
    PageTable t;
    t.map4K(base, Ppn{1});
    EXPECT_THROW(t.setAnchorContiguity(base, 1, dist(3)),
                 std::logic_error);
    EXPECT_THROW(t.setAnchorContiguity(base, 1, dist(1)),
                 std::logic_error);
}

} // namespace
} // namespace atlb
