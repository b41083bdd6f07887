/**
 * @file
 * Tests for context switching and the multi-process simulator.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "sim/multiprocess.hh"

namespace atlb
{
namespace
{

constexpr Vpn base{0x7f0000000ULL};

MemoryMap
mapWithSeed(std::uint64_t seed, std::uint64_t pages = 4000)
{
    ScenarioParams p;
    p.footprint_pages = pages;
    p.seed = seed;
    return buildScenario(ScenarioKind::MedContig, p);
}

TEST(SwitchProcess, BaselineLoadsNewTableAndFlushes)
{
    const MemoryMap map_a = mapWithSeed(1);
    const MemoryMap map_b = mapWithSeed(2);
    const PageTable table_a = buildPageTable(map_a, false);
    const PageTable table_b = buildPageTable(map_b, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table_a);

    EXPECT_EQ(mmu.translate(vaOf(base + 7)).ppn, map_a.translate(base + 7));
    ProcessContext ctx;
    ctx.table = &table_b;
    mmu.switchProcess(ctx);
    // Same VPN now translates through the other process's table, and
    // the first access after the switch is a cold walk.
    const TranslationResult r = mmu.translate(vaOf(base + 7));
    EXPECT_EQ(r.ppn, map_b.translate(base + 7));
    EXPECT_EQ(r.level, HitLevel::PageWalk);
}

TEST(SwitchProcess, StaleEntriesNeverSurviveSwitch)
{
    const MemoryMap map_a = mapWithSeed(3);
    const MemoryMap map_b = mapWithSeed(4);
    const PageTable table_a = buildPageTable(map_a, false);
    const PageTable table_b = buildPageTable(map_b, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table_a);

    for (Vpn v = base; v < base + 200; ++v)
        mmu.translate(vaOf(v));
    ProcessContext ctx;
    ctx.table = &table_b;
    mmu.switchProcess(ctx);
    for (Vpn v = base; v < base + 200; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_b.translate(v));
}

TEST(SwitchProcess, AnchorSwitchesDistanceRegister)
{
    const MemoryMap map_a = mapWithSeed(5);
    const MemoryMap map_b = mapWithSeed(6);
    const std::uint64_t d_a = 8;
    const std::uint64_t d_b = 64;
    PageTable table_a = buildAnchorPageTable(map_a, AnchorDist::fromPages(d_a));
    PageTable table_b = buildAnchorPageTable(map_b, AnchorDist::fromPages(d_b));
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table_a, AnchorDist::fromPages(d_a));

    mmu.translate(vaOf(base + 9));
    ProcessContext ctx;
    ctx.table = &table_b;
    ctx.anchor_distance = AnchorDist::fromPages(d_b);
    mmu.switchProcess(ctx);
    EXPECT_EQ(mmu.distance().pages(), d_b);
    for (Vpn v = base; v < base + 300; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_b.translate(v));
}

TEST(SwitchProcess, RmmSwitchesRangeTable)
{
    const MemoryMap map_a = mapWithSeed(7);
    const MemoryMap map_b = mapWithSeed(8);
    const PageTable table_a = buildPageTable(map_a, true);
    const PageTable table_b = buildPageTable(map_b, true);
    MmuConfig cfg;
    cfg.rmm_min_range_pages = 2;
    RmmMmu mmu(cfg, table_a, map_a);

    mmu.translate(vaOf(base + 11));
    ProcessContext ctx;
    ctx.table = &table_b;
    ctx.map = &map_b;
    mmu.switchProcess(ctx);
    EXPECT_EQ(mmu.rangeTlb().size(), 0u);
    for (Vpn v = base; v < base + 300; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_b.translate(v));
}

// ---------------------------------------------------------------------
// ASID retention (SwitchPolicy::Asid): entries survive the switch,
// tagged so they can never serve another address space.
// ---------------------------------------------------------------------

TEST(AsidRetention, KeepsEntriesAcrossSwitch)
{
    const MemoryMap map_a = mapWithSeed(11);
    const MemoryMap map_b = mapWithSeed(12);
    const PageTable table_a = buildPageTable(map_a, false);
    const PageTable table_b = buildPageTable(map_b, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table_a);
    mmu.setSwitchPolicy(SwitchPolicy::Asid);

    ProcessContext a;
    a.table = &table_a;
    a.asid = Asid{1};
    ProcessContext b;
    b.table = &table_b;
    b.asid = Asid{2};

    mmu.switchProcess(a);
    for (Vpn v = base; v < base + 200; ++v)
        mmu.translate(vaOf(v));
    mmu.switchProcess(b);
    for (Vpn v = base; v < base + 16; ++v)
        mmu.translate(vaOf(v));

    // Back in A: the working set is still warm — zero new walks.
    mmu.switchProcess(a);
    const std::uint64_t walks = mmu.stats().page_walks;
    for (Vpn v = base; v < base + 200; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_a.translate(v));
    EXPECT_EQ(mmu.stats().page_walks, walks);
}

TEST(AsidRetention, EntriesNeverCrossAddressSpaces)
{
    const MemoryMap map_a = mapWithSeed(13);
    const MemoryMap map_b = mapWithSeed(14);
    const PageTable table_a = buildPageTable(map_a, false);
    const PageTable table_b = buildPageTable(map_b, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table_a);
    mmu.setSwitchPolicy(SwitchPolicy::Asid);

    ProcessContext a;
    a.table = &table_a;
    a.asid = Asid{1};
    ProcessContext b;
    b.table = &table_b;
    b.asid = Asid{2};

    mmu.switchProcess(a);
    for (Vpn v = base; v < base + 200; ++v)
        mmu.translate(vaOf(v));
    // Same VPNs in B: A's retained entries must never answer, even
    // though they are still resident in the shared L1/L2 arrays.
    mmu.switchProcess(b);
    for (Vpn v = base; v < base + 200; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_b.translate(v));
}

TEST(AsidRetention, AnchorDistancesCoexist)
{
    const MemoryMap map_a = mapWithSeed(15);
    const MemoryMap map_b = mapWithSeed(16);
    const AnchorDist d_a = AnchorDist::fromPages(8);
    const AnchorDist d_b = AnchorDist::fromPages(64);
    const PageTable table_a = buildAnchorPageTable(map_a, d_a);
    const PageTable table_b = buildAnchorPageTable(map_b, d_b);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table_a, d_a);
    mmu.setSwitchPolicy(SwitchPolicy::Asid);

    ProcessContext a;
    a.table = &table_a;
    a.anchor_distance = d_a;
    a.asid = Asid{1};
    ProcessContext b;
    b.table = &table_b;
    b.anchor_distance = d_b;
    b.asid = Asid{2};

    mmu.switchProcess(a);
    for (Vpn v = base; v < base + 300; ++v)
        mmu.translate(vaOf(v));
    // B's distance-64 anchors enter the same L2 that still holds A's
    // distance-8 anchors; the ASID tag keeps the two key spaces apart.
    mmu.switchProcess(b);
    EXPECT_EQ(mmu.distance().pages(), 64u);
    for (Vpn v = base; v < base + 300; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_b.translate(v));

    mmu.switchProcess(a);
    EXPECT_EQ(mmu.distance().pages(), 8u);
    const std::uint64_t walks = mmu.stats().page_walks;
    for (Vpn v = base; v < base + 300; ++v)
        ASSERT_EQ(mmu.translate(vaOf(v)).ppn, map_a.translate(v));
    EXPECT_EQ(mmu.stats().page_walks, walks);
}

MultiProcessOptions
quickOptions()
{
    MultiProcessOptions opts;
    opts.total_accesses = 100'000;
    opts.quantum_accesses = 10'000;
    opts.footprint_scale = 0.02;
    return opts;
}

TEST(MultiProcess, CatalogWorkloadsOnly)
{
    // Each process generates its own stream, so a trace-driven name is
    // an unknown workload here.
    detail::setThrowOnError(true);
    try {
        runMultiProcess(Scheme::Base,
                        {{"trace:/nonexistent", ScenarioKind::MedContig}},
                        quickOptions());
        ADD_FAILURE() << "a trace workload ran";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fatal: unknown workload 'trace:/nonexistent'");
    }
    detail::setThrowOnError(false);
}

TEST(MultiProcess, CountsSwitchesAndAccesses)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::MedContig},
    };
    const MultiProcessResult r =
        runMultiProcess(Scheme::Base, procs, quickOptions());
    EXPECT_EQ(r.stats.accesses, 100'000u);
    EXPECT_EQ(r.context_switches, 9u); // 10 quanta, 9 boundaries
    ASSERT_EQ(r.processes.size(), 2u);
    EXPECT_EQ(r.processes[0].accesses + r.processes[1].accesses,
              100'000u);
}

TEST(MultiProcess, SingleProcessNeverSwitches)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig}};
    const MultiProcessResult r =
        runMultiProcess(Scheme::Base, procs, quickOptions());
    EXPECT_EQ(r.context_switches, 0u);
}

TEST(MultiProcess, AnchorRecordsPerProcessDistances)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::LowContig},
        {"milc", ScenarioKind::MaxContig},
    };
    const MultiProcessResult r =
        runMultiProcess(Scheme::Anchor, procs, quickOptions());
    EXPECT_EQ(r.processes[0].anchor_distance, 4u);
    EXPECT_GT(r.processes[1].anchor_distance, 256u);
}

TEST(MultiProcess, SmallerQuantumMeansMoreMisses)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::MedContig},
    };
    MultiProcessOptions coarse = quickOptions();
    coarse.quantum_accesses = 50'000;
    MultiProcessOptions fine = quickOptions();
    fine.quantum_accesses = 2'000;
    const auto r_coarse =
        runMultiProcess(Scheme::Base, procs, coarse);
    const auto r_fine = runMultiProcess(Scheme::Base, procs, fine);
    EXPECT_GT(r_fine.stats.page_walks, r_coarse.stats.page_walks);
}

TEST(MultiProcess, SchemesRunForAllSchemes)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"sphinx3", ScenarioKind::Demand},
    };
    MultiProcessOptions opts = quickOptions();
    opts.total_accesses = 30'000;
    for (const Scheme s :
         {Scheme::Base, Scheme::Thp, Scheme::Cluster, Scheme::Cluster2MB,
          Scheme::Rmm, Scheme::Anchor}) {
        const MultiProcessResult r = runMultiProcess(s, procs, opts);
        EXPECT_EQ(r.stats.accesses, 30'000u) << schemeName(s);
    }
}

TEST(MultiProcess, AsidPolicyNeverWalksMoreThanFlush)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::Demand},
    };
    MultiProcessOptions flush = quickOptions();
    flush.quantum_accesses = 2'000;
    MultiProcessOptions asid = flush;
    asid.policy = SwitchPolicy::Asid;
    const auto r_flush = runMultiProcess(Scheme::Base, procs, flush);
    const auto r_asid = runMultiProcess(Scheme::Base, procs, asid);
    EXPECT_LE(r_asid.stats.page_walks, r_flush.stats.page_walks);
    EXPECT_GE(r_asid.hitRate(), r_flush.hitRate());
}

TEST(MultiProcess, RemapChurnChargesShootdownsOnlyUnderAsid)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::MedContig},
    };
    MultiProcessOptions opts = quickOptions();
    opts.remap_every_quanta = 2;
    opts.shared_cores = 3;
    const auto r_flush = runMultiProcess(Scheme::Base, procs, opts);
    EXPECT_GT(r_flush.remap_epochs, 0u);
    EXPECT_EQ(r_flush.stats.shootdowns, 0u);
    EXPECT_EQ(r_flush.stats.shootdown_cycles, 0u);

    opts.policy = SwitchPolicy::Asid;
    const auto r_asid = runMultiProcess(Scheme::Base, procs, opts);
    EXPECT_EQ(r_asid.remap_epochs, r_flush.remap_epochs);
    EXPECT_EQ(r_asid.stats.shootdowns, r_asid.remap_epochs);
    EXPECT_GT(r_asid.stats.shootdown_cycles, 0u);
    // The charged CPI folds the shootdown cycles in on top of the
    // translation cycles.
    EXPECT_GT(r_asid.chargedCpi(),
              static_cast<double>(r_asid.stats.translation_cycles) /
                  (static_cast<double>(r_asid.stats.accesses) / 0.33));
}

TEST(MultiProcess, WeightedQuantaSkewAccesses)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::MedContig},
    };
    MultiProcessOptions opts = quickOptions();
    opts.weights = {1, 3};
    const MultiProcessResult r =
        runMultiProcess(Scheme::Base, procs, opts);
    ASSERT_EQ(r.processes.size(), 2u);
    EXPECT_EQ(r.stats.accesses, 100'000u);
    EXPECT_GT(r.processes[1].accesses, 2 * r.processes[0].accesses);
}

TEST(MultiProcess, AssignsDistinctAsids)
{
    const std::vector<ProcessSpec> procs = {
        {"canneal", ScenarioKind::MedContig},
        {"milc", ScenarioKind::MedContig},
    };
    MultiProcessOptions opts = quickOptions();
    opts.total_accesses = 20'000;
    opts.policy = SwitchPolicy::Asid;
    const MultiProcessResult r =
        runMultiProcess(Scheme::Base, procs, opts);
    ASSERT_EQ(r.processes.size(), 2u);
    EXPECT_EQ(r.processes[0].asid, 1u);
    EXPECT_EQ(r.processes[1].asid, 2u);
}

} // namespace
} // namespace atlb
