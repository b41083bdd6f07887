/**
 * @file
 * Randomized differential stress: a deterministic stream of
 * map/unmap/access/churn steps drives all five translation schemes
 * (baseline, COLT, cluster, RMM, anchor) in lockstep under the
 * TranslationOracle, with the structural invariant checkers run at
 * every churn boundary.
 *
 * The OS model is the real one: frames come from a BuddyAllocator,
 * mappings churn over epochs (allocate runs, free runs, remap the
 * survivors), and each epoch rebuilds the page tables and context-
 * switches every MMU — exactly the life cycle that the ROADMAP's
 * scaling PRs will be refactoring. Any divergence between a fast path
 * and the authoritative page table, any duplicate TLB tag, stale
 * anchor contiguity or buddy free-list corruption fails the run at
 * the step that introduced it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariants.hh"
#include "check/translation_oracle.hh"
#include "common/rng.hh"
#include "mem/buddy_allocator.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/colt_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"

namespace atlb
{
namespace
{

/** One live allocation: a VA run backed by one buddy block. */
struct Segment
{
    Vpn vpn;
    Ppn ppn;
    unsigned order;

    std::uint64_t pages() const { return 1ULL << order; }
};

class DifferentialStress : public ::testing::Test
{
  protected:
    static constexpr Vpn vaBase{0x7f0000000ULL};
    static constexpr std::uint64_t poolPages = 1ULL << 15; // 128MB

    Rng rng_{20260807};
    BuddyAllocator buddy_{poolPages, 12};
    std::vector<Segment> segments_;
    Vpn va_cursor_ = vaBase;
    std::uint64_t steps_ = 0;

    /** Map one run of 2^order pages at the VA cursor (churn step). */
    void mapOne(unsigned order)
    {
        const Ppn base = buddy_.allocate(order);
        if (base == invalidPpn)
            return; // pool exhausted; unmaps will catch up
        // An occasional VA gap keeps chunks from merging into one run.
        if (rng_.nextBool(0.25))
            va_cursor_ += rng_.nextRange(1, 64);
        segments_.push_back({va_cursor_, base, order});
        va_cursor_ += 1ULL << order;
        ++steps_;
    }

    /** Unmap a random live segment (churn step). */
    void unmapOne()
    {
        if (segments_.empty())
            return;
        const std::size_t victim =
            static_cast<std::size_t>(rng_.nextBounded(segments_.size()));
        buddy_.free(segments_[victim].ppn, segments_[victim].order);
        segments_[victim] = segments_.back();
        segments_.pop_back();
        ++steps_;
    }

    /** Rebuild the OS view of the current segments. */
    MemoryMap buildMap() const
    {
        MemoryMap map;
        for (const Segment &s : segments_)
            map.add(s.vpn, s.ppn, PageCount{s.pages()});
        map.finalize();
        return map;
    }

    /** A uniformly random currently-mapped VPN. */
    Vpn randomMappedVpn()
    {
        const Segment &s = segments_[static_cast<std::size_t>(
            rng_.nextBounded(segments_.size()))];
        return s.vpn + rng_.nextBounded(s.pages());
    }
};

TEST_F(DifferentialStress, TenThousandStepsZeroMismatches)
{
    constexpr int epochs = 40;
    constexpr int maps_per_epoch = 12;
    constexpr int unmaps_per_epoch = 7;
    constexpr int accesses_per_epoch = 250;

    MmuConfig cfg;
    // Construct the five schemes once against a small bootstrap
    // mapping; every epoch context-switches them onto the new tables,
    // exercising the flush paths the paper's Section 3.3 describes.
    for (int i = 0; i < 4; ++i)
        mapOne(4);
    // The map and tables live behind stable pointers: RMM and the
    // oracle keep references across epochs until the next switch.
    auto map = std::make_unique<MemoryMap>(buildMap());
    auto plain =
        std::make_unique<PageTable>(buildPageTable(*map, false));
    auto thp = std::make_unique<PageTable>(buildPageTable(*map, true));
    std::uint64_t distance =
        selectAnchorDistance(map->contiguityHistogram()).distance;
    auto anchored = std::make_unique<PageTable>(
        buildAnchorPageTable(*map, AnchorDist::fromPages(distance)));

    BaselineMmu base(cfg, *plain);
    ColtMmu colt(cfg, *plain);
    ClusterMmu cluster(cfg, *plain, false);
    RmmMmu rmm(cfg, *thp, *map);
    AnchorMmu anchor(cfg, *anchored, AnchorDist::fromPages(distance));

    DifferentialOracle oracle(map.get());
    oracle.attach(base);
    oracle.attach(colt);
    oracle.attach(cluster);
    oracle.attach(rmm);
    oracle.attach(anchor);

    std::uint64_t distance_changes = 0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        // Churn the mapping: allocate fresh runs, drop old ones.
        for (int i = 0; i < maps_per_epoch; ++i)
            mapOne(static_cast<unsigned>(rng_.nextBounded(6)));
        for (int i = 0; i < unmaps_per_epoch; ++i)
            unmapOne();
        ASSERT_FALSE(segments_.empty());

        // The OS rebuilds its view and re-selects the anchor distance.
        auto next_map = std::make_unique<MemoryMap>(buildMap());
        auto next_plain = std::make_unique<PageTable>(
            buildPageTable(*next_map, false));
        auto next_thp = std::make_unique<PageTable>(
            buildPageTable(*next_map, true));
        const std::uint64_t next_distance =
            selectAnchorDistance(next_map->contiguityHistogram())
                .distance;
        if (next_distance != distance)
            ++distance_changes;
        distance = next_distance;
        auto next_anchored = std::make_unique<PageTable>(
            buildAnchorPageTable(*next_map, AnchorDist::fromPages(distance)));

        ProcessContext ctx;
        ctx.table = next_plain.get();
        base.switchProcess(ctx);
        colt.switchProcess(ctx);
        cluster.switchProcess(ctx);
        ctx.table = next_thp.get();
        ctx.map = next_map.get();
        rmm.switchProcess(ctx);
        ctx.table = next_anchored.get();
        ctx.anchor_distance = AnchorDist::fromPages(distance);
        anchor.switchProcess(ctx);

        // Only now may the previous epoch's structures die.
        plain = std::move(next_plain);
        thp = std::move(next_thp);
        anchored = std::move(next_anchored);
        map = std::move(next_map);
        oracle.setMap(map.get());

        for (int i = 0; i < accesses_per_epoch; ++i) {
            const Vpn vpn = randomMappedVpn();
            const VirtAddr va =
                vaOf(vpn) + rng_.nextBounded(pageBytes / 8) * 8;
            ASSERT_EQ(oracle.translateAll(va), map->translate(vpn))
                << "epoch " << epoch << " access " << i;
            ++steps_;
        }

        // Churn boundary: every structural invariant must hold.
        for (const TranslationOracle &o : oracle.oracles()) {
            verifyTlbInvariants(o.mmu().l1Tlb4K());
            verifyTlbInvariants(o.mmu().l1Tlb2M());
        }
        verifyTlbInvariants(base.l2Tlb());
        verifyTlbInvariants(colt.regularTlb());
        verifyTlbInvariants(colt.coalescedTlb());
        verifyTlbInvariants(cluster.regularTlb());
        verifyTlbInvariants(cluster.clusterTlb());
        verifyTlbInvariants(rmm.l2Tlb());
        verifyTlbInvariants(anchor.l2Tlb());
        verifyAnchorInvariants(anchor);
        verifyBuddyInvariants(buddy_);
    }

    // The acceptance bar: >= 10k deterministic steps, zero mismatches
    // (any mismatch would have panicked), all five schemes exercised.
    EXPECT_GE(steps_, 10000u);
    EXPECT_EQ(oracle.steps(), static_cast<std::uint64_t>(epochs) *
                                  accesses_per_epoch);
    EXPECT_GT(distance_changes, 0u)
        << "churn never moved the anchor distance; the distance-change "
           "path went untested";
    for (const TranslationOracle &o : oracle.oracles()) {
        EXPECT_EQ(o.mmu().stats().accesses, oracle.steps());
        EXPECT_GT(o.mmu().stats().l1_hits, 0u);
        EXPECT_GT(o.mmu().stats().page_walks, 0u);
    }
}

/**
 * Seed-sweep stress for the cell body: 16 RNG seeds x the five
 * translation schemes, each cell run through runSchemeCell. Under
 * ANCHORTLB_CHECKED every translate() is oracle-verified against the
 * authoritative page table, so this sweep drags the cell path through
 * 16 different mapping layouts and access streams with the full
 * checker armour on. The release-build assertion is the conservation
 * law that holds at any budget: the counters account for exactly the
 * requested stream.
 */
TEST(SeedSweep, SixteenSeedsFiveSchemesConserveCounters)
{
    const Scheme schemes[] = {Scheme::Base, Scheme::Thp, Scheme::Cluster,
                              Scheme::Rmm, Scheme::Anchor};
    const std::string workloads[] = {"canneal", "sphinx3", "omnetpp",
                                     "mcf"};
    const ScenarioKind scenarios[] = {
        ScenarioKind::Demand, ScenarioKind::LowContig,
        ScenarioKind::MedContig, ScenarioKind::HighContig};

    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SimOptions options;
        options.accesses = 12'000;
        options.seed = seed * 7919; // spread seeds far apart
        options.footprint_scale = 0.02;
        options.threads = 1;
        // Rotate the pair with the seed so the sweep covers different
        // mapping layouts, not just different streams over one layout.
        const std::string &workload = workloads[seed % 4];
        const ScenarioKind scenario = scenarios[(seed / 4) % 4];
        SCOPED_TRACE("seed " + std::to_string(options.seed) + " " +
                     workload + "/" + scenarioName(scenario));

        const WorkloadSpec spec = scaledWorkloadSpec(options, workload);
        const MemoryMap map =
            buildScenario(scenario, scenarioParamsFor(options, spec));
        const PageTable plain = buildPageTable(map, false);
        const PageTable thp = buildPageTable(map, true);
        const std::uint64_t distance =
            selectAnchorDistance(map.contiguityHistogram()).distance;
        const PageTable anchored =
            buildAnchorPageTable(map, AnchorDist::fromPages(distance));

        for (const Scheme scheme : schemes) {
            SCOPED_TRACE(schemeName(scheme));
            const PageTable &table =
                scheme == Scheme::Base || scheme == Scheme::Cluster
                    ? plain
                    : (scheme == Scheme::Anchor ? anchored : thp);
            const std::uint64_t dist =
                scheme == Scheme::Anchor ? distance : 0;

            const std::unique_ptr<TraceSource> trace = makeCellTrace(
                options, spec, cellAccesses(options, spec));
            const SimResult r = runSchemeCell(options, spec, scenario, map,
                                              table, scheme, dist, *trace);
            const MmuStats &s = r.stats;
            ASSERT_EQ(s.accesses, options.accesses);
            EXPECT_EQ(s.l1_hits + s.l2_regular_hits + s.coalesced_hits +
                          s.page_walks,
                      s.accesses);
        }
    }
}

} // namespace
} // namespace atlb
