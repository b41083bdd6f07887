/**
 * @file
 * Translation-correctness properties for the extension MMUs (CoLT-FA,
 * multi-region anchors) and for nested mode, across every scenario
 * kind: like test_translation_property.cc, results must always equal
 * the mapping's answer regardless of hit path.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/colt_mmu.hh"
#include "os/distance_selector.hh"
#include "os/region_partitioner.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"

namespace atlb
{
namespace
{

class ExtensionProperty : public ::testing::TestWithParam<ScenarioKind>
{
  protected:
    MemoryMap
    makeMap() const
    {
        ScenarioParams sp;
        sp.footprint_pages = 6000;
        sp.seed = 91;
        sp.demand_run_pages = 48;
        sp.eager_run_pages = 48;
        sp.map_tail_run_pages = 8;
        sp.map_tail_fraction = 0.3;
        return buildScenario(GetParam(), sp);
    }

    static void
    verify(Mmu &mmu, const MemoryMap &map)
    {
        Rng rng(123);
        const Vpn lo = map.chunks().front().vpn;
        const Vpn hi = map.chunks().back().vpnEnd();
        for (int i = 0; i < 25000; ++i) {
            const Vpn vpn = lo + rng.nextBounded(hi - lo);
            if (!map.mapped(vpn))
                continue;
            ASSERT_EQ(mmu.translate(vaOf(vpn)).ppn, map.translate(vpn))
                << "vpn offset " << vpn - lo;
        }
    }
};

TEST_P(ExtensionProperty, ColtFaAlwaysCorrect)
{
    const MemoryMap map = makeMap();
    const PageTable table = buildPageTable(map, false);
    MmuConfig cfg;
    ColtMmu mmu(cfg, table);
    verify(mmu, map);
}

TEST_P(ExtensionProperty, RegionAnchorAlwaysCorrect)
{
    const MemoryMap map = makeMap();
    const RegionPartition partition = partitionAnchorRegions(map);
    const PageTable table = buildRegionAnchorPageTable(map, partition);
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, partition);
    verify(mmu, map);
}

TEST_P(ExtensionProperty, NestedAnchorAlwaysCorrect)
{
    const MemoryMap guest = makeMap();
    const std::uint64_t d =
        selectAnchorDistance(guest.contiguityHistogram()).distance;
    PageTable guest_table =
        buildAnchorPageTable(guest, AnchorDist::fromPages(d));

    Ppn max_gpa{0};
    for (const Chunk &c : guest.chunks())
        max_gpa = std::max(max_gpa, c.ppn + c.pages);
    ScenarioParams hp;
    hp.footprint_pages = max_gpa.raw() + 8;
    hp.va_base = Vpn{0};
    hp.seed = 17;
    hp.demand_run_pages = 64;
    hp.eager_run_pages = 64;
    const MemoryMap host_map = buildScenario(GetParam(), hp);
    const PageTable host_table = buildPageTable(host_map, true);

    MmuConfig cfg;
    AnchorMmu mmu(cfg, guest_table, AnchorDist::fromPages(d));
    mmu.setNested(&host_table, &host_map);

    Rng rng(321);
    const Vpn lo = guest.chunks().front().vpn;
    const Vpn hi = guest.chunks().back().vpnEnd();
    for (int i = 0; i < 20000; ++i) {
        const Vpn vpn = lo + rng.nextBounded(hi - lo);
        if (!guest.mapped(vpn))
            continue;
        const Ppn expect =
            host_map.translate(hostVpnOf(guest.translate(vpn)));
        ASSERT_EQ(mmu.translate(vaOf(vpn)).ppn, expect)
            << "vpn offset " << vpn - lo;
    }
}

std::string
kindName(const ::testing::TestParamInfo<ScenarioKind> &info)
{
    return scenarioName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ExtensionProperty,
                         ::testing::ValuesIn(allScenarios), kindName);

} // namespace
} // namespace atlb
