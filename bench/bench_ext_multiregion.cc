/**
 * @file
 * Extension experiment (paper Section 4.2): multi-region anchor TLB.
 *
 * On a mapping whose VA space mixes contiguity regimes — a fragmented
 * pointer-heavy area next to large allocated runs — a single
 * process-wide anchor distance must pick one regime and strand the
 * other. The region extension gives each regime its own distance.
 *
 * We build segmented mappings with an increasing contiguity contrast
 * and compare: baseline, single-distance dynamic anchor, the
 * static-ideal single distance, and the multi-region anchor.
 */

#include <iostream>
#include <limits>

#include "bench_util.hh"
#include "common/rng.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "os/region_partitioner.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"

namespace
{

using namespace atlb;

struct MixResult
{
    std::uint64_t base = 0;
    std::uint64_t single = 0;
    std::uint64_t single_ideal = 0;
    std::uint64_t multi = 0;
    std::uint64_t single_distance = 0;
    std::size_t regions = 0;
};

/** Drive identical access streams through each MMU. */
template <typename F>
void
driveBoth(const MemoryMap &map, const std::vector<AnchorRegion> &regions,
          std::uint64_t accesses, F &&touch)
{
    Rng rng(41);
    // Fragmented side: a 12MB hot working set (pointer-heavy code);
    // big-run side: scans over the whole area (array code).
    const AnchorRegion &frag = regions.front();
    const AnchorRegion &runs = regions.back();
    const std::uint64_t frag_hot =
        std::min<std::uint64_t>(frag.pages(), 2048);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        Vpn vpn;
        if (i & 1)
            vpn = frag.begin + rng.nextBounded(frag_hot);
        else
            vpn = runs.begin + rng.nextBounded(runs.pages());
        if (map.mapped(vpn))
            touch(vaOf(vpn));
    }
}

MixResult
runMix(std::uint64_t frag_pages, std::uint64_t run_pages,
       std::uint64_t accesses)
{
    ScenarioParams params;
    params.footprint_pages = 1;
    params.seed = 5;
    const MemoryMap map = buildSegmentedScenario(
        params, {{frag_pages, 1, 16}, {run_pages, 4096, 16384}});
    const RegionPartition partition = partitionAnchorRegions(map);

    MmuConfig cfg;
    MixResult out;
    out.regions = partition.regions.size();
    out.single_distance = partition.default_distance.pages();

    PageTable base_table = buildPageTable(map, false);
    BaselineMmu base(cfg, base_table);
    driveBoth(map, partition.regions, accesses,
              [&](VirtAddr va) { base.translate(va); });
    out.base = base.stats().page_walks;

    PageTable single_table =
        buildAnchorPageTable(map, partition.default_distance);
    AnchorMmu single(cfg, single_table, partition.default_distance);
    driveBoth(map, partition.regions, accesses,
              [&](VirtAddr va) { single.translate(va); });
    out.single = single.stats().page_walks;

    // Oracle single distance: sweep all candidates.
    out.single_ideal = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t d : candidateDistances()) {
        single_table.sweepAnchors(map, AnchorDist::fromPages(d));
        AnchorMmu oracle(cfg, single_table, AnchorDist::fromPages(d));
        driveBoth(map, partition.regions, accesses,
                  [&](VirtAddr va) { oracle.translate(va); });
        out.single_ideal =
            std::min(out.single_ideal, oracle.stats().page_walks);
    }

    PageTable multi_table = buildRegionAnchorPageTable(map, partition);
    AnchorMmu multi(cfg, multi_table, partition);
    driveBoth(map, partition.regions, accesses,
              [&](VirtAddr va) { multi.translate(va); });
    out.multi = multi.stats().page_walks;
    return out;
}

} // namespace

int
main()
{
    using namespace atlb;
    bench::printHeader("Extension (paper Section 4.2) — multi-region "
                       "anchor TLB on mixed-contiguity mappings");

    const SimOptions opts = bench::figureOptions();
    const std::uint64_t accesses = opts.accesses / 2;

    Table table("Relative TLB misses (%) on [fragmented | big-run] "
                "mappings, 50/50 access split",
                {"fragmented MB", "big-run MB", "regions",
                 "single d", "single Dynamic", "single Ideal",
                 "multi-region"});

    const std::pair<std::uint64_t, std::uint64_t> mixes[] = {
        {4096, 131072},  // 16MB fragments + 512MB runs
        {16384, 131072}, // 64MB fragments + 512MB runs
        {16384, 524288}, // 64MB fragments + 2GB runs
        {65536, 524288}, // 256MB fragments + 2GB runs
    };
    for (const auto &[frag, runs] : mixes) {
        const MixResult r = runMix(frag, runs, accesses);
        table.beginRow();
        table.cell(frag * pageBytes >> 20);
        table.cell(runs * pageBytes >> 20);
        table.cell(static_cast<std::uint64_t>(r.regions));
        table.cell(r.single_distance);
        table.cellPercent(relativeMisses(r.single, r.base));
        table.cellPercent(relativeMisses(r.single_ideal, r.base));
        table.cellPercent(relativeMisses(r.multi, r.base));
    }
    table.printAscii(std::cout);
    std::cout << "\nExpected shape: the single-distance scheme (even "
                 "with an oracle distance)\nstrands one of the two "
                 "regimes; per-region distances recover both, and the\n"
                 "advantage grows with the fragmented share of the "
                 "access stream.\n";
    return 0;
}
