/**
 * @file
 * Extension experiment: access-weighted, capacity-aware distance
 * selection.
 *
 * The paper notes (Section 5.2.1, the cactusADM case) that Algorithm 1
 * selects "based on the allocation snapshot, without knowing access
 * frequency", which can miss the access-weighted optimum. This bench
 * lets the OS sample the access stream for one profiling epoch, feeds
 * the per-chunk sample counts into a capacity-aware miss model, and
 * compares the result with the snapshot selection and the exhaustive
 * oracle on the medium-contiguity mapping — the regime where the gap
 * is largest.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "os/access_sampler.hh"
#include "trace/workload.hh"

int
main()
{
    using namespace atlb;
    bench::printHeader("Extension — access-weighted capacity-aware "
                       "distance selection (medium contiguity)");

    ExperimentContext ctx(bench::figureOptions());
    const SimOptions &opts = ctx.options();

    Table table("Relative TLB misses (%) by selection policy",
                {"workload", "snapshot d", "snapshot", "sampled d",
                 "sampled", "oracle d", "oracle"});

    // Per workload: Base, the snapshot pick (the paper's Algorithm 1),
    // the sampled pick and the oracle, all run as one batch.
    const ScenarioKind k = ScenarioKind::MedContig;
    const std::vector<std::string> workloads = {
        "canneal", "mcf", "cactusADM", "soplex_pds", "omnetpp"};
    std::vector<std::uint64_t> sampled_distance;
    std::vector<CellSpec> cells;
    for (const std::string &workload : workloads) {
        // Profiling epoch: the OS samples the access stream (here:
        // every 8th access of a short prefix) and selects with the
        // capacity-aware model.
        const std::shared_ptr<const CellPairState> pair =
            ctx.pair(workload, k);
        AccessSampler sampler(pair->map());
        PatternTrace profile_trace(
            scaledCatalogSpec(opts, workload), traceBaseVa(),
            std::min<std::uint64_t>(opts.accesses / 4, 250'000),
            opts.seed ^ 0x5eed);
        MemAccess a;
        std::uint64_t n = 0;
        while (profile_trace.next(a)) {
            if ((n++ & 7) == 0)
                sampler.sample(vpnOf(a.vaddr));
        }
        sampled_distance.push_back(
            selectAnchorDistanceCapacityAware(sampler.chunkAccesses(),
                                              opts.mmu.l2_entries)
                .distance);

        cells.push_back({workload, k, Scheme::Base, {}});
        cells.push_back({workload, k, Scheme::Anchor, {}});
        cells.push_back(
            {workload, k, Scheme::Anchor, sampled_distance.back()});
        cells.push_back({workload, k, Scheme::AnchorIdeal, {}});
    }
    const std::vector<SimResult> results = ctx.runCells(cells);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::uint64_t base = results[4 * w].misses();
        const SimResult &snap = results[4 * w + 1];
        const SimResult &weighted = results[4 * w + 2];
        const SimResult &oracle = results[4 * w + 3];

        table.beginRow();
        table.cell(workloads[w]);
        table.cell(snap.anchor_distance);
        table.cellPercent(relativeMisses(snap.misses(), base));
        table.cell(sampled_distance[w]);
        table.cellPercent(relativeMisses(weighted.misses(), base));
        table.cell(oracle.anchor_distance);
        table.cellPercent(relativeMisses(oracle.misses(), base));
    }
    table.printAscii(std::cout);
    std::cout
        << "\nExpected shape: for reuse-driven workloads the sampled, "
           "capacity-aware pick\ntracks the oracle distance and closes "
           "most of the snapshot-vs-oracle gap\n(mcf typically lands on "
           "the oracle's distance exactly). Streaming-dominated\n"
           "workloads (cactusADM) remain hard: their sampled stream has "
           "no residency\nstructure for the model to exploit — the same "
           "limitation the paper reports.\n";
    return 0;
}
