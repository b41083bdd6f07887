/**
 * @file
 * Profiling a workload model and predicting scheme behaviour.
 *
 * Shows how the profiler's page-level metrics (footprint, reuse
 * distances, hot sets) explain the TLB results: a scheme helps exactly
 * when its per-entry coverage times the TLB capacity exceeds the hot
 * set. The example profiles two contrasting workloads and checks the
 * predictions against an actual simulation.
 */

#include <iostream>

#include "sim/experiment.hh"
#include "stats/table.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;

TraceProfile
profileOf(const std::string &name, std::uint64_t accesses)
{
    WorkloadSpec spec = findWorkload(name);
    spec.footprint_bytes /= 4; // keep the example snappy
    PatternTrace trace(spec, traceBaseVa(), accesses, 7);
    TraceProfiler prof;
    prof.consume(trace);
    return prof.profile();
}

} // namespace

int
main()
{
    using namespace atlb;
    const std::uint64_t accesses = 400'000;

    Table table("page-level character of two contrasting workloads",
                {"metric", "canneal", "gups"});
    const TraceProfile canneal = profileOf("canneal", accesses);
    const TraceProfile gups = profileOf("gups", accesses);

    const auto row = [&table](const std::string &metric,
                              const std::string &a,
                              const std::string &b) {
        table.beginRow();
        table.cell(metric);
        table.cell(a);
        table.cell(b);
    };
    row("unique pages touched", std::to_string(canneal.unique_pages),
        std::to_string(gups.unique_pages));
    row("same-page fraction",
        std::to_string(canneal.same_page_fraction),
        std::to_string(gups.same_page_fraction));
    row("hot set for 90% of reuses (pages)",
        std::to_string(canneal.hotSetPages(0.9)),
        std::to_string(gups.hotSetPages(0.9)));
    row("reuses within base L2 reach (1K pages)",
        std::to_string(canneal.hitFractionAtReach(1024)),
        std::to_string(gups.hitFractionAtReach(1024)));
    row("reuses within anchor reach (32K pages)",
        std::to_string(canneal.hitFractionAtReach(32768)),
        std::to_string(gups.hitFractionAtReach(32768)));
    table.printAscii(std::cout);

    std::cout
        << "\nPrediction: canneal's reuse mass sits between the "
           "baseline's reach and the\nanchor scheme's reach, so hybrid "
           "coalescing should help canneal a lot and\ngups barely. "
           "Checking with the simulator (medium contiguity):\n\n";

    SimOptions opts = SimOptions::fromEnv();
    opts.accesses = accesses;
    opts.footprint_scale = 0.25;
    ExperimentContext ctx(opts);
    for (const char *wl : {"canneal", "gups"}) {
        const std::uint64_t base =
            ctx.run(wl, ScenarioKind::MedContig, Scheme::Base).misses();
        const std::uint64_t anchor =
            ctx.run(wl, ScenarioKind::MedContig, Scheme::Anchor)
                .misses();
        std::cout << "  " << wl << ": relative misses with anchors = "
                  << static_cast<int>(
                         relativeMisses(anchor, base) * 100)
                  << "%\n";
    }
    return 0;
}
