/**
 * @file
 * Adaptivity tour: the paper's core claim in one run.
 *
 * For a single workload, sweep all six mapping scenarios and show that
 * each prior scheme only wins where its favourite chunk size exists,
 * while hybrid coalescing re-tunes its anchor distance per mapping and
 * stays at or near the front everywhere.
 *
 * Usage: adaptivity_tour [workload]
 */

#include <iostream>
#include <string>

#include "sim/experiment.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace atlb;

    const std::string workload = argc > 1 ? argv[1] : "mcf";
    SimOptions options = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        options.accesses = 400'000;
    ExperimentContext ctx(options);

    std::cout << "How each scheme copes as the OS hands '" << workload
              << "' different memory mappings\n(relative TLB misses, "
                 "baseline = 100%):\n\n";

    Table table("adaptivity of translation schemes",
                {"mapping", "THP", "Cluster-2MB", "RMM", "Dynamic",
                 "anchor distance"});
    for (const ScenarioKind scenario : allScenarios) {
        const std::uint64_t base =
            ctx.run(workload, scenario, Scheme::Base).misses();
        table.beginRow();
        table.cell(std::string(scenarioName(scenario)));
        for (const Scheme s : {Scheme::Thp, Scheme::Cluster2MB,
                               Scheme::Rmm, Scheme::Anchor}) {
            table.cellPercent(
                relativeMisses(ctx.run(workload, scenario, s).misses(),
                               base));
        }
        table.cell(ctx.pair(workload, scenario)->dynamicDistance());
    }
    table.printAscii(std::cout);

    std::cout << "\nReading guide: THP needs 2MB chunks (demand/eager/"
                 "high/max); RMM needs huge\nruns (high/max); clustering "
                 "caps at 8 pages; the anchor distance column shows\n"
                 "hybrid coalescing re-tuning itself to each mapping's "
                 "contiguity.\n";
    return 0;
}
