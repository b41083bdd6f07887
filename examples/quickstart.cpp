/**
 * @file
 * Quickstart: simulate one workload under one mapping scenario with
 * every translation scheme and print the paper-style comparison.
 *
 * Usage: quickstart [workload] [scenario] [accesses]
 *   workload  catalog name (default "canneal"); see DESIGN.md
 *   scenario  demand | eager | low | medium | high | max (default medium)
 *   accesses  trace length (default 500000)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/experiment.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace atlb;

    const std::string workload = argc > 1 ? argv[1] : "canneal";
    const std::string scenario_name = argc > 2 ? argv[2] : "medium";
    const ScenarioKind scenario = scenarioFromName(scenario_name);

    SimOptions options = SimOptions::fromEnv();
    if (argc > 3)
        options.accesses = std::strtoull(argv[3], nullptr, 10);
    else if (!std::getenv("ANCHORTLB_ACCESSES"))
        options.accesses = 500'000;

    ExperimentContext ctx(options);

    std::cout << "workload: " << workload << "  scenario: " << scenario_name
              << "  accesses: " << options.accesses << "\n";
    std::cout << "dynamic anchor distance: "
              << ctx.pair(workload, scenario)->dynamicDistance()
              << " pages\n\n";

    const SimResult base = ctx.run(workload, scenario, Scheme::Base);

    Table table("TLB performance, " + workload + " / " + scenario_name,
                {"scheme", "walks", "relative misses", "L2 reg hit%",
                 "coalesced hit%", "translation CPI", "anchor dist"});
    for (const Scheme scheme : allSchemes) {
        const SimResult r = ctx.run(workload, scenario, scheme);
        table.beginRow();
        table.cell(r.scheme);
        table.cell(r.misses());
        table.cellPercent(relativeMisses(r.misses(), base.misses()));
        table.cellPercent(r.regularHitFraction());
        table.cellPercent(r.coalescedHitFraction());
        table.cell(r.translationCpi(), 4);
        table.cell(r.anchor_distance ? std::to_string(r.anchor_distance)
                                     : std::string("-"));
    }
    table.printAscii(std::cout);
    return 0;
}
