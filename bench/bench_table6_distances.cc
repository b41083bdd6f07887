/**
 * @file
 * Paper Table 6: anchor distances selected by the dynamic distance
 * selection algorithm, per workload and mapping scenario.
 */

#include <iostream>

#include "bench_util.hh"
#include "os/distance_selector.hh"
#include "trace/workload.hh"

namespace
{

std::string
humanPages(std::uint64_t pages)
{
    if (pages >= 1024 && pages % 1024 == 0)
        return std::to_string(pages / 1024) + "K";
    return std::to_string(pages);
}

} // namespace

int
main()
{
    using namespace atlb;
    bench::printHeader(
        "Table 6 — dynamically selected anchor distances (pages)");
    ExperimentContext ctx(bench::figureOptions());

    std::vector<std::string> headers = {"workload"};
    for (const ScenarioKind k : allScenarios)
        headers.emplace_back(scenarioName(k));
    Table table("Table 6: anchor distance chosen by Algorithm 1",
                headers);

    for (const auto &workload : paperWorkloadNames()) {
        table.beginRow();
        table.cell(workload);
        for (const ScenarioKind k : allScenarios)
            table.cell(
                humanPages(ctx.pair(workload, k)->dynamicDistance()));
    }
    table.printAscii(std::cout);

    // Distance-selection stability (paper Section 5.2.3): re-running
    // the selector over epochs on a stable mapping never changes the
    // distance after the initial pick.
    std::uint64_t changes = 0, epochs = 0;
    for (const auto &workload : paperWorkloadNames()) {
        DistanceController ctl;
        const Histogram hist =
            ctx.pair(workload, ScenarioKind::Demand)->map()
                .contiguityHistogram();
        for (int e = 0; e < 12; ++e)
            ctl.epoch(hist);
        changes += ctl.changes();
        epochs += ctl.epochs();
    }
    std::cout << "\nStability check: " << changes
              << " distance changes over " << epochs
              << " epochs (expected: at most one initial selection per "
                 "workload — a workload whose selection equals the boot "
                 "default records none; never any re-selection).\n";
    std::cout << "\nExpected shape (paper Table 6): low contiguity -> 4 "
                 "everywhere; medium -> 16-32;\nhigh/max -> hundreds to "
                 "64K; demand/eager -> large for big-array codes "
                 "(mcf,\ngups, graph500: 16K-64K) and tiny (2-4) for "
                 "omnetpp/soplex/sphinx3/xalancbmk.\n";
    return 0;
}
