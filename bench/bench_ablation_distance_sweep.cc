/**
 * @file
 * Ablation: TLB-miss sensitivity to the anchor distance.
 *
 * For representative workloads on the medium-contiguity mapping, run
 * the anchor scheme at every candidate distance and mark where the
 * dynamic selection lands — showing how close Algorithm 1 gets to the
 * empirical optimum (the gap the paper discusses for cactusADM).
 */

#include <iostream>

#include "bench_util.hh"
#include "os/distance_selector.hh"

int
main()
{
    using namespace atlb;
    bench::printHeader(
        "Ablation — anchor distance sweep (medium contiguity)");
    ExperimentContext ctx(bench::figureOptions());

    const char *workloads[] = {"canneal", "mcf", "cactusADM", "gups"};

    std::vector<std::string> headers = {"distance"};
    for (const char *w : workloads)
        headers.emplace_back(w);
    Table table("Relative TLB misses (%) vs anchor distance; '*' marks "
                "the dynamic selection",
                headers);

    std::vector<std::uint64_t> base;
    std::vector<std::uint64_t> dynamic_d;
    for (const char *w : workloads) {
        base.push_back(
            ctx.run(w, ScenarioKind::MedContig, Scheme::Base).misses());
        dynamic_d.push_back(
            ctx.pair(w, ScenarioKind::MedContig)->dynamicDistance());
    }

    for (const std::uint64_t d : candidateDistances()) {
        table.beginRow();
        table.cell(d);
        for (std::size_t i = 0; i < std::size(workloads); ++i) {
            const SimResult r = ctx.run(
                workloads[i], ScenarioKind::MedContig, Scheme::Anchor, d);
            std::string cell =
                std::to_string(static_cast<int>(
                    relativeMisses(r.misses(), base[i]) * 100)) +
                "%";
            if (d == dynamic_d[i])
                cell += " *";
            table.cell(cell);
        }
    }
    table.printAscii(std::cout);
    std::cout << "\nExpected shape: misses fall as the distance "
                 "approaches the mapping's chunk\nscale, then flatten or "
                 "rebound once anchors overshoot the chunks; the "
                 "dynamic\npick sits at or near each column's minimum "
                 "(the paper notes cactusADM as the\ncase where the "
                 "static histogram misses the access-weighted "
                 "optimum).\n";
    return 0;
}
