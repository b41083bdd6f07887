/**
 * @file
 * Paper Section 3.3 overhead anecdote: the cost of changing the anchor
 * distance is a page-table sweep that touches only anchor-aligned
 * entries, so it shrinks roughly linearly in the distance (the paper
 * measured 452ms / 71.7ms / 1.7ms for distances 8 / 64 / 512 on a 30GB
 * process). We sweep a large mapping and report entries touched and
 * wall time per distance.
 */

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "os/distance_selector.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"

int
main()
{
    using namespace atlb;
    bench::printHeader(
        "Section 3.3 — anchor-distance change (page-table sweep) cost");

    // A large, mostly contiguous mapping (every entry is a potential
    // anchor slot), scaled from the paper's 30GB by ANCHORTLB_SCALE,
    // and at least one page.
    const SimOptions opts = bench::figureOptions();
    ScenarioParams params;
    params.footprint_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>((30.0 * (1ULL << 30) / pageBytes) *
                                      opts.footprint_scale * 0.25));
    params.seed = 3;
    const MemoryMap map = buildScenario(ScenarioKind::MedContig, params);
    PageTable table = buildPageTable(map, true);

    Table out("Distance-change sweep cost over a " +
                  std::to_string(params.footprint_pages * pageBytes >>
                                 20) +
                  "MB mapping",
              {"new distance", "entries touched", "wall time (us)",
               "us per 1M mapped pages"});

    bool first = true;
    for (const std::uint64_t d : candidateDistances()) {
        // Each sweep also clears the previous distance's anchors, which
        // is exactly what a real distance change pays.
        const auto start = std::chrono::steady_clock::now();
        const std::uint64_t touched =
            table.sweepAnchors(map, AnchorDist::fromPages(d));
        const auto end = std::chrono::steady_clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(end - start)
                .count();
        out.beginRow();
        out.cell(d);
        out.cell(touched);
        out.cell(us, 1);
        out.cell(us * 1e6 /
                     static_cast<double>(map.mappedPages()) / 1.0,
                 3);
        if (first)
            first = false;
    }
    out.printAscii(std::cout);
    std::cout << "\nExpected shape (paper Section 3.3): cost is "
                 "proportional to the number of\nanchor entries touched, "
                 "i.e. ~1/distance (paper: 452ms -> 71.7ms -> 1.7ms for\n"
                 "8 -> 64 -> 512 at 30GB). Note each row below the first "
                 "also pays the clearing\npass for the previous "
                 "distance.\n";
    return 0;
}
