/**
 * @file
 * Ablation: contiguity-field width.
 *
 * The paper allocates 16 bits for the anchor contiguity (Section 3.1),
 * which caps the useful anchor distance at 2^16 pages. This ablation
 * narrows the field and shows where high-contiguity mappings start to
 * suffer — the quantitative argument for the paper's choice.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"

int
main()
{
    using namespace atlb;
    bench::printHeader("Ablation — anchor contiguity field width");

    Table table("Relative TLB misses (%) vs contiguity-field width "
                "(Dynamic, distance capped at 2^bits)",
                {"field bits", "max distance", "medium", "high", "max"});

    for (const unsigned bits : {4u, 6u, 8u, 12u, 16u}) {
        SimOptions opts = bench::figureOptions();
        opts.mmu.max_contiguity = 1ULL << bits;
        ExperimentContext ctx(opts);
        table.beginRow();
        table.cell(static_cast<std::uint64_t>(bits));
        table.cell(opts.mmu.max_contiguity);
        for (const ScenarioKind k :
             {ScenarioKind::MedContig, ScenarioKind::HighContig,
              ScenarioKind::MaxContig}) {
            const std::uint64_t base =
                ctx.run("canneal", k, Scheme::Base).misses();
            const std::uint64_t capped_distance =
                std::min(ctx.pair("canneal", k)->dynamicDistance(),
                         opts.mmu.max_contiguity);
            const SimResult r =
                ctx.run("canneal", k, Scheme::Anchor, capped_distance);
            table.cellPercent(relativeMisses(r.misses(), base));
        }
    }
    table.printAscii(std::cout);
    std::cout << "\nExpected shape: medium contiguity is insensitive "
                 "(selected distances are small);\nhigh/max lose most of "
                 "their benefit once the field caps the distance below "
                 "the\nmapping's chunk scale — motivating the paper's "
                 "16-bit field.\n";
    return 0;
}
