/**
 * @file
 * Extension experiment: hybrid coalescing under virtualization.
 *
 * The paper's related work (Section 6) notes that virtualized systems
 * "exhibit more severe performance drops by TLB misses" because every
 * miss pays a two-dimensional walk (up to 24 memory references for
 * 4-level x 4-level paging). Coverage schemes therefore matter *more*
 * under a hypervisor. This bench runs baseline/THP/anchor natively and
 * nested (guest mapping x host mapping, anchors clipped to
 * host-contiguous runs) and reports the CPI amplification.
 */

#include <iostream>
#include <memory>

#include "bench_util.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "trace/workload.hh"

int
main()
{
    using namespace atlb;
    bench::printHeader(
        "Extension — translation CPI native vs nested (virtualized)");

    const SimOptions opts = bench::figureOptions();
    Table table("canneal & graph500, medium-contiguity guest on a "
                "demand-paged host",
                {"workload", "scheme", "native CPI", "nested CPI",
                 "amplification"});

    for (const char *wl : {"canneal", "graph500"}) {
        const WorkloadSpec spec = scaledCatalogSpec(opts, wl);

        ScenarioParams gp;
        gp.footprint_pages = spec.footprintPages();
        gp.seed = opts.seed;
        const MemoryMap guest =
            buildScenario(ScenarioKind::MedContig, gp);

        // Host: demand-style mapping over the guest-physical space.
        Ppn max_gpa{0};
        for (const Chunk &c : guest.chunks())
            max_gpa = std::max(max_gpa, c.ppn + c.pages);
        ScenarioParams hp;
        hp.footprint_pages = max_gpa.raw() + 8;
        hp.va_base = Vpn{0};
        hp.seed = opts.seed + 99;
        hp.demand_run_pages = 4096;
        const MemoryMap host_map =
            buildScenario(ScenarioKind::Demand, hp);
        const PageTable host_table = buildPageTable(host_map, true);

        const std::uint64_t accesses = opts.accesses / 2;
        const std::uint64_t d =
            selectAnchorDistance(guest.contiguityHistogram()).distance;

        for (const Scheme scheme :
             {Scheme::Base, Scheme::Thp, Scheme::Anchor}) {
            const TableLayout layout = schemeRow(scheme).layout;
            const PageTable t =
                layout == TableLayout::Anchor
                    ? buildAnchorPageTable(guest, AnchorDist::fromPages(d))
                    : buildPageTable(guest, layout == TableLayout::Thp);
            // Each pass runs the stream from its start on a fresh
            // MMU, so its stats are its own.
            const auto cpi = [&](bool nested) {
                const std::unique_ptr<Mmu> mmu =
                    buildSchemeMmu(opts.mmu, t, guest, scheme, d);
                if (nested)
                    mmu->setNested(&host_table, &host_map);
                PatternTrace trace(spec, traceBaseVa(), accesses, 3);
                return runSimulation(*mmu, trace, spec.mem_per_instr)
                    .translationCpi();
            };
            const double native_cpi = cpi(false);
            const double nested_cpi = cpi(true);
            table.beginRow();
            table.cell(std::string(wl));
            table.cell(std::string(schemeName(scheme)));
            table.cell(native_cpi, 4);
            table.cell(nested_cpi, 4);
            table.cell(native_cpi > 0 ? nested_cpi / native_cpi : 0.0, 2);
        }
    }
    table.printAscii(std::cout);
    std::cout
        << "\nExpected shape: nesting multiplies every walk's cost "
           "(~24 refs vs 4), so the\nbaseline's CPI amplifies hardest; "
           "the anchor scheme, having removed most\nwalks, keeps nested "
           "translation CPI a small fraction of the nested baseline —\n"
           "coverage matters even more under a hypervisor (paper "
           "Section 6).\n";
    return 0;
}
