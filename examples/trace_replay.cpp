/**
 * @file
 * Capturing and replaying trace files.
 *
 * Users with real traces (e.g. Pin captures converted to the format in
 * ingest/trace_v1.hh) can drive the simulator from disk. This example
 * round-trips a generated trace through a file, replays it through
 * openTraceFile (which picks the reader for either trace format) and
 * shows that replay reproduces the simulation exactly.
 *
 * Usage: trace_replay [path]
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "ingest/trace_open.hh"
#include "ingest/trace_v1.hh"
#include "mmu/anchor_mmu.hh"
#include "os/distance_selector.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

int
main(int argc, char **argv)
{
    using namespace atlb;

    const std::string path =
        argc > 1 ? argv[1] : "/tmp/anchortlb_example.trace";
    const std::uint64_t accesses = 500'000;

    // Capture: write a canneal-like trace to disk.
    WorkloadSpec spec = findWorkload("canneal");
    spec.footprint_bytes /= 8; // keep the example snappy
    ScenarioParams params;
    params.footprint_pages = spec.footprintPages();
    params.seed = 5;
    {
        PatternTrace source(spec, vaOf(params.va_base), accesses, 11);
        TraceWriter writer(path);
        MemAccess a;
        while (source.next(a))
            writer.append(a);
        std::cout << "captured " << writer.written() << " accesses to "
                  << path << "\n";
    }

    // Build the memory system once.
    const MemoryMap map =
        buildScenario(ScenarioKind::MedContig, params);
    const AnchorDist distance = AnchorDist::fromPages(
        selectAnchorDistance(map.contiguityHistogram()).distance);
    MmuConfig hw;

    // Run live generator and file replay; results must be identical.
    PageTable table_a = buildAnchorPageTable(map, distance);
    AnchorMmu mmu_a(hw, table_a, distance);
    PatternTrace live(spec, vaOf(params.va_base), accesses, 11);
    const SimResult from_live =
        runSimulation(mmu_a, live, spec.mem_per_instr);

    PageTable table_b = buildAnchorPageTable(map, distance);
    AnchorMmu mmu_b(hw, table_b, distance);
    const std::unique_ptr<TraceSource> replay = openTraceFile(path);
    const SimResult from_file =
        runSimulation(mmu_b, *replay, spec.mem_per_instr);

    std::cout << "live generator : " << from_live.misses()
              << " TLB misses, CPI " << from_live.translationCpi()
              << "\n";
    std::cout << "file replay    : " << from_file.misses()
              << " TLB misses, CPI " << from_file.translationCpi()
              << "\n";
    if (from_live.misses() != from_file.misses()) {
        std::cerr << "ERROR: replay diverged from live simulation\n";
        return 1;
    }
    std::cout << "replay matches the live run exactly.\n";
    std::remove(path.c_str());
    return 0;
}
