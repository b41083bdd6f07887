/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulator's hot paths:
 * TLB lookups, MMU translation pipelines, buddy allocation, page-table
 * walks and anchor sweeps, trace generation, and distance selection;
 * and for the pair-build layer at paper footprints: scenario mappings,
 * plain and THP tables, and anchor tables.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "mem/buddy_allocator.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "os/distance_selector.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "tlb/set_assoc_tlb.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;

constexpr Vpn bench_base{0x7f0000000ULL};

MemoryMap
benchMap(std::uint64_t pages, ScenarioKind kind = ScenarioKind::MedContig)
{
    ScenarioParams p;
    p.footprint_pages = pages;
    p.seed = 99;
    p.demand_run_pages = 128;
    p.eager_run_pages = 128;
    return buildScenario(kind, p);
}

void
BM_TlbLookupHit(benchmark::State &state)
{
    SetAssocTlb tlb(1024, 8, "bench");
    for (std::uint64_t k = 0; k < 1024; ++k) {
        TlbEntry e;
        e.kind = EntryKind::Page4K;
        e.key = TlbKey{k};
        e.ppn = Ppn{k};
        e.valid = true;
        tlb.insert(e);
    }
    std::uint64_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(EntryKind::Page4K, TlbKey{k}));
        k = (k + 1) & 1023;
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbLookupMiss(benchmark::State &state)
{
    SetAssocTlb tlb(1024, 8, "bench");
    std::uint64_t k = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(EntryKind::Page4K, TlbKey{k}));
        ++k;
    }
}
BENCHMARK(BM_TlbLookupMiss);

void
BM_TlbInsertEvict(benchmark::State &state)
{
    SetAssocTlb tlb(1024, 8, "bench");
    std::uint64_t k = 0;
    for (auto _ : state) {
        TlbEntry e;
        e.kind = EntryKind::Page4K;
        e.key = TlbKey{++k};
        e.ppn = Ppn{k};
        e.valid = true;
        tlb.insert(e);
    }
}
BENCHMARK(BM_TlbInsertEvict);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    const auto order = static_cast<unsigned>(state.range(0));
    BuddyAllocator buddy(1 << 20);
    for (auto _ : state) {
        const Ppn p = buddy.allocate(order);
        benchmark::DoNotOptimize(p);
        buddy.free(p, order);
    }
}
BENCHMARK(BM_BuddyAllocFree)->Arg(0)->Arg(4)->Arg(9);

void
BM_PageWalk(benchmark::State &state)
{
    const MemoryMap map = benchMap(1 << 16);
    const PageTable table = buildPageTable(map, true);
    Rng rng(1);
    for (auto _ : state) {
        const Vpn vpn = bench_base + rng.nextBounded(1 << 16);
        benchmark::DoNotOptimize(table.walk(vpn));
    }
}
BENCHMARK(BM_PageWalk);

void
BM_BaselineTranslate(benchmark::State &state)
{
    const MemoryMap map = benchMap(1 << 16);
    const PageTable table = buildPageTable(map, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table);
    Rng rng(2);
    for (auto _ : state) {
        const VirtAddr va = vaOf(bench_base + rng.nextBounded(1 << 16));
        benchmark::DoNotOptimize(mmu.translate(va));
    }
}
BENCHMARK(BM_BaselineTranslate);

void
BM_AnchorTranslate(benchmark::State &state)
{
    const MemoryMap map = benchMap(1 << 16);
    PageTable table = buildAnchorPageTable(map, AnchorDist::fromPages(64));
    MmuConfig cfg;
    AnchorMmu mmu(cfg, table, AnchorDist::fromPages(64));
    Rng rng(3);
    for (auto _ : state) {
        const VirtAddr va = vaOf(bench_base + rng.nextBounded(1 << 16));
        benchmark::DoNotOptimize(mmu.translate(va));
    }
}
BENCHMARK(BM_AnchorTranslate);

void
BM_SweepAnchors(benchmark::State &state)
{
    const std::uint64_t distance = state.range(0);
    const MemoryMap map = benchMap(1 << 18);
    PageTable table = buildPageTable(map, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.sweepAnchors(map, AnchorDist::fromPages(distance)));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * map.mappedPages()));
}
BENCHMARK(BM_SweepAnchors)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void
BM_TraceGeneration(benchmark::State &state)
{
    const WorkloadSpec &spec = findWorkload("canneal");
    PatternTrace trace(spec, vaOf(bench_base), ~0ULL, 5);
    MemAccess a;
    for (auto _ : state) {
        trace.next(a);
        benchmark::DoNotOptimize(a.vaddr);
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_DistanceSelection(benchmark::State &state)
{
    const MemoryMap map = benchMap(1 << 18);
    const Histogram hist = map.contiguityHistogram();
    for (auto _ : state) {
        benchmark::DoNotOptimize(selectAnchorDistance(hist));
    }
}
BENCHMARK(BM_DistanceSelection);

void
BM_ScenarioBuild(benchmark::State &state)
{
    ScenarioParams p;
    p.footprint_pages = 1 << 16;
    p.seed = 4;
    p.demand_run_pages = 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            buildScenario(ScenarioKind::Demand, p));
    }
}
BENCHMARK(BM_ScenarioBuild);

/**
 * The mapping the engine builds for (@p workload, @p kind) at the
 * paper's footprint (scale 1.0) and seed 42.
 */
MemoryMap
paperMap(const char *workload, ScenarioKind kind)
{
    SimOptions options;
    options.footprint_scale = 1.0;
    options.seed = 42;
    const WorkloadSpec spec = scaledWorkloadSpec(options, workload);
    return buildScenario(kind, scenarioParamsFor(options, spec));
}

void
BM_BuildScenario(benchmark::State &state, const char *workload,
                 ScenarioKind kind)
{
    SimOptions options;
    options.footprint_scale = 1.0;
    options.seed = 42;
    const WorkloadSpec spec = scaledWorkloadSpec(options, workload);
    const ScenarioParams params = scenarioParamsFor(options, spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(buildScenario(kind, params));
}
BENCHMARK_CAPTURE(BM_BuildScenario, soplex_pds_demand, "soplex_pds",
                  ScenarioKind::Demand)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildScenario, soplex_pds_eager, "soplex_pds",
                  ScenarioKind::Eager)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildScenario, gups_demand, "gups",
                  ScenarioKind::Demand)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildScenario, gups_eager, "gups",
                  ScenarioKind::Eager)
    ->Unit(benchmark::kMillisecond);

void
BM_BuildPageTable(benchmark::State &state, bool use_thp)
{
    const MemoryMap map = paperMap("gups", ScenarioKind::MedContig);
    for (auto _ : state)
        benchmark::DoNotOptimize(buildPageTable(map, use_thp).nodeCount());
}
BENCHMARK_CAPTURE(BM_BuildPageTable, gups_medium_plain, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildPageTable, gups_medium_thp, true)
    ->Unit(benchmark::kMillisecond);

/** An anchor job's private table: THP build plus one sweep. */
void
BM_AnchorTable(benchmark::State &state)
{
    const MemoryMap map = paperMap("gups", ScenarioKind::MedContig);
    const AnchorDist distance =
        AnchorDist::fromPages(static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            buildAnchorPageTable(map, distance).nodeCount());
}
BENCHMARK(BM_AnchorTable)
    ->Arg(2)
    ->Arg(64)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
