#include "churn.hh"

#include <memory>

#include "common/logging.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace atlb
{

ChurnResult
runMappingChurn(Scheme scheme, const std::vector<ChurnEpoch> &epochs,
                const ChurnOptions &options)
{
    ATLB_ASSERT(!epochs.empty(), "no churn epochs");

    WorkloadSpec spec = findWorkload(options.workload);
    spec.footprint_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.footprint_bytes) *
        options.footprint_scale);
    if (spec.footprint_bytes < pageBytes)
        spec.footprint_bytes = pageBytes;

    ScenarioParams params;
    params.footprint_pages = spec.footprintPages();
    params.demand_run_pages = spec.demand_run_pages;
    params.eager_run_pages = spec.eager_run_pages;
    params.demand_churn = spec.demand_churn;
    params.map_tail_run_pages = spec.map_tail_run_pages;
    params.map_tail_fraction = spec.map_tail_fraction;

    // An AnchorSweep scheme runs as Anchor at the controller's
    // distance: the oracle sweep has no churn analogue.
    const SchemeRow &row = schemeRow(scheme);
    const bool is_anchor = row.anchored();

    DistanceController controller(8, options.distance_threshold);
    ChurnResult result;

    // The workload's access stream is continuous across epochs: the
    // process doesn't notice its pages moving (that's the point of
    // virtual memory).
    PatternTrace trace(spec, vaOf(params.va_base), ~0ULL,
                       options.seed * 31);

    MemoryMap map;
    PageTable table;
    std::unique_ptr<Mmu> mmu;

    for (const ChurnEpoch &epoch : epochs) {
        params.seed = epoch.seed;
        MemoryMap next = buildScenario(epoch.scenario, params);

        ChurnResult::EpochStats es;
        es.scenario = scenarioName(epoch.scenario);

        // OS work at the boundary: rebuild the table, re-run the
        // distance controller, sweep if it changed, shoot down.
        if (is_anchor) {
            es.distance_changed =
                controller.epoch(next.contiguityHistogram());
            map = std::move(next);
            table = buildPageTable(map, true);
            es.sweep_touched = table.sweepAnchors(
                map, AnchorDist::fromPages(controller.distance()));
            es.anchor_distance = controller.distance();
            if (es.distance_changed)
                ++result.distance_changes;
        } else {
            map = std::move(next);
            table = buildPageTable(map, row.layout == TableLayout::Thp);
        }

        if (!mmu) {
            mmu = buildSchemeMmu(options.mmu, table, map, scheme,
                                 controller.distance());
        } else {
            ProcessContext ctx;
            ctx.table = &table;
            ctx.map = &map;
            ctx.anchor_distance =
                is_anchor ? AnchorDist::fromPages(controller.distance())
                          : AnchorDist{};
            mmu->switchProcess(ctx);
        }

        const std::uint64_t misses_before = mmu->stats().page_walks;
        MemAccess access;
        for (std::uint64_t i = 0; i < epoch.accesses; ++i) {
            trace.next(access);
            mmu->translate(access.vaddr);
        }
        es.accesses = epoch.accesses;
        es.misses = mmu->stats().page_walks - misses_before;
        result.epochs.push_back(es);
    }
    result.stats = mmu->stats();
    return result;
}

} // namespace atlb
