#include "experiment.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "ingest/trace_open.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/parallel_runner.hh"

namespace atlb
{

SimOptions
SimOptions::fromEnv()
{
    SimOptions opts;
    opts.accesses = envU64("ANCHORTLB_ACCESSES", opts.accesses);
    opts.footprint_scale =
        envDouble("ANCHORTLB_SCALE", opts.footprint_scale);
    opts.seed = envU64("ANCHORTLB_SEED", opts.seed);
    opts.threads = configuredThreadCount();
    if (opts.accesses == 0)
        ATLB_FATAL("ANCHORTLB_ACCESSES must be positive");
    if (!validFootprintScale(opts.footprint_scale))
        ATLB_FATAL("ANCHORTLB_SCALE must be in (0, 1]");
    return opts;
}

namespace
{

/** Workload-name prefix selecting a trace-driven workload. */
constexpr const char *traceWorkloadPrefix = "trace:";

/**
 * Sanity cap on a trace-driven footprint (pages): a capture whose vaddr
 * span exceeds this was almost certainly imported without rebasing.
 */
constexpr std::uint64_t maxTraceFootprintPages = 1ULL << 25; // 128GB

std::optional<WorkloadSpec>
traceWorkloadSpec(const std::string &workload, const std::string &path,
                  std::string &error)
{
    const std::optional<TraceFileInfo> info =
        tryInspectTraceFile(path, error);
    if (!info)
        return std::nullopt;
    if (info->accesses == 0) {
        error = atlb::format("trace '{}' is empty; nothing to simulate",
                             path);
        return std::nullopt;
    }
    if (info->min_vaddr < traceBaseVa().raw()) {
        error = atlb::format("trace '{}' touches vaddr {} below the "
                             "simulated region base {}; re-import it "
                             "with --rebase",
                             path, info->min_vaddr, traceBaseVa());
        return std::nullopt;
    }
    WorkloadSpec spec;
    spec.name = workload;
    spec.trace_path = path;
    spec.trace_accesses = info->accesses;
    spec.footprint_bytes = info->max_vaddr + 1 - traceBaseVa().raw();
    if (spec.footprintPages() > maxTraceFootprintPages) {
        error = atlb::format("trace '{}' spans {} pages from the region "
                             "base (cap {}); re-import it with --rebase "
                             "to compact the address range",
                             path, spec.footprintPages(),
                             maxTraceFootprintPages);
        return std::nullopt;
    }
    return spec;
}

} // namespace

std::uint64_t
traceContentHash(const std::string &workload)
{
    if (workload.rfind(traceWorkloadPrefix, 0) != 0)
        return 0;
    const std::string path =
        workload.substr(std::strlen(traceWorkloadPrefix));
    std::uint64_t digest = 0;
    if (!fnv1a64File(path, digest))
        ATLB_FATAL("cannot read trace '{}' to content-hash it", path);
    return digest;
}

CellKey
cellKeyFor(const SimOptions &options, const CellSpec &spec,
           std::uint64_t trace_content_hash)
{
    // A cell consults its distance override only when its scheme takes
    // a distance; canonicalize so a stray override on another scheme
    // cannot split one cell into two keys.
    const bool overridden = schemeRow(spec.scheme).takesDistance() &&
                            spec.distance_override.has_value();

    Fnv1a h;
    h.addU64(2) // key format version: bump on any field change below
        .addString(spec.workload)
        .addString(scenarioName(spec.scenario))
        .addString(schemeName(spec.scheme))
        .addBool(overridden)
        .addU64(overridden ? *spec.distance_override : 0)
        .addU64(trace_content_hash);

    // The SimOptions knobs that shape result bytes. threads and
    // translate_mode are deliberately absent: the test suite pins them
    // to byte-identical results.
    h.addU64(options.accesses)
        .addU64(options.seed)
        .addDouble(options.footprint_scale);

    // Every MmuConfig field, declaration order. Keep in sync with
    // mmu_config.hh: a new field must be folded here (and the version
    // above bumped if its default changes existing cells' meaning).
    const MmuConfig &m = options.mmu;
    h.addU64(m.l1_4k_entries)
        .addU64(m.l1_4k_ways)
        .addU64(m.l1_2m_entries)
        .addU64(m.l1_2m_ways)
        .addU64(m.l2_entries)
        .addU64(m.l2_ways)
        .addU64(m.l2_1g_entries)
        .addU64(m.l2_1g_ways)
        .addU64(m.cluster_regular_entries)
        .addU64(m.cluster_regular_ways)
        .addU64(m.cluster_entries)
        .addU64(m.cluster_ways)
        .addU64(m.cluster_span)
        .addU64(m.colt_fa_entries)
        .addU64(m.colt_fa_max_pages)
        .addU64(m.colt_fa_min_pages)
        .addU64(m.range_entries)
        .addU64(m.rmm_min_range_pages)
        .addU64(m.l2_hit_cycles)
        .addU64(m.coalesced_hit_cycles)
        .addU64(m.walk_cycles)
        .addBool(m.pwc_enabled)
        .addU64(m.pwc_pml4e_entries)
        .addU64(m.pwc_pdpte_entries)
        .addU64(m.pwc_pde_entries)
        .addU64(m.pwc_mem_ref_cycles)
        .addU64(m.max_contiguity)
        .addU64(m.nested_ref_cycles)
        .addU64(m.shootdown_initiator_cycles)
        .addU64(m.shootdown_responder_cycles)
        .addU64(m.shootdown_page_cycles)
        .addU64(m.shootdown_full_flush_pages);

    return CellKey{h.digest()};
}

std::optional<WorkloadSpec>
tryScaledWorkloadSpec(const SimOptions &options, const std::string &workload,
                      std::string &error)
{
    if (workload.rfind(traceWorkloadPrefix, 0) == 0) {
        // Trace-driven: footprint comes from the capture's own vaddr
        // bounds, so footprint_scale does not apply.
        return traceWorkloadSpec(
            workload, workload.substr(std::strlen(traceWorkloadPrefix)),
            error);
    }
    for (const WorkloadSpec &entry : workloadCatalog()) {
        if (entry.name != workload)
            continue;
        WorkloadSpec spec = entry;
        spec.footprint_bytes = static_cast<std::uint64_t>(
            static_cast<double>(spec.footprint_bytes) *
            options.footprint_scale);
        if (spec.footprint_bytes < pageBytes)
            spec.footprint_bytes = pageBytes;
        return spec;
    }
    error = atlb::format("unknown workload '{}'", workload);
    return std::nullopt;
}

WorkloadSpec
scaledWorkloadSpec(const SimOptions &options, const std::string &workload)
{
    std::string error;
    std::optional<WorkloadSpec> spec =
        tryScaledWorkloadSpec(options, workload, error);
    if (!spec)
        ATLB_FATAL("{}", error);
    return *std::move(spec);
}

WorkloadSpec
scaledCatalogSpec(const SimOptions &options, const std::string &workload)
{
    if (workload.rfind(traceWorkloadPrefix, 0) == 0)
        ATLB_FATAL("unknown workload '{}'", workload);
    return scaledWorkloadSpec(options, workload);
}

ScenarioParams
scenarioParamsFor(const SimOptions &options, const WorkloadSpec &spec)
{
    ScenarioParams p;
    p.footprint_pages = spec.footprintPages();
    p.seed = options.seed * 0x9e3779b9ULL + std::hash<std::string>{}(
                                                spec.name);
    p.demand_run_pages = spec.demand_run_pages;
    p.eager_run_pages = spec.eager_run_pages;
    p.demand_churn = spec.demand_churn;
    p.map_tail_run_pages = spec.map_tail_run_pages;
    p.map_tail_fraction = spec.map_tail_fraction;
    return p;
}

std::uint64_t
traceSeedFor(const SimOptions &options, const WorkloadSpec &spec)
{
    return options.seed ^ (std::hash<std::string>{}(spec.name) * 31 + 7);
}

std::uint64_t
cellAccesses(const SimOptions &options, const WorkloadSpec &spec)
{
    if (!spec.traceDriven())
        return options.accesses;
    return std::min(options.accesses, spec.trace_accesses);
}

std::unique_ptr<TraceSource>
makeCellTrace(const SimOptions &options, const WorkloadSpec &spec,
              std::uint64_t num_accesses)
{
    if (spec.traceDriven()) {
        return std::make_unique<ClampedTraceSource>(
            openTraceFile(spec.trace_path), num_accesses);
    }
    return std::make_unique<PatternTrace>(spec, traceBaseVa(),
                                          num_accesses,
                                          traceSeedFor(options, spec));
}

std::unique_ptr<Mmu>
buildSchemeMmu(const MmuConfig &config, const PageTable &table,
               const MemoryMap &map, Scheme scheme,
               std::uint64_t anchor_distance)
{
    switch (scheme) {
      case Scheme::Base:
        return std::make_unique<BaselineMmu>(config, table, "base");
      case Scheme::Thp:
        return std::make_unique<BaselineMmu>(config, table, "thp");
      case Scheme::Cluster:
        return std::make_unique<ClusterMmu>(config, table, false);
      case Scheme::Cluster2MB:
        return std::make_unique<ClusterMmu>(config, table, true);
      case Scheme::Rmm:
        return std::make_unique<RmmMmu>(config, table, map);
      case Scheme::Anchor:
      case Scheme::AnchorIdeal:
        return std::make_unique<AnchorMmu>(
            config, table, AnchorDist::fromPages(anchor_distance));
    }
    ATLB_FATAL("no MMU built for scheme");
}

SimResult
runSchemeCell(const SimOptions &options, const WorkloadSpec &spec,
              ScenarioKind scenario, const MemoryMap &map,
              const PageTable &table, Scheme scheme,
              std::uint64_t anchor_distance, TraceSource &trace,
              std::uint64_t walk_limit)
{
    const std::unique_ptr<Mmu> mmu =
        buildSchemeMmu(options.mmu, table, map, scheme, anchor_distance);

    SimResult res = runSimulation(*mmu, trace, spec.mem_per_instr,
                                  options.translate_mode, nullptr,
                                  walk_limit);
    res.workload = spec.name;
    res.scenario = scenarioName(scenario);
    res.scheme = schemeName(scheme);
    if (schemeRow(scheme).anchored())
        res.anchor_distance = anchor_distance;
    return res;
}

CellPairState::CellPairState(const SimOptions &options,
                             std::string workload, ScenarioKind scenario)
    : workload_(std::move(workload)), scenario_(scenario),
      seed_(options.seed), spec_(scaledWorkloadSpec(options, workload_)),
      map_(buildScenario(scenario_, scenarioParamsFor(options, spec_)))
{
    // Algorithm 1 lists every candidate with its cost in ascending
    // distance order and selects the first cheapest; a stable sort by
    // cost puts that one first and keeps ties in distance order.
    std::vector<std::pair<std::uint64_t, double>> ranked =
        selectAnchorDistance(map_.contiguityHistogram()).candidates;
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto &a, const auto &b) { return a.second < b.second; });
    distances_by_cost_.reserve(ranked.size());
    for (const auto &candidate : ranked)
        distances_by_cost_.push_back(candidate.first);
}

const PageTable &
CellPairState::plainTable() const
{
    std::call_once(plain_once_, [this] {
        plain_table_ = buildPageTable(map_, false);
    });
    return *plain_table_;
}

const PageTable &
CellPairState::thpTable() const
{
    std::call_once(thp_once_, [this] {
        thp_table_ = buildPageTable(map_, true);
    });
    return *thp_table_;
}

std::unique_ptr<TraceSource>
CellPairState::cellTrace(const SimOptions &options) const
{
    ATLB_ASSERT(options.seed == seed_,
                "cell stream requested under another seed than its pair");
    const std::uint64_t n = cellAccesses(options, spec_);
    if (n <= sharedStreamAccesses) {
        std::call_once(stream_once_, [&] {
            const std::unique_ptr<TraceSource> source =
                makeCellTrace(options, spec_, n);
            stream_.resize(n);
            std::size_t got = 0;
            while (got < n) {
                const std::size_t step = source->fill(
                    stream_.data() + got, static_cast<std::size_t>(n - got));
                if (step == 0)
                    break;
                got += step;
            }
            // A trace file rewritten since the spec was read can come
            // up short; keep what it held, so longer cells stream.
            stream_.resize(got);
        });
        if (n <= stream_.size())
            return std::make_unique<ReplayTrace>(stream_.data(), n);
    }
    return makeCellTrace(options, spec_, n);
}

ExperimentContext::ExperimentContext(SimOptions options)
    : options_(options),
      scheduler_(std::make_unique<CellScheduler>(
          options_.threads, defaultQueueCells, defaultPairBudget))
{
}

ExperimentContext::~ExperimentContext() = default;

std::shared_ptr<const CellPairState>
ExperimentContext::pair(const std::string &workload, ScenarioKind scenario)
{
    return scheduler_->pair(options_, workload, scenario);
}

SimResult
ExperimentContext::run(const std::string &workload, ScenarioKind scenario,
                       Scheme scheme,
                       std::optional<std::uint64_t> distance_override)
{
    return runCells({CellSpec{workload, scenario, scheme,
                              distance_override}})
        .front();
}

std::vector<SimResult>
ExperimentContext::runCells(const std::vector<CellSpec> &cells)
{
    // Longest jobs first: a sweeping cell is one simulation per
    // candidate distance.
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_partition(order.begin(), order.end(),
                          [&cells](std::size_t i) {
                              return schemeRow(cells[i].scheme).layout ==
                                     TableLayout::AnchorSweep;
                          });
    std::vector<SimResult> results(cells.size());
    const auto ticket = scheduler_->open(
        options_, [&results](std::size_t index, const SimResult &result,
                             std::uint64_t /*queue_wait_us*/) {
            results[index] = result;
        });
    for (const std::size_t i : order)
        ticket->submit(i, cells[i]);
    ticket->wait();
    return results;
}

double
relativeMisses(std::uint64_t scheme_misses, std::uint64_t base_misses)
{
    if (base_misses == 0)
        return 1.0; // nothing to reduce: report parity
    return static_cast<double>(scheme_misses) /
           static_cast<double>(base_misses);
}

} // namespace atlb
