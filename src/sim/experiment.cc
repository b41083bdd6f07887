#include "experiment.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "ingest/trace_open.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"

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
    opts.cache_pairs_from_env = envPresent("ANCHORTLB_CACHE_PAIRS");
    opts.cache_pairs = static_cast<std::size_t>(
        envU64("ANCHORTLB_CACHE_PAIRS", opts.cache_pairs));
    if (envPresent("ANCHORTLB_PER_ACCESS"))
        opts.translate_mode = TranslateMode::PerAccess;
    if (opts.accesses == 0)
        ATLB_FATAL("ANCHORTLB_ACCESSES must be positive");
    if (!validFootprintScale(opts.footprint_scale))
        ATLB_FATAL("ANCHORTLB_SCALE must be in (0, 1]");
    if (opts.cache_pairs == 0)
        ATLB_FATAL("ANCHORTLB_CACHE_PAIRS must be >= 1");
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

WorkloadSpec
traceWorkloadSpec(const std::string &workload, const std::string &path)
{
    const TraceFileInfo info = inspectTraceFile(path);
    if (info.accesses == 0)
        ATLB_FATAL("trace '{}' is empty; nothing to simulate", path);
    if (info.min_vaddr < traceBaseVa().raw())
        ATLB_FATAL("trace '{}' touches vaddr {} below the simulated "
                   "region base {}; re-import it with --rebase",
                   path, info.min_vaddr, traceBaseVa());
    WorkloadSpec spec;
    spec.name = workload;
    spec.trace_path = path;
    spec.trace_accesses = info.accesses;
    spec.footprint_bytes = info.max_vaddr + 1 - traceBaseVa().raw();
    if (spec.footprintPages() > maxTraceFootprintPages)
        ATLB_FATAL("trace '{}' spans {} pages from the region base "
                   "(cap {}); re-import it with --rebase to compact "
                   "the address range",
                   path, spec.footprintPages(), maxTraceFootprintPages);
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
    // run() consults the distance override only for Scheme::Anchor;
    // canonicalize so a stray override on another scheme cannot split
    // one cell into two keys.
    const bool overridden = spec.scheme == Scheme::Anchor &&
                            spec.distance_override.has_value();

    Fnv1a h;
    h.addU64(2) // key format version: bump on any field change below
        .addString(spec.workload)
        .addString(scenarioName(spec.scenario))
        .addString(schemeName(spec.scheme))
        .addBool(overridden)
        .addU64(overridden ? *spec.distance_override : 0)
        .addU64(trace_content_hash);

    // The SimOptions knobs that shape result bytes. threads,
    // cache_pairs and translate_mode are deliberately absent: the test
    // suite pins them to byte-identical results.
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

WorkloadSpec
scaledWorkloadSpec(const SimOptions &options, const std::string &workload)
{
    if (workload.rfind(traceWorkloadPrefix, 0) == 0) {
        // Trace-driven: footprint comes from the capture's own vaddr
        // bounds, so footprint_scale does not apply.
        return traceWorkloadSpec(
            workload, workload.substr(std::strlen(traceWorkloadPrefix)));
    }
    WorkloadSpec spec = findWorkload(workload);
    spec.footprint_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.footprint_bytes) *
        options.footprint_scale);
    if (spec.footprint_bytes < pageBytes)
        spec.footprint_bytes = pageBytes;
    return spec;
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
              std::uint64_t anchor_distance)
{
    const std::unique_ptr<TraceSource> trace =
        makeCellTrace(options, spec, cellAccesses(options, spec));
    const std::unique_ptr<Mmu> mmu =
        buildSchemeMmu(options.mmu, table, map, scheme, anchor_distance);

    SimResult res = runSimulation(*mmu, *trace, spec.mem_per_instr,
                                  options.translate_mode);
    res.workload = spec.name;
    res.scenario = scenarioName(scenario);
    res.scheme = schemeName(scheme);
    if (scheme == Scheme::Anchor || scheme == Scheme::AnchorIdeal)
        res.anchor_distance = anchor_distance;
    return res;
}

CellPairState::CellPairState(const SimOptions &options,
                             std::string workload, ScenarioKind scenario)
    : workload_(std::move(workload)), scenario_(scenario),
      spec_(scaledWorkloadSpec(options, workload_)),
      map_(buildScenario(scenario_, scenarioParamsFor(options, spec_)))
{
    dynamic_distance_ =
        selectAnchorDistance(map_.contiguityHistogram()).distance;
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

/** Cached expensive state for one (workload, scenario) pair. */
struct ExperimentContext::PairState
{
    std::string workload;
    ScenarioKind scenario;
    WorkloadSpec spec;     //!< footprint already scaled
    MemoryMap map;
    std::uint64_t dynamic_distance = 0;

    // Lazily built page-table variants.
    std::optional<PageTable> plain_table; //!< all-4KB (Base, Cluster)
    std::optional<PageTable> thp_table;   //!< with 2MB leaves
    std::optional<PageTable> anchor_table;
    std::uint64_t anchor_table_distance = 0;
};

ExperimentContext::ExperimentContext(SimOptions options)
    : options_(options)
{
    if (options_.cache_pairs == 0)
        options_.cache_pairs = 1;
}

ExperimentContext::~ExperimentContext() = default;

void
ExperimentContext::clearCache()
{
    cache_.clear();
}

void
ExperimentContext::sizeCacheForPairs(std::size_t distinct_pairs)
{
    std::size_t desired = std::max<std::size_t>(
        {std::size_t{1}, distinct_pairs, options_.cache_pairs});
    if (options_.cache_pairs_from_env) {
        // The user budgeted memory explicitly: never exceed it.
        desired = std::max<std::size_t>(
            1, std::min<std::size_t>(distinct_pairs,
                                     options_.cache_pairs));
    }
    options_.cache_pairs = desired;
    while (cache_.size() > options_.cache_pairs)
        cache_.pop_front();
}

ExperimentContext::PairState &
ExperimentContext::pairState(const std::string &workload,
                             ScenarioKind scenario)
{
    ++counters_.lookups;
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if ((*it)->workload == workload && (*it)->scenario == scenario) {
            ++counters_.hits;
            // LRU: move the hit to the back (most recently used) so
            // revisited pairs survive sweeps over other pairs.
            if (std::next(it) != cache_.end()) {
                auto entry = std::move(*it);
                cache_.erase(it);
                cache_.push_back(std::move(entry));
            }
            return *cache_.back();
        }
    }

    auto state = std::make_unique<PairState>();
    state->workload = workload;
    state->scenario = scenario;
    state->spec = scaledWorkloadSpec(options_, workload);
    state->map = buildScenario(scenario,
                               scenarioParamsFor(options_, state->spec));
    state->dynamic_distance =
        selectAnchorDistance(state->map.contiguityHistogram()).distance;

    cache_.push_back(std::move(state));
    // Page tables are tens of MB for big footprints: bound the number of
    // pairs kept alive (ANCHORTLB_CACHE_PAIRS), evicting the LRU front.
    while (cache_.size() > options_.cache_pairs)
        cache_.pop_front();
    return *cache_.back();
}

const MemoryMap &
ExperimentContext::mapping(const std::string &workload,
                           ScenarioKind scenario)
{
    return pairState(workload, scenario).map;
}

std::uint64_t
ExperimentContext::dynamicDistance(const std::string &workload,
                                   ScenarioKind scenario)
{
    return pairState(workload, scenario).dynamic_distance;
}

SimResult
ExperimentContext::runScheme(PairState &state, Scheme scheme,
                             std::uint64_t anchor_distance)
{
    const PageTable *table = nullptr;
    switch (scheme) {
      case Scheme::Base:
      case Scheme::Cluster:
        if (!state.plain_table)
            state.plain_table = buildPageTable(state.map, false);
        table = &*state.plain_table;
        break;
      case Scheme::Thp:
      case Scheme::Cluster2MB:
      case Scheme::Rmm:
        if (!state.thp_table)
            state.thp_table = buildPageTable(state.map, true);
        table = &*state.thp_table;
        break;
      case Scheme::Anchor:
      case Scheme::AnchorIdeal:
        if (!state.anchor_table) {
            state.anchor_table = buildPageTable(state.map, true);
            state.anchor_table_distance = 0;
        }
        if (state.anchor_table_distance != anchor_distance) {
            state.anchor_table->sweepAnchors(
                state.map, AnchorDist::fromPages(anchor_distance));
            state.anchor_table_distance = anchor_distance;
        }
        table = &*state.anchor_table;
        break;
    }
    ATLB_ASSERT(table, "no page table built for scheme");
    return runSchemeCell(options_, state.spec, state.scenario, state.map,
                         *table, scheme, anchor_distance);
}

SimResult
ExperimentContext::runIdealSweep(PairState &state)
{
    // Oracle: exhaustively sweep every candidate distance, keep the run
    // with the fewest misses (paper's "static ideal"). Candidates are
    // independent cells, so with threads > 1 they run across a pool —
    // each job builds its own anchor-swept table from the shared
    // read-only mapping, and the reduction below walks candidates in
    // their canonical order so ties resolve exactly as the serial loop.
    const std::vector<std::uint64_t> distances = candidateDistances();
    ATLB_ASSERT(!distances.empty(), "no candidate anchor distances");
    std::vector<SimResult> runs(distances.size());

    const unsigned threads = std::min<unsigned>(
        options_.threads, static_cast<unsigned>(distances.size()));
    if (threads > 1) {
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < distances.size(); ++i) {
            pool.submit([this, &state, &distances, &runs, i] {
                const PageTable table = buildAnchorPageTable(
                    state.map, AnchorDist::fromPages(distances[i]));
                runs[i] = runSchemeCell(options_, state.spec,
                                        state.scenario, state.map, table,
                                        Scheme::AnchorIdeal, distances[i]);
            });
        }
        pool.wait();
    } else {
        for (std::size_t i = 0; i < distances.size(); ++i)
            runs[i] = runScheme(state, Scheme::AnchorIdeal, distances[i]);
    }

    std::size_t best = 0;
    std::uint64_t best_misses = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].misses() < best_misses) {
            best_misses = runs[i].misses();
            best = i;
        }
    }
    return runs[best];
}

std::uint64_t
ExperimentContext::traceHashFor(const std::string &workload)
{
    const auto it = trace_hashes_.find(workload);
    if (it != trace_hashes_.end())
        return it->second;
    const std::uint64_t digest = traceContentHash(workload);
    trace_hashes_.emplace(workload, digest);
    return digest;
}

CellKey
ExperimentContext::cellKey(const std::string &workload,
                           ScenarioKind scenario, Scheme scheme,
                           std::optional<std::uint64_t> distance_override)
{
    return cellKeyFor(options_,
                      CellSpec{workload, scenario, scheme,
                               distance_override},
                      traceHashFor(workload));
}

SimResult
ExperimentContext::run(const std::string &workload, ScenarioKind scenario,
                       Scheme scheme,
                       std::optional<std::uint64_t> distance_override)
{
    // An attached result cache is consulted before any expensive state
    // is built: a hit skips mapping/page-table construction entirely.
    CellKey key;
    if (result_cache_) {
        key = cellKey(workload, scenario, scheme, distance_override);
        ++counters_.result_lookups;
        if (std::optional<SimResult> cached = result_cache_->lookup(key)) {
            ++counters_.result_hits;
            return *std::move(cached);
        }
    }

    PairState &state = pairState(workload, scenario);

    SimResult result;
    if (scheme == Scheme::AnchorIdeal) {
        result = runIdealSweep(state);
    } else {
        std::uint64_t distance = 0;
        if (scheme == Scheme::Anchor) {
            distance = distance_override ? *distance_override
                                         : state.dynamic_distance;
        }
        result = runScheme(state, scheme, distance);
    }

    if (result_cache_)
        result_cache_->store(key, result);
    return result;
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
