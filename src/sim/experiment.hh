/**
 * @file
 * Experiment context: builds and caches mappings, page tables and
 * workload traces, and runs (workload x scenario x scheme) cells.
 *
 * This is the top-level API the bench binaries and examples use; one
 * cell corresponds to one bar of a paper figure. Page tables for big
 * footprints are large, so the context keeps a small LRU cache of
 * per-(workload, scenario) state (capacity cache_pairs, revisited
 * pairs move to the back) — iterate workloads in the outer loop for
 * locality.
 */

#ifndef ANCHORTLB_SIM_EXPERIMENT_HH
#define ANCHORTLB_SIM_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "mmu/mmu_config.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"
#include "os/scenario.hh"
#include "sim/scheme.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace atlb
{

/** Global knobs for an experiment campaign. */
struct SimOptions
{
    /** Accesses simulated per cell. */
    std::uint64_t accesses = 2'000'000;
    /** Base RNG seed (mapping and trace seeds derive from it). */
    std::uint64_t seed = 42;
    /**
     * Footprint scale factor (1.0 = paper-sized working sets). Smaller
     * values shrink memory and runtime for quick runs; relative scheme
     * behaviour is preserved as long as footprints stay well above the
     * L2 TLB reach.
     */
    double footprint_scale = 1.0;
    /**
     * Worker threads for the sweep engine and the AnchorIdeal distance
     * sweep. 1 (the default here) is the serial path; fromEnv() sets
     * ANCHORTLB_THREADS, falling back to the hardware concurrency.
     * Results are identical for every thread count — all randomness is
     * derived from per-cell seeds.
     */
    unsigned threads = 1;
    /**
     * Capacity of ExperimentContext's per-(workload, scenario) state
     * cache, in pairs (LRU eviction). Page tables dominate the cost:
     * budget roughly tens of MB per cached pair at full footprints.
     * Sweep drivers that know their run shape call
     * ExperimentContext::sizeCacheForPairs() to fit this to the number
     * of distinct pairs; an explicit ANCHORTLB_CACHE_PAIRS clamps it.
     */
    std::size_t cache_pairs = 2;
    /** True when ANCHORTLB_CACHE_PAIRS was set explicitly (clamp). */
    bool cache_pairs_from_env = false;
    /**
     * Replay-loop flavour. Batch (the default) drives each scheme's
     * devirtualized translateBatch kernel; PerAccess is the
     * counter-identical reference loop, selectable with
     * ANCHORTLB_PER_ACCESS for differential runs (the golden harness
     * pins both spellings to the same bytes).
     */
    TranslateMode translate_mode = TranslateMode::Batch;
    /** Hardware parameters (paper Table 3 defaults). */
    MmuConfig mmu;

    /** Read accesses/scale/threads overrides from ANCHORTLB_* env vars. */
    static SimOptions fromEnv();
};

/**
 * Whether @p scale is a usable SimOptions::footprint_scale, i.e. in
 * (0, 1]. Written as a conjunction of two comparisons so that NaN,
 * which fails every comparison, is rejected. The one check for every
 * source of the knob: the environment, the CLI and the wire.
 */
constexpr bool validFootprintScale(double scale)
{
    return scale > 0.0 && scale <= 1.0;
}

/**
 * Footprint-scaled catalog spec for @p workload (fatal if unknown).
 *
 * A name of the form "trace:<path>" instead names a trace-driven
 * workload: @p path must be a binary trace file (ATLBTRC1/2) whose
 * vaddrs all fall inside the simulated region starting at traceBaseVa()
 * (import with --rebase to guarantee this). Its footprint is taken from
 * the trace's vaddr bounds — footprint_scale deliberately does not
 * apply, since the addresses are fixed by the capture.
 */
WorkloadSpec scaledWorkloadSpec(const SimOptions &options,
                                const std::string &workload);

/**
 * Accesses one cell of @p spec actually simulates: options.accesses,
 * clamped to the trace length for trace-driven workloads (a capture
 * cannot be extended).
 */
std::uint64_t cellAccesses(const SimOptions &options,
                           const WorkloadSpec &spec);

/**
 * The access stream of one cell: a PatternTrace for synthetic specs, a
 * clamped file reader for trace-driven ones.
 */
std::unique_ptr<TraceSource> makeCellTrace(const SimOptions &options,
                                           const WorkloadSpec &spec,
                                           std::uint64_t num_accesses);

/** Scenario-construction parameters for @p spec under @p options. */
ScenarioParams scenarioParamsFor(const SimOptions &options,
                                 const WorkloadSpec &spec);

/** VA where every simulated workload's footprint is mapped. */
constexpr VirtAddr traceBaseVa()
{
    return vaOf(Vpn{0x7f0000000ULL});
}

/**
 * Seed of @p spec's access stream under @p options: every run of a cell
 * (serial, parallel sweep, or served) derives its trace from this one
 * value, which is what makes the execution paths comparable.
 */
std::uint64_t traceSeedFor(const SimOptions &options,
                           const WorkloadSpec &spec);

/**
 * Construct @p scheme's MMU over @p table. @p map is only read by RMM
 * (its range table); @p anchor_distance only by the anchor schemes.
 */
std::unique_ptr<Mmu> buildSchemeMmu(const MmuConfig &config,
                                    const PageTable &table,
                                    const MemoryMap &map, Scheme scheme,
                                    std::uint64_t anchor_distance);

/**
 * Run one fully specified cell: build @p scheme's MMU over the prebuilt
 * @p table and stream the workload's trace through it. @p table must
 * match the scheme's table flavour (plain 4KB for Base/Cluster, THP for
 * THP/Cluster-2MB/RMM, anchor-swept at @p anchor_distance for the
 * anchor schemes). This is the shared cell body of both the serial
 * ExperimentContext path and the parallel sweep engine, which is what
 * makes the two bit-identical.
 */
SimResult runSchemeCell(const SimOptions &options, const WorkloadSpec &spec,
                        ScenarioKind scenario, const MemoryMap &map,
                        const PageTable &table, Scheme scheme,
                        std::uint64_t anchor_distance);

/**
 * Immutable expensive state for one (workload, scenario) pair, safe to
 * share read-only across threads: the footprint-scaled spec, the
 * scenario mapping and its dynamically selected anchor distance are
 * built eagerly by the constructor; the plain/THP page-table flavours
 * are built lazily on first use (std::call_once, so concurrent readers
 * share one build). Anchor-swept tables are deliberately absent — the
 * sweep mutates the table, so anchor jobs build a private one from
 * map().
 *
 * Construction reads exactly options.seed and options.footprint_scale
 * (via scaledWorkloadSpec / scenarioParamsFor); callers that cache pair
 * state across option sets key on those two fields plus the pair.
 *
 * This is the pair-state flavour the parallel sweep engine and the
 * serve-side cell scheduler share; ExperimentContext keeps its own
 * single-threaded incremental variant (PairState) for the serial path.
 */
class CellPairState
{
  public:
    CellPairState(const SimOptions &options, std::string workload,
                  ScenarioKind scenario);

    const std::string &workload() const { return workload_; }
    ScenarioKind scenario() const { return scenario_; }
    const WorkloadSpec &spec() const { return spec_; }
    const MemoryMap &map() const { return map_; }

    /** Distance Algorithm 1 selects for this pair's mapping. */
    std::uint64_t dynamicDistance() const { return dynamic_distance_; }

    /** All-4KB table (Base / Cluster); built on first call. */
    const PageTable &plainTable() const;

    /** THP table (THP / Cluster-2MB / RMM); built on first call. */
    const PageTable &thpTable() const;

  private:
    std::string workload_;
    ScenarioKind scenario_ = ScenarioKind::Demand;
    WorkloadSpec spec_;
    MemoryMap map_;
    std::uint64_t dynamic_distance_ = 0;
    mutable std::once_flag plain_once_;
    mutable std::optional<PageTable> plain_table_;
    mutable std::once_flag thp_once_;
    mutable std::optional<PageTable> thp_table_;
};

/**
 * Content address of one experiment cell: the canonical FNV-1a digest
 * of every input that shapes its SimResult (cellKeyFor). Equal keys
 * mean byte-identical results; a strong type so a key can never be
 * confused with a raw counter or address.
 */
class CellKey
{
  public:
    constexpr CellKey() = default;
    explicit constexpr CellKey(std::uint64_t digest) : digest_(digest) {}

    constexpr std::uint64_t raw() const { return digest_; }

    friend constexpr bool operator==(const CellKey &, const CellKey &) =
        default;
    friend constexpr auto operator<=>(const CellKey &, const CellKey &) =
        default;

  private:
    std::uint64_t digest_ = 0;
};

/** The coordinates of one cell, as ExperimentContext::run takes them. */
struct CellSpec
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    Scheme scheme = Scheme::Base;
    /** Anchor distance override; only meaningful for Scheme::Anchor. */
    std::optional<std::uint64_t> distance_override;
};

/**
 * Content hash of a trace-driven workload's trace file; 0 for synthetic
 * workloads (their streams are fully determined by name + options).
 * Fatal when the named trace file cannot be read — a cell key computed
 * from a missing input would silently alias.
 */
std::uint64_t traceContentHash(const std::string &workload);

/**
 * Canonical content address of the cell (@p options, @p spec): a fixed
 * field sequence folded through FNV-1a (see DESIGN.md section 13).
 * Hashes exactly the inputs that shape the result, in this order: the
 * key format version (2), workload, scenario, scheme, the effective
 * distance override, the trace content hash for trace-driven
 * workloads, the accesses/seed/footprint_scale knobs, and every
 * MmuConfig field. Deliberately excluded: threads, cache_pairs and
 * translate_mode, which the test suite pins to byte-identical results.
 * A stray distance_override on a non-Anchor scheme is canonicalized
 * away (run() ignores it there).
 */
CellKey cellKeyFor(const SimOptions &options, const CellSpec &spec,
                   std::uint64_t trace_content_hash = 0);

/**
 * A persistent (or otherwise external) cache of finished cells, keyed
 * by content address. ExperimentContext consults one when attached via
 * setResultCache(); serve/result_store.hh implements it on disk.
 */
class ResultCache
{
  public:
    virtual ~ResultCache() = default;

    /** The stored result for @p key, if any. */
    virtual std::optional<SimResult> lookup(CellKey key) = 0;

    /** Record @p result as the cell @p key's value. */
    virtual void store(CellKey key, const SimResult &result) = 0;
};

/** Runs experiment cells with caching of expensive per-pair state. */
class ExperimentContext
{
  public:
    explicit ExperimentContext(SimOptions options = SimOptions::fromEnv());
    ~ExperimentContext();

    ExperimentContext(const ExperimentContext &) = delete;
    ExperimentContext &operator=(const ExperimentContext &) = delete;

    /**
     * Run one cell. For Scheme::Anchor the distance comes from the
     * dynamic selection algorithm unless @p distance_override is given;
     * for Scheme::AnchorIdeal every candidate distance is swept and the
     * best (fewest misses) run is returned.
     */
    SimResult run(const std::string &workload, ScenarioKind scenario,
                  Scheme scheme,
                  std::optional<std::uint64_t> distance_override = {});

    /**
     * Attach (or detach, with nullptr) an external result cache. Borrowed:
     * @p cache must outlive the context or the next setResultCache().
     * While attached, run() answers from the cache when it holds the
     * cell's key and stores every freshly computed result back.
     */
    void setResultCache(ResultCache *cache) { result_cache_ = cache; }

    /**
     * The content address run() would use for this cell under the
     * context's options. Trace content hashes are memoized per workload
     * name, so sweeps over trace-driven workloads hash each file once.
     */
    CellKey cellKey(const std::string &workload, ScenarioKind scenario,
                    Scheme scheme,
                    std::optional<std::uint64_t> distance_override = {});

    /** Distance Algorithm 1 selects for this workload/scenario pair. */
    std::uint64_t dynamicDistance(const std::string &workload,
                                  ScenarioKind scenario);

    /** The (cached) mapping for a pair, for inspection. */
    const MemoryMap &mapping(const std::string &workload,
                             ScenarioKind scenario);

    const SimOptions &options() const { return options_; }

    /** Pair-cache effectiveness counters for the sweep summary. */
    struct CacheCounters
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        /** Attached-ResultCache consultations by run(). */
        std::uint64_t result_lookups = 0;
        /** ... of which answered without simulating. */
        std::uint64_t result_hits = 0;

        double hitRate() const
        {
            return lookups ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
        }
    };

    const CacheCounters &cacheCounters() const { return counters_; }

    /** Current pair-cache capacity (after any run-shape sizing). */
    std::size_t cacheCapacity() const { return options_.cache_pairs; }

    /**
     * Fit the pair cache to a sweep that touches @p distinct_pairs
     * distinct (workload, scenario) pairs, so revisiting schemes of a
     * pair always hits. An explicit ANCHORTLB_CACHE_PAIRS acts as an
     * upper clamp (the user is budgeting memory); without it the
     * capacity grows to the run shape and never shrinks below the
     * built-in default.
     */
    void sizeCacheForPairs(std::size_t distinct_pairs);

    /** Drop all cached state (frees page-table memory). */
    void clearCache();

  private:
    struct PairState;

    SimOptions options_;
    /** LRU order: front = coldest, back = most recently used. */
    std::deque<std::unique_ptr<PairState>> cache_;
    CacheCounters counters_;
    ResultCache *result_cache_ = nullptr; //!< borrowed, may be null
    /** Per-workload trace content hashes (files hashed once). */
    std::unordered_map<std::string, std::uint64_t> trace_hashes_;

    std::uint64_t traceHashFor(const std::string &workload);
    PairState &pairState(const std::string &workload,
                         ScenarioKind scenario);
    SimResult runScheme(PairState &state, Scheme scheme,
                        std::uint64_t anchor_distance);
    SimResult runIdealSweep(PairState &state);
};

/**
 * Geometric-free mean helper used by the figure benches: the paper
 * reports arithmetic means of relative misses; relative(a, base) guards
 * the base==0 corner (no misses anywhere -> ratio 1).
 */
double relativeMisses(std::uint64_t scheme_misses,
                      std::uint64_t base_misses);

} // namespace atlb

#endif // ANCHORTLB_SIM_EXPERIMENT_HH
