/**
 * @file
 * Experiment cells: the per-cell inputs (workload spec, scenario
 * mapping, access stream, scheme MMU), the pair state cells share, the
 * content address of a cell, and ExperimentContext, the synchronous
 * facade that runs cells through the cell engine
 * (sim/parallel_runner.hh).
 *
 * This is the top-level API the bench binaries, the examples and the
 * CLI use; one cell corresponds to one bar of a paper figure.
 */

#ifndef ANCHORTLB_SIM_EXPERIMENT_HH
#define ANCHORTLB_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
     * Workers of the CellScheduler an ExperimentContext owns (and of
     * the one `anchortlb serve` runs). 1 (the default here) runs one
     * cell at a time; fromEnv() sets ANCHORTLB_THREADS, falling back to
     * the hardware concurrency. A cell is one job on one worker, so
     * results are identical for every thread count — all randomness is
     * derived from per-cell seeds.
     */
    unsigned threads = 1;
    /**
     * Replay-loop flavour. Batch (the default) drives
     * Mmu::translateBatch; PerAccess is the counter-identical
     * translate() loop it is verified against. The batch-equivalence
     * tests are its only setters; bench/e2e's traced pass forwards the
     * default, and the field stays only until that mirror of the
     * engine goes. No environment variable selects it.
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
 * Footprint-scaled catalog spec for @p workload, or nullopt with the
 * reason it cannot run in @p error. The one workload check: the CLI and
 * the engine reach it through scaledWorkloadSpec, and `anchortlb serve`
 * turns its reason into a cell error.
 *
 * A name of the form "trace:<path>" instead names a trace-driven
 * workload: @p path must be a non-empty binary trace file (ATLBTRC1/2)
 * whose vaddrs all fall inside the simulated region starting at
 * traceBaseVa() (import with --rebase to guarantee this), spanning at
 * most 128GB. Its footprint is taken from the trace's vaddr bounds —
 * footprint_scale deliberately does not apply, since the addresses are
 * fixed by the capture. A file whose header, ATLBTRC2 trailer or block
 * index does not hold up is refused here too; only a corrupt ATLBTRC2
 * block body is still fatal, when the decoder reaches it.
 */
std::optional<WorkloadSpec> tryScaledWorkloadSpec(const SimOptions &options,
                                                  const std::string &workload,
                                                  std::string &error);

/** tryScaledWorkloadSpec, fatal with its reason if @p workload cannot run. */
WorkloadSpec scaledWorkloadSpec(const SimOptions &options,
                                const std::string &workload);

/**
 * scaledWorkloadSpec for catalog workloads only: any other name,
 * "trace:<path>" included, is fatal as an unknown workload. For the
 * runners that generate their own streams (multiprocess, churn).
 */
WorkloadSpec scaledCatalogSpec(const SimOptions &options,
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

/**
 * Scenario-construction parameters for @p spec under @p options: the
 * spec's footprint and mapping fields, and a mapping seed derived from
 * options.seed and the workload name (runners that remap per process
 * or per epoch overwrite it).
 */
ScenarioParams scenarioParamsFor(const SimOptions &options,
                                 const WorkloadSpec &spec);

/** VA where every simulated workload's footprint is mapped. */
constexpr VirtAddr traceBaseVa()
{
    return vaOf(Vpn{0x7f0000000ULL});
}

/**
 * Seed of @p spec's access stream under @p options: every run of a cell
 * (at any worker count, or served) derives its trace from this one
 * value, which is what makes the runs comparable.
 */
std::uint64_t traceSeedFor(const SimOptions &options,
                           const WorkloadSpec &spec);

/**
 * Construct @p scheme's MMU over @p table: the one place that maps a
 * Scheme to its MMU class. @p map is only read by RMM (its range
 * table); @p anchor_distance only by the anchored schemes.
 */
std::unique_ptr<Mmu> buildSchemeMmu(const MmuConfig &config,
                                    const PageTable &table,
                                    const MemoryMap &map, Scheme scheme,
                                    std::uint64_t anchor_distance);

/**
 * Run one fully specified simulation: build @p scheme's MMU over the
 * prebuilt @p table and stream @p trace through it to exhaustion, or
 * until its page walks reach @p walk_limit (runSimulation; a result
 * stopped there is a prefix, only fit to be discarded).
 * @p table must have the scheme's layout (schemeRow(scheme).layout,
 * anchor-swept at @p anchor_distance for the anchored ones), and
 * @p trace is the cell's stream: makeCellTrace(options, spec,
 * cellAccesses(options, spec)) or a replay of the same accesses, or
 * the file `anchortlb replay` names. runCellJob
 * (sim/parallel_runner.hh) runs every simulation of every cell
 * through it.
 */
SimResult runSchemeCell(const SimOptions &options, const WorkloadSpec &spec,
                        ScenarioKind scenario, const MemoryMap &map,
                        const PageTable &table, Scheme scheme,
                        std::uint64_t anchor_distance, TraceSource &trace,
                        std::uint64_t walk_limit = noWalkLimit);

/**
 * Longest cell stream a CellPairState keeps in memory: 2^18 accesses,
 * 4 MiB of MemAccess records per cached pair. Longer cells stream from
 * makeCellTrace on every simulation, which bounds what the scheduler's
 * pair budget can pin (a 1M-access cell would hold 16 MiB per pair).
 */
constexpr std::uint64_t sharedStreamAccesses = 1ULL << 18;

/**
 * Immutable expensive state for one (workload, scenario) pair, safe to
 * share read-only across threads: the footprint-scaled spec, the
 * scenario mapping and Algorithm 1's ranking of the candidate anchor
 * distances for it (its pick first) are built eagerly by the
 * constructor; the plain/THP page-table flavours
 * and the access stream are built lazily on first use (std::call_once,
 * so concurrent readers share one build). Anchor-swept tables are
 * deliberately absent — the sweep mutates the table, so anchor jobs
 * build a private one from map().
 *
 * Construction reads exactly options.seed and options.footprint_scale
 * (via scaledWorkloadSpec / scenarioParamsFor), plus the trace file's
 * bytes for a trace-driven workload; callers that cache pair state
 * across option sets key on those two fields, the pair and the trace
 * content hash. The stream depends on nothing else: options.accesses
 * only picks how long a prefix of it a cell simulates.
 *
 * This is the only pair state: the CellScheduler caches it for every
 * cell, whether an ExperimentContext or `anchortlb serve` submitted it,
 * and ExperimentContext::pair() hands it out for inspection.
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

    /**
     * Every candidateDistances() entry, cheapest first by Algorithm 1's
     * EntryCount cost for this pair's mapping. Ties keep ascending
     * distance, so the first is the distance Algorithm 1 selects. The
     * AnchorIdeal sweep (runCellJob) tries the candidates in this
     * order.
     */
    const std::vector<std::uint64_t> &distancesByCost() const
    {
        return distances_by_cost_;
    }

    /** Distance Algorithm 1 selects for this pair's mapping. */
    std::uint64_t dynamicDistance() const
    {
        return distances_by_cost_.front();
    }

    /** All-4KB table (Base / Cluster); built on first call. */
    const PageTable &plainTable() const;

    /** THP table (THP / Cluster-2MB / RMM); built on first call. */
    const PageTable &thpTable() const;

    /**
     * The stream of one simulation of this pair's cells under
     * @p options (which must carry the seed the pair was built with):
     * its first n = cellAccesses(options, spec()) accesses. The first
     * call with n <= sharedStreamAccesses generates n accesses and
     * keeps them; every call whose n fits in the kept stream gets a
     * block-copy replay of its first n, and any other call a fresh
     * makeCellTrace source. The two are the same accesses, because the
     * first n of a PatternTrace or of a clamped trace file do not
     * depend on the stream's length.
     */
    std::unique_ptr<TraceSource> cellTrace(const SimOptions &options) const;

  private:
    std::string workload_;
    ScenarioKind scenario_ = ScenarioKind::Demand;
    std::uint64_t seed_ = 0;
    WorkloadSpec spec_;
    MemoryMap map_;
    std::vector<std::uint64_t> distances_by_cost_;
    mutable std::once_flag plain_once_;
    mutable std::optional<PageTable> plain_table_;
    mutable std::once_flag thp_once_;
    mutable std::optional<PageTable> thp_table_;
    mutable std::once_flag stream_once_;
    mutable std::vector<MemAccess> stream_;
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

/** The coordinates of one cell (a CellJob to the cell engine). */
struct CellSpec
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    Scheme scheme = Scheme::Base;
    /** Anchor distance override; read only if the scheme takesDistance. */
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
 * MmuConfig field. Deliberately excluded: threads and translate_mode,
 * which the test suite pins to byte-identical results.
 * A stray distance_override on a non-Anchor scheme is canonicalized
 * away (run() ignores it there).
 */
CellKey cellKeyFor(const SimOptions &options, const CellSpec &spec,
                   std::uint64_t trace_content_hash = 0);

class CellScheduler;

/**
 * Runs experiment cells: a thin synchronous facade over one
 * CellScheduler (sim/parallel_runner.hh) it owns, with options.threads
 * workers and defaultPairBudget, the pair-state budget `anchortlb
 * serve --pairs` defaults to. Every cell is one runCellJob on a worker
 * and every pair state is the scheduler's, so a context, the server and
 * the test reference (runCellJob on a fresh CellPairState) all produce
 * the same bytes. One calling thread per context. A context submits its
 * jobs without a trace content hash, so it takes a trace file to be
 * fixed while it lives; `anchortlb serve`, which outlives rewrites,
 * keys its pairs on each request's hashes. Finished cells are stored
 * only by the server (SweepServer, serve/server.hh).
 */
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
     * for Scheme::AnchorIdeal the result is the candidate distance with
     * the fewest misses, the smallest such distance on a tie. Its sweep
     * stops each losing candidate as soon as its walks show it cannot
     * win (runCellJob), and runs the winner to the end.
     */
    SimResult run(const std::string &workload, ScenarioKind scenario,
                  Scheme scheme,
                  std::optional<std::uint64_t> distance_override = {});

    /**
     * Run @p cells as one batch across the scheduler's workers and
     * return their results in @p cells order. AnchorIdeal cells (one
     * simulation per candidate distance each) are submitted first, so
     * the longest jobs start earliest.
     */
    std::vector<SimResult> runCells(const std::vector<CellSpec> &cells);

    /**
     * The pair state cells of (@p workload, @p scenario) run against:
     * the mapping, its Algorithm 1 distance and the shared page tables.
     * Taken from (or added to) the scheduler's pair cache.
     */
    std::shared_ptr<const CellPairState> pair(const std::string &workload,
                                              ScenarioKind scenario);

    const SimOptions &options() const { return options_; }

    /** The scheduler every cell runs on (pair builds and reuses). */
    const CellScheduler &scheduler() const { return *scheduler_; }

  private:
    SimOptions options_;
    std::unique_ptr<CellScheduler> scheduler_;
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
