/**
 * @file
 * The reference runMultiProcess is checked against: the per-access
 * scheduler it replaced, kept as it was. Each quantum pulls one access
 * at a time with next() and translates it with Mmu::translate(), so the
 * reference also sees every translated frame, which the batch kernel
 * does not return, and hashes each process's frames.
 * SwitchPolicyDifferential compares the engine's result with it field
 * by field, and its flush and ASID hashes with each other.
 */

#ifndef ANCHORTLB_TESTS_SIM_MULTIPROCESS_REFERENCE_HH
#define ANCHORTLB_TESTS_SIM_MULTIPROCESS_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "sim/multiprocess.hh"
#include "trace/workload.hh"

namespace atlb::multiprocess_reference
{

/** The reference's outcome. */
struct Result
{
    /** What runMultiProcess returns for the same arguments. */
    MultiProcessResult run;
    /**
     * FNV-1a hash over each process's translated PPN stream, in access
     * order. Two runs that schedule the same accesses must produce the
     * same hash no matter the switch policy — retained entries may only
     * ever change *where* a translation is found, never what it
     * translates to.
     */
    std::vector<std::uint64_t> ppn_hashes;
};

/** Everything owned per simulated process. */
struct ProcessState
{
    WorkloadSpec spec;
    ScenarioKind scenario = ScenarioKind::MedContig;
    ScenarioParams params;
    Asid asid{};
    MemoryMap map;
    PageTable table;
    AnchorDist anchor_distance{};
    std::unique_ptr<PatternTrace> trace;

    ProcessContext
    context() const
    {
        ProcessContext ctx;
        ctx.table = &table;
        ctx.map = &map;
        ctx.anchor_distance = anchor_distance;
        ctx.asid = asid;
        return ctx;
    }
};

/**
 * (Re)build the process's mapping and derived OS state from
 * state.params. Called once at construction and again at every remap
 * epoch, with the scenario seed bumped in between; the trace is left
 * alone — the workload's access stream is continuous across remaps
 * (that's the point of virtual memory). An AnchorSweep scheme runs as
 * Anchor at Algorithm 1's distance: the oracle sweep has no
 * multi-process analogue.
 */
inline void
buildMapping(ProcessState &state, Scheme scheme)
{
    state.map = buildScenario(state.scenario, state.params);

    const SchemeRow &row = schemeRow(scheme);
    if (row.anchored()) {
        state.anchor_distance = AnchorDist::fromPages(
            selectAnchorDistance(state.map.contiguityHistogram())
                .distance);
        state.table =
            buildAnchorPageTable(state.map, state.anchor_distance);
    } else {
        state.table =
            buildPageTable(state.map, row.layout == TableLayout::Thp);
    }
}

inline ProcessState
buildProcess(Scheme scheme, const ProcessSpec &p,
             const MultiProcessOptions &options, std::uint64_t index)
{
    SimOptions scaled;
    scaled.footprint_scale = options.footprint_scale;
    ProcessState state;
    state.spec = scaledCatalogSpec(scaled, p.workload);
    state.scenario = p.scenario;
    state.asid = Asid{index + 1};
    state.params = scenarioParamsFor(scaled, state.spec);
    state.params.seed = options.seed + 1000 * (index + 1);
    buildMapping(state, scheme);

    state.trace = std::make_unique<PatternTrace>(
        state.spec, vaOf(state.params.va_base),
        ~0ULL, // effectively unbounded; the scheduler decides the length
        options.seed * 977 + index);
    return state;
}

/** Counter-by-counter difference of two snapshots of the same MMU. */
inline MmuStats
statsDelta(const MmuStats &after, const MmuStats &before)
{
    MmuStats d;
    d.accesses = after.accesses - before.accesses;
    d.l1_hits = after.l1_hits - before.l1_hits;
    d.l2_regular_hits = after.l2_regular_hits - before.l2_regular_hits;
    d.coalesced_hits = after.coalesced_hits - before.coalesced_hits;
    d.page_walks = after.page_walks - before.page_walks;
    d.translation_cycles =
        after.translation_cycles - before.translation_cycles;
    d.shootdowns = after.shootdowns - before.shootdowns;
    d.shootdown_cycles = after.shootdown_cycles - before.shootdown_cycles;
    return d;
}

/** runMultiProcess as it was: one translate() per access. */
inline Result
runMultiProcess(Scheme scheme, const std::vector<ProcessSpec> &processes,
                const MultiProcessOptions &options)
{
    ATLB_ASSERT(!processes.empty(), "no processes to schedule");
    ATLB_ASSERT(options.quantum_accesses > 0, "zero quantum");
    ATLB_ASSERT(options.weights.empty() ||
                    options.weights.size() == processes.size(),
                "weight list size {} does not match {} processes",
                options.weights.size(), processes.size());
    for (const unsigned w : options.weights)
        ATLB_ASSERT(w > 0, "zero scheduling weight");

    std::vector<ProcessState> states;
    states.reserve(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i)
        states.push_back(
            buildProcess(scheme, processes[i], options, i));

    std::unique_ptr<Mmu> mmu =
        buildSchemeMmu(options.mmu, states[0].table, states[0].map, scheme,
                       states[0].anchor_distance.pages());
    mmu->setSwitchPolicy(options.policy);
    // Load process 0 before its first quantum — uncounted, it's not a
    // switch. Under ASID retention this is what tags the very first
    // fills; under the flush policy it flushes an empty TLB.
    mmu->switchProcess(states[0].context());

    Result ref;
    MultiProcessResult &result = ref.run;
    result.processes.resize(states.size());
    ref.ppn_hashes.assign(states.size(), 14695981039346656037ULL);
    for (std::size_t i = 0; i < states.size(); ++i) {
        result.processes[i].workload = states[i].spec.name;
        result.processes[i].asid = states[i].asid.raw();
    }

    const auto weightOf = [&options](std::size_t i) {
        return options.weights.empty() ? 1u : options.weights[i];
    };

    std::uint64_t executed = 0;
    std::size_t current = 0;
    std::uint64_t boundaries = 0;
    bool first_quantum = true;
    while (executed < options.total_accesses) {
        // Snapshot spans the boundary work AND the quantum, so every
        // counter increment of the run lands in exactly one process's
        // window and the per-process blocks sum to the aggregate.
        const MmuStats before = mmu->stats();
        if (!first_quantum) {
            current = (current + 1) % states.size();
            ++boundaries;
            bool remapped = false;
            if (options.remap_every_quanta != 0 &&
                boundaries % options.remap_every_quanta == 0) {
                // The incoming process's OS moved its pages while it
                // was descheduled: rebuild its mapping, keeping the
                // access stream.
                states[current].params.seed += 7919;
                buildMapping(states[current], scheme);
                ++result.remap_epochs;
                remapped = true;
                if (options.policy == SwitchPolicy::Asid) {
                    // Retained translations of the remapped space are
                    // stale; shoot them down and charge the IPI round.
                    // The flush policy gets this for free from the
                    // switch flush below.
                    mmu->invalidateAsid(states[current].asid);
                    mmu->chargeShootdown(
                        options.shared_cores,
                        states[current].params.footprint_pages);
                }
            }
            if (states.size() > 1 || remapped) {
                mmu->switchProcess(states[current].context());
                if (states.size() > 1)
                    ++result.context_switches;
            }
        }
        first_quantum = false;
        const std::uint64_t turn = std::min(
            options.quantum_accesses * weightOf(current),
            options.total_accesses - executed);
        MultiProcessResult::PerProcess &proc = result.processes[current];
        std::uint64_t &ppn_hash = ref.ppn_hashes[current];
        MemAccess access;
        for (std::uint64_t i = 0; i < turn; ++i) {
            if (!states[current].trace->next(access))
                break;
            const TranslationResult r = mmu->translate(access.vaddr);
            ppn_hash = (ppn_hash ^ r.ppn.raw()) * 1099511628211ULL;
            ++proc.accesses;
        }
        executed += turn;
        proc.stats += statsDelta(mmu->stats(), before);
    }
    // Record distances last: remap epochs may have re-selected them.
    for (std::size_t i = 0; i < states.size(); ++i)
        result.processes[i].anchor_distance =
            states[i].anchor_distance.pages();
    result.stats = mmu->stats();
    return ref;
}

} // namespace atlb::multiprocess_reference

#endif // ANCHORTLB_TESTS_SIM_MULTIPROCESS_REFERENCE_HH
