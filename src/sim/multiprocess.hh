/**
 * @file
 * Multi-process simulation: weighted round-robin scheduling with either
 * TLB flushes or ASID-tagged retention on context switches.
 *
 * The paper's OS discussion (Section 3.3) leans on the fact that the
 * native x86 Linux kernel flushes the TLB on context switches, which is
 * what makes whole-TLB invalidation for anchor-distance changes cheap
 * in comparison. This module makes that cost-benefit analysis runnable
 * from both sides: several processes share one MMU, and each context
 * switch either flushes (SwitchPolicy::Flush, the paper's x86
 * assumption) or retains every entry under its owner's ASID tag
 * (SwitchPolicy::Asid). Retention re-warms instantly but pays for it
 * when mappings change: a remapped address space whose translations
 * survive in the TLB needs an explicit IPI shootdown round, charged
 * through the MmuConfig shootdown cost model. Coverage-oriented schemes
 * refill entire regions with a handful of walks, so their advantage
 * *grows* as the switch quantum shrinks — and shrinks back when
 * retention makes switches free for everyone.
 */

#ifndef ANCHORTLB_SIM_MULTIPROCESS_HH
#define ANCHORTLB_SIM_MULTIPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mmu/mmu.hh"
#include "os/scenario.hh"
#include "sim/experiment.hh"
#include "sim/scheme.hh"

namespace atlb
{

/** One scheduled process. */
struct ProcessSpec
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::MedContig;
};

/** Knobs for a multi-process run. */
struct MultiProcessOptions
{
    /** Total accesses across all processes. */
    std::uint64_t total_accesses = 1'000'000;
    /** Accesses executed per scheduling quantum (weight 1). */
    std::uint64_t quantum_accesses = 50'000;
    /**
     * Scheduling weights, one per process: process i runs
     * quantum_accesses * weights[i] accesses per turn. Empty means
     * every weight is 1 (plain round-robin); otherwise the size must
     * match the process list and every weight must be positive.
     */
    std::vector<unsigned> weights;
    /** Flush-on-switch (default) or ASID-tagged retention. */
    SwitchPolicy policy = SwitchPolicy::Flush;
    /**
     * Remap churn period, in quantum boundaries; 0 disables. Every
     * remap_every_quanta boundaries, the incoming process's mapping is
     * rebuilt (its OS moved its pages) before it runs. Under the flush
     * policy the switch flush disposes of the stale translations for
     * free; under ASID retention the stale entries must be shot down
     * explicitly, which invalidates the process's ASID and charges one
     * shootdown round to the stats.
     */
    std::uint64_t remap_every_quanta = 0;
    /**
     * Cores sharing each address space besides the initiator: the
     * responder count of every shootdown round (see shootdownCost).
     */
    unsigned shared_cores = 1;
    std::uint64_t seed = 42;
    double footprint_scale = 1.0;
    MmuConfig mmu;
};

/** Per-process and aggregate outcome of a multi-process run. */
struct MultiProcessResult
{
    struct PerProcess
    {
        std::string workload;
        std::uint64_t accesses = 0;
        std::uint64_t anchor_distance = 0;
        /** ASID the process runs under (index + 1; 0 never used). */
        std::uint64_t asid = 0;
        /**
         * This process's slice of the aggregate stats: every counter
         * increment of the run lands in exactly one process's window
         * (boundary work — remap shootdowns, the switch itself — is
         * attributed to the incoming process), so the per-process
         * blocks sum to MultiProcessResult::stats exactly.
         */
        MmuStats stats;
    };

    std::vector<PerProcess> processes;
    std::uint64_t context_switches = 0;
    /** Remap-churn epochs that occurred (see remap_every_quanta). */
    std::uint64_t remap_epochs = 0;
    MmuStats stats; //!< aggregate over the whole run

    double
    missesPerKiloAccess() const
    {
        return stats.accesses
                   ? 1000.0 * static_cast<double>(stats.page_walks) /
                         static_cast<double>(stats.accesses)
                   : 0.0;
    }

    /** Fraction of accesses served without a page walk. */
    double
    hitRate() const
    {
        return stats.accesses
                   ? 1.0 - static_cast<double>(stats.page_walks) /
                               static_cast<double>(stats.accesses)
                   : 0.0;
    }

    /**
     * Translation CPI with the shootdown tax folded in: (translation
     * cycles + shootdown cycles) / instructions, at @p mem_per_instr
     * data accesses per instruction. This is the number the switch
     * policies trade against each other — retention removes re-warm
     * walks from the first term and adds IPI rounds to the second.
     */
    double
    chargedCpi(double mem_per_instr = 0.33) const
    {
        if (stats.accesses == 0 || mem_per_instr <= 0.0)
            return 0.0;
        const double instructions =
            static_cast<double>(stats.accesses) / mem_per_instr;
        return (static_cast<double>(stats.translation_cycles) +
                static_cast<double>(stats.shootdown_cycles)) /
               instructions;
    }
};

/**
 * Run @p processes round-robin under @p scheme.
 *
 * Every process gets its own mapping, page table and (for the anchor
 * schemes) dynamically selected distance; the shared MMU is context-
 * switched at each quantum boundary under options.policy, and each
 * quantum is one translateTrace call (the batch kernel). Process i
 * runs as ASID i + 1 so retained entries never alias across address
 * spaces. The access streams are derived only from the seed and the
 * schedule, never from the policy, so flush and ASID runs of the same
 * options translate identical access sequences (the differential
 * harness in tests/sim/test_switch_policy_differential.cc pins this).
 */
MultiProcessResult runMultiProcess(Scheme scheme,
                                   const std::vector<ProcessSpec> &processes,
                                   const MultiProcessOptions &options);

} // namespace atlb

#endif // ANCHORTLB_SIM_MULTIPROCESS_HH
