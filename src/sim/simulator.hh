/**
 * @file
 * Trace-driven TLB simulator: streams accesses through an MMU and
 * derives the paper's metrics (relative misses, hit-type fractions,
 * translation CPI).
 */

#ifndef ANCHORTLB_SIM_SIMULATOR_HH
#define ANCHORTLB_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "mmu/mmu.hh"
#include "trace/access.hh"

namespace atlb
{

/** Everything measured by one simulation run. */
struct SimResult
{
    std::string workload;
    std::string scenario;
    std::string scheme;
    std::uint64_t anchor_distance = 0; //!< 0 for non-anchor schemes

    MmuStats stats;
    /** Estimated instruction count (accesses / mem_per_instr). */
    double instructions = 0.0;
    /** Cycle attribution (derived from per-bucket hit counts). */
    Cycles l2_hit_cycles = 0;
    Cycles coalesced_cycles = 0;
    Cycles walk_cycles = 0;

    /** Paper's "TLB misses": page walks. */
    std::uint64_t misses() const { return stats.page_walks; }

    /** Translation cycles added per instruction (paper Figs. 10-11). */
    double translationCpi() const
    {
        return instructions > 0.0
                   ? static_cast<double>(stats.translation_cycles) /
                         instructions
                   : 0.0;
    }

    double cpiL2() const
    {
        return instructions > 0.0
                   ? static_cast<double>(l2_hit_cycles) / instructions
                   : 0.0;
    }
    double cpiCoalesced() const
    {
        return instructions > 0.0
                   ? static_cast<double>(coalesced_cycles) / instructions
                   : 0.0;
    }
    double cpiWalk() const
    {
        return instructions > 0.0
                   ? static_cast<double>(walk_cycles) / instructions
                   : 0.0;
    }

    /** Fractions of L2-level accesses, for paper Table 5. */
    double regularHitFraction() const;
    double coalescedHitFraction() const;
    double l2MissFraction() const;
};

/**
 * How the replay loop feeds the MMU. The two modes are
 * counter-identical (tests/sim/test_batch_kernel.cc pins it); Batch is
 * the production path, PerAccess the reference it is verified against
 * and the slow side of bench_hotpath's ratio.
 */
enum class TranslateMode : std::uint8_t
{
    Batch,     //!< one translateBatch call per 1024-access buffer
    PerAccess, //!< one translate() call per access
};

/**
 * Run @p trace through @p mmu to completion.
 *
 * @param mem_per_instr data accesses per instruction (CPI conversion)
 * @param mode          batch kernel (default) or per-access reference
 * @param batch_stats   if non-null, accumulates the replay's
 *                      BatchStats (batch mode only; untouched in
 *                      per-access mode)
 */
SimResult runSimulation(Mmu &mmu, TraceSource &trace, double mem_per_instr,
                        TranslateMode mode = TranslateMode::Batch,
                        BatchStats *batch_stats = nullptr);

} // namespace atlb

#endif // ANCHORTLB_SIM_SIMULATOR_HH
