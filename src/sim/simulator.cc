#include "simulator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace atlb
{

double
SimResult::regularHitFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.l2_regular_hits) /
                    static_cast<double>(l2)
              : 0.0;
}

double
SimResult::coalescedHitFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.coalesced_hits) /
                    static_cast<double>(l2)
              : 0.0;
}

double
SimResult::l2MissFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.page_walks) /
                    static_cast<double>(l2)
              : 0.0;
}

/** Accesses per fill: one virtual fill() and one kernel call each. */
constexpr std::size_t fillAccesses = 1024;

BatchStats
translateTrace(Mmu &mmu, TraceSource &trace, std::uint64_t max_accesses,
               std::uint64_t walk_limit)
{
    // Pull accesses in chunks: one virtual fill() per batch instead of
    // one virtual next() per access keeps the generator's state hot,
    // and the batch kernel takes the whole buffer in one call.
    MemAccess buffer[fillAccesses];
    BatchStats bs;
    while (bs.accesses < max_accesses) {
        const std::size_t n = trace.fill(
            buffer, static_cast<std::size_t>(std::min<std::uint64_t>(
                        fillAccesses, max_accesses - bs.accesses)));
        if (n == 0)
            break;
        mmu.translateBatch(buffer, n, bs);
        if (mmu.stats().page_walks >= walk_limit)
            break;
    }
    return bs;
}

SimResult
runSimulation(Mmu &mmu, TraceSource &trace, double mem_per_instr,
              TranslateMode mode, BatchStats *batch_stats,
              std::uint64_t walk_limit)
{
    ATLB_ASSERT(mem_per_instr > 0.0, "mem_per_instr must be positive");
    if (mode == TranslateMode::Batch) {
        const BatchStats bs =
            translateTrace(mmu, trace, noAccessBound, walk_limit);
        if (batch_stats)
            *batch_stats += bs;
    } else {
        // The same fills, so a walk limit stops both modes at the
        // same access.
        MemAccess buffer[fillAccesses];
        while (const std::size_t n = trace.fill(buffer, fillAccesses)) {
            for (std::size_t i = 0; i < n; ++i)
                mmu.translate(buffer[i].vaddr);
            if (mmu.stats().page_walks >= walk_limit)
                break;
        }
    }

    SimResult res;
    res.scheme = mmu.name();
    res.stats = mmu.stats();
    res.instructions =
        static_cast<double>(res.stats.accesses) / mem_per_instr;
    // Attribute cycles per bucket; the walk bucket absorbs the rest of
    // the exact total (walks include the preceding lookup latency).
    const MmuConfig &cfg = mmu.config();
    res.l2_hit_cycles = res.stats.l2_regular_hits * cfg.l2_hit_cycles;
    res.coalesced_cycles =
        res.stats.coalesced_hits * cfg.coalesced_hit_cycles;
    ATLB_ASSERT(res.stats.translation_cycles >=
                    res.l2_hit_cycles + res.coalesced_cycles,
                "cycle attribution underflow");
    res.walk_cycles = res.stats.translation_cycles - res.l2_hit_cycles -
                      res.coalesced_cycles;
    return res;
}

} // namespace atlb
