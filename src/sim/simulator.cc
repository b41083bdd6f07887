#include "simulator.hh"

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

SimResult
runSimulation(Mmu &mmu, TraceSource &trace, double mem_per_instr,
              TranslateMode mode, BatchStats *batch_stats)
{
    ATLB_ASSERT(mem_per_instr > 0.0, "mem_per_instr must be positive");
    // Pull accesses in chunks: one virtual fill() per batch instead of
    // one virtual next() per access keeps the generator's state hot and
    // lets the translate loop run branch-predictably. Batch mode then
    // hands the whole buffer to the scheme's devirtualized kernel —
    // one virtual translateBatch call per 1024 accesses.
    constexpr std::size_t batch = 1024;
    MemAccess buffer[batch];
    if (mode == TranslateMode::Batch) {
        BatchStats bs;
        while (const std::size_t n = trace.fill(buffer, batch))
            mmu.translateBatch(buffer, n, bs);
        if (batch_stats)
            *batch_stats += bs;
    } else {
        while (const std::size_t n = trace.fill(buffer, batch)) {
            for (std::size_t i = 0; i < n; ++i)
                mmu.translate(buffer[i].vaddr);
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
