#include "rmm_mmu.hh"

#include "common/logging.hh"
#include "os/memory_map.hh"

namespace atlb
{

RmmMmu::RmmMmu(const MmuConfig &config, const PageTable &table,
               const MemoryMap &range_table, std::string name)
    : BaselineMmu(config, table, std::move(name)),
      range_table_(&range_table), range_tlb_(config.range_entries)
{
    registerTlb(range_tlb_);
}

void
RmmMmu::switchProcess(const ProcessContext &ctx)
{
    ATLB_ASSERT(ctx.map, "RMM needs the new process's range table");
    range_table_ = ctx.map;
    BaselineMmu::switchProcess(ctx);
}

TranslationResult
RmmMmu::translateL2(Vpn vpn)
{
    TranslationResult res;
    if (lookupRegular(vpn, res))
        return res;
    if (const RangeEntry *r = range_tlb_.lookup(vpn)) {
        return {r->translate(vpn), config_.coalesced_hit_cycles,
                HitLevel::Coalesced, PageSize::Base4K};
    }

    res = walkPageTable(vpn, config_.coalesced_hit_cycles);
    fillL2(vpn, res);
    // Range-table walk, off the critical path: refill the covering range.
    if (const Chunk *c = range_table_->chunkContaining(vpn)) {
        if (c->pages >= config_.rmm_min_range_pages)
            range_tlb_.insert({c->vpn, c->vpnEnd(), c->ppn});
    }
    return res;
}

void
RmmMmu::invalidateL2(Vpn vpn, Asid target)
{
    BaselineMmu::invalidateL2(vpn, target);
    range_tlb_.invalidateContaining(vpn, target);
}

} // namespace atlb
