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
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        return {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
                PageSize::Base4K};
    }
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
        return {e->ppn + hugeOffset(vpn), config_.l2_hit_cycles,
                HitLevel::L2Regular, PageSize::Huge2M};
    }
    if (const RangeEntry *r = range_tlb_.lookup(vpn)) {
        return {r->translate(vpn), config_.coalesced_hit_cycles,
                HitLevel::Coalesced, PageSize::Base4K};
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);
    fillL2(vpn, res);
    // Range-table walk, off the critical path: refill the covering range.
    if (const Chunk *c = range_table_->chunkContaining(vpn)) {
        if (c->pages >= config_.rmm_min_range_pages)
            range_tlb_.insert({c->vpn, c->vpnEnd(), c->ppn});
    }
    return res;
}

void
RmmMmu::invalidatePage(Vpn vpn)
{
    BaselineMmu::invalidatePage(vpn);
    range_tlb_.invalidateContaining(vpn);
}

void
RmmMmu::invalidatePage(Vpn vpn, Asid target)
{
    BaselineMmu::invalidatePage(vpn, target);
    range_tlb_.invalidateContaining(vpn, target);
}

} // namespace atlb
