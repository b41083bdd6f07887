#include "baseline_mmu.hh"

namespace atlb
{

BaselineMmu::BaselineMmu(const MmuConfig &config, const PageTable &table,
                         std::string name)
    : Mmu(config, table, name),
      l2_(config.l2_entries, config.l2_ways, name + ".l2",
          SetProbe::SimdDispatch),
      l2_1g_(config.l2_1g_entries, config.l2_1g_ways, name + ".l2-1g",
             SetProbe::SimdDispatch)
{
    registerTlb(l2_);
    registerTlb(l2_1g_);
}

void
BaselineMmu::prefetchTranslate(Vpn vpn) const
{
    l2_.prefetchSet(pageKey(vpn));
    l2_.prefetchSet(hugeKey(vpn));
    // The 1GB side table is small and rarely hit; not worth a hint.
    Mmu::prefetchTranslate(vpn);
}

bool
BaselineMmu::lookupRegular(Vpn vpn, TranslationResult &res)
{
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        res = {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
               PageSize::Base4K};
        return true;
    }
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
        res = {e->ppn + hugeOffset(vpn), config_.l2_hit_cycles,
               HitLevel::L2Regular, PageSize::Huge2M};
        return true;
    }
    if (const TlbEntry *e =
            l2_1g_.lookup(EntryKind::Page1G, giantKey(vpn))) {
        res = {e->ppn + giantOffset(vpn), config_.l2_hit_cycles,
               HitLevel::L2Regular, PageSize::Giant1G};
        return true;
    }
    return false;
}

TranslationResult
BaselineMmu::translateL2(Vpn vpn)
{
    TranslationResult res;
    if (lookupRegular(vpn, res))
        return res;
    res = walkPageTable(vpn, config_.l2_hit_cycles);
    fillL2(vpn, res);
    return res;
}

void
BaselineMmu::fillL2(Vpn vpn, const TranslationResult &res)
{
    TlbEntry e;
    e.valid = true;
    if (res.size == PageSize::Giant1G) {
        e.kind = EntryKind::Page1G;
        e.key = giantKey(vpn);
        e.ppn = res.ppn - giantOffset(vpn);
        l2_1g_.insert(e);
        return;
    }
    if (res.size == PageSize::Huge2M) {
        e.kind = EntryKind::Page2M;
        e.key = hugeKey(vpn);
        e.ppn = res.ppn - hugeOffset(vpn);
    } else {
        e.kind = EntryKind::Page4K;
        e.key = pageKey(vpn);
        e.ppn = res.ppn;
    }
    l2_.insert(e);
}

void
BaselineMmu::invalidateL2(Vpn vpn, Asid target)
{
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    l2_1g_.invalidate(EntryKind::Page1G, giantKey(vpn), target);
}

} // namespace atlb
