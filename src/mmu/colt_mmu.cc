#include "colt_mmu.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/page_table.hh"

namespace atlb
{

ColtMmu::ColtMmu(const MmuConfig &config, const PageTable &table,
                 std::string name)
    : Mmu(config, table, std::move(name)),
      regular_(config.cluster_regular_entries, config.cluster_regular_ways,
               this->name() + ".regular", SetProbe::SimdDispatch),
      coalesced_(config.cluster_entries, config.cluster_ways,
                 this->name() + ".sa", SetProbe::SimdDispatch),
      fa_(config.colt_fa_entries)
{
    ATLB_ASSERT(isPow2(config.colt_fa_max_pages),
                "colt_fa_max_pages must be a power of two");
    registerTlb(regular_);
    registerTlb(coalesced_);
    registerTlb(fa_);
}

RangeEntry
ColtMmu::scanRun(Vpn vpn, Ppn vpn_frame) const
{
    const std::uint64_t window = config_.colt_fa_max_pages;
    const Vpn lo = vpn.alignDown(window);
    const Vpn hi = lo + window;
    RangeEntry run;
    run.vpn_start = vpn;
    run.vpn_end = vpn + 1;
    run.ppn_start = vpn_frame;
    // Grow backward then forward while translations stay contiguous.
    while (run.vpn_start > lo) {
        const WalkResult w = table_->walk(run.vpn_start - 1);
        if (!w.present || w.size != PageSize::Base4K ||
            w.ppn + 1 != run.ppn_start)
            break;
        --run.vpn_start;
        --run.ppn_start;
    }
    while (run.vpn_end < hi) {
        const WalkResult w = table_->walk(run.vpn_end);
        if (!w.present || w.size != PageSize::Base4K ||
            w.ppn != run.translate(run.vpn_end))
            break;
        ++run.vpn_end;
    }
    return run;
}

void
ColtMmu::prefetchTranslate(Vpn vpn) const
{
    regular_.prefetchSet(pageKey(vpn));
    coalesced_.prefetchSet(TlbKey{vpn.raw() / config_.cluster_span});
    Mmu::prefetchTranslate(vpn);
}

TranslationResult
ColtMmu::translateL2(Vpn vpn)
{
    const unsigned span = config_.cluster_span;

    if (const TlbEntry *e = regular_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        return {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
                PageSize::Base4K};
    }
    // CoLT does not require a power-of-two span, so the cluster key is
    // an explicit scheme-specific encoding (plain division), not a
    // groupKey().
    const TlbKey cluster_key{vpn.raw() / span};
    const unsigned offset = static_cast<unsigned>(vpn.raw() & (span - 1));
    if (const TlbEntry *e =
            coalesced_.lookup(EntryKind::Cluster, cluster_key)) {
        if (e->aux & (1u << offset)) {
            return {e->ppn + offset, config_.coalesced_hit_cycles,
                    HitLevel::Coalesced, PageSize::Base4K};
        }
    }
    if (const RangeEntry *r = fa_.lookup(vpn)) {
        return {r->translate(vpn), config_.coalesced_hit_cycles,
                HitLevel::Coalesced, PageSize::Base4K};
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);
    if (res.size == PageSize::Huge2M) {
        // Original CoLT has no 2MB support: cache the 4KB frame.
        TlbEntry e;
        e.valid = true;
        e.kind = EntryKind::Page4K;
        e.key = pageKey(vpn);
        e.ppn = res.ppn;
        regular_.insert(e);
        res.size = PageSize::Base4K;
        return res;
    }

    const RangeEntry run = scanRun(vpn, res.ppn);
    const std::uint64_t run_pages = run.vpn_end - run.vpn_start;

    // Long runs additionally get an FA entry; the SA fill below happens
    // regardless so the FA array is pure extra coverage.
    if (run_pages >= config_.colt_fa_min_pages)
        fa_.insert(run);

    if (run_pages >= 2) {
        // Clip the run to the vpn's aligned group for the SA bitmap.
        const Vpn group = vpn.alignDown(span);
        std::uint32_t bitmap = 0;
        for (unsigned i = 0; i < span; ++i) {
            const Vpn v = group + i;
            if (v >= run.vpn_start && v < run.vpn_end)
                bitmap |= 1u << i;
        }
        if (std::popcount(bitmap) >= 2) {
            TlbEntry e;
            e.valid = true;
            e.kind = EntryKind::Cluster;
            e.key = cluster_key;
            e.ppn = run.translate(group); // frame slot 0 would use
            e.aux = bitmap;
            coalesced_.insert(e);
            return res;
        }
    }
    TlbEntry e;
    e.valid = true;
    e.kind = EntryKind::Page4K;
    e.key = pageKey(vpn);
    e.ppn = res.ppn;
    regular_.insert(e);
    return res;
}

void
ColtMmu::invalidateL2(Vpn vpn, Asid target)
{
    regular_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    coalesced_.invalidate(EntryKind::Cluster,
                          TlbKey{vpn.raw() / config_.cluster_span}, target);
    fa_.invalidateContaining(vpn, target);
}

} // namespace atlb
