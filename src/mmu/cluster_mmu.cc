#include "cluster_mmu.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/page_table.hh"

namespace atlb
{

ClusterMmu::ClusterMmu(const MmuConfig &config, const PageTable &table,
                       bool use_2mb, std::string name)
    : Mmu(config, table,
          name.empty() ? (use_2mb ? "cluster-2mb" : "cluster") : name),
      regular_(config.cluster_regular_entries, config.cluster_regular_ways,
               this->name() + ".regular", SetProbe::SimdDispatch),
      cluster_(config.cluster_entries, config.cluster_ways,
               this->name() + ".cluster", SetProbe::SimdDispatch),
      use_2mb_(use_2mb), span_log2_(floorLog2(config.cluster_span))
{
    ATLB_ASSERT(isPow2(config.cluster_span) && config.cluster_span <= 32,
                "bad cluster span {}", config.cluster_span);
    registerTlb(regular_);
    registerTlb(cluster_);
}

std::uint32_t
ClusterMmu::coalesceGroup(Vpn vpn, Ppn vpn_frame) const
{
    const unsigned span = config_.cluster_span;
    const Vpn group = vpn.alignDown(span);
    const unsigned offset = static_cast<unsigned>(vpn - group);
    // Physical frame the cluster's slot 0 would need for perfect
    // coalescing; slots coalesce iff their frame extends this base.
    const Ppn base = vpn_frame - offset;
    std::uint32_t bitmap = 0;
    for (unsigned i = 0; i < span; ++i) {
        // The span PTEs share one 64B cache line, so scanning them adds
        // no memory accesses to the walk (paper Section 2.1).
        const WalkResult w = table_->walk(group + i);
        if (w.present && w.size == PageSize::Base4K && w.ppn == base + i)
            bitmap |= 1u << i;
    }
    return bitmap;
}

void
ClusterMmu::prefetchTranslate(Vpn vpn) const
{
    regular_.prefetchSet(pageKey(vpn));
    if (use_2mb_)
        regular_.prefetchSet(hugeKey(vpn));
    cluster_.prefetchSet(groupKey(vpn, span_log2_));
    Mmu::prefetchTranslate(vpn);
}

TranslationResult
ClusterMmu::translateL2(Vpn vpn)
{
    const unsigned span = config_.cluster_span;

    if (const TlbEntry *e = regular_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        return {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
                PageSize::Base4K};
    }
    if (use_2mb_) {
        if (const TlbEntry *e =
                regular_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
            return {e->ppn + hugeOffset(vpn),
                    config_.l2_hit_cycles, HitLevel::L2Regular,
                    PageSize::Huge2M};
        }
    }
    // Cluster partition: searched in parallel with the regular one.
    const TlbKey cluster_key = groupKey(vpn, span_log2_);
    const unsigned offset = static_cast<unsigned>(vpn.offsetIn(span));
    if (const TlbEntry *e = cluster_.lookup(EntryKind::Cluster, cluster_key)) {
        if (e->aux & (1u << offset)) {
            return {e->ppn + offset, config_.coalesced_hit_cycles,
                    HitLevel::Coalesced, PageSize::Base4K};
        }
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);
    if (res.size == PageSize::Huge2M) {
        if (use_2mb_) {
            TlbEntry e;
            e.valid = true;
            e.kind = EntryKind::Page2M;
            e.key = hugeKey(vpn);
            e.ppn = res.ppn - hugeOffset(vpn);
            regular_.insert(e);
        } else {
            // The original cluster design has no 2MB support: cache the
            // requested 4KB frame of the huge mapping as a regular entry.
            TlbEntry e;
            e.valid = true;
            e.kind = EntryKind::Page4K;
            e.key = pageKey(vpn);
            e.ppn = res.ppn;
            regular_.insert(e);
            res.size = PageSize::Base4K;
        }
        return res;
    }

    const std::uint32_t bitmap = coalesceGroup(vpn, res.ppn);
    if (std::popcount(bitmap) >= 2) {
        TlbEntry e;
        e.valid = true;
        e.kind = EntryKind::Cluster;
        e.key = cluster_key;
        e.ppn = res.ppn - offset;
        e.aux = bitmap;
        cluster_.insert(e);
    } else {
        TlbEntry e;
        e.valid = true;
        e.kind = EntryKind::Page4K;
        e.key = pageKey(vpn);
        e.ppn = res.ppn;
        regular_.insert(e);
    }
    return res;
}

void
ClusterMmu::invalidateL2(Vpn vpn, Asid target)
{
    regular_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    regular_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    cluster_.invalidate(EntryKind::Cluster, groupKey(vpn, span_log2_),
                        target);
}

} // namespace atlb
