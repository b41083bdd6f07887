#include "anchor_mmu.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"

namespace atlb
{

AnchorMmu::AnchorMmu(const MmuConfig &config, const PageTable &table,
                     AnchorDist distance, std::string name)
    : Mmu(config, table, std::move(name)),
      l2_(config.l2_entries, config.l2_ways, this->name() + ".l2",
          SetProbe::SimdDispatch),
      distance_(distance)
{
    ATLB_ASSERT(distance.valid() &&
                    distance.pages() <= config.max_contiguity,
                "bad anchor distance {}", distance);
    registerTlb(l2_);
}

void
AnchorMmu::switchProcess(const ProcessContext &ctx)
{
    ATLB_ASSERT(!ctx.anchor_distance.none(),
                "anchor scheme needs a per-process distance");
    ATLB_ASSERT(ctx.anchor_distance.valid() &&
                    ctx.anchor_distance.pages() <= config_.max_contiguity,
                "bad anchor distance {}", ctx.anchor_distance);
    // Load the register directly rather than through setDistance: a
    // switch under ASID retention must NOT flush — each process's
    // anchor entries carry its ASID tag, so distances coexist. Under
    // the flush policy the base switch flushes right after, preserving
    // the paper's behaviour. setDistance keeps its flush for
    // *in-process* distance changes, where old-distance entries would
    // otherwise go stale.
    distance_ = ctx.anchor_distance;
    Mmu::switchProcess(ctx);
}

void
AnchorMmu::setDistance(AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() &&
                    distance.pages() <= config_.max_contiguity,
                "bad anchor distance {}", distance);
    distance_ = distance;
    flushAll();
}

void
AnchorMmu::prefetchTranslate(Vpn vpn) const
{
    l2_.prefetchSet(pageKey(vpn));
    l2_.prefetchSet(hugeKey(vpn));
    l2_.prefetchSet(anchorKey(anchorOf(vpn)));
    Mmu::prefetchTranslate(vpn);
}

TranslationResult
AnchorMmu::translateL2(Vpn vpn)
{
    // Regular entries first (4KB, then 2MB), sharing the unified L2.
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        return {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
                PageSize::Base4K};
    }
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
        return {e->ppn + hugeOffset(vpn), config_.l2_hit_cycles,
                HitLevel::L2Regular, PageSize::Huge2M};
    }

    const Vpn avpn = anchorOf(vpn);
    const std::uint64_t offset = distance_.offsetOf(vpn);
    bool anchor_entry_present = false;
    if (const TlbEntry *e = l2_.lookup(EntryKind::Anchor, anchorKey(avpn))) {
        anchor_entry_present = true;
        if (offset < e->aux) {
            ++anchor_stats_.anchor_hits;
            return {e->ppn + offset, config_.coalesced_hit_cycles,
                    HitLevel::Coalesced, PageSize::Base4K};
        }
        // Anchor cached but this VPN lies beyond its contiguity: the
        // translation exists only in the regular PTE (Table 2, row 3).
        ++anchor_stats_.anchor_partial_misses;
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);

    // The walker also fetched the anchor entry (same or nearby cache
    // line); decide which single entry to fill (Table 2, rows 3-5).
    // Huge-mapped pages can be anchor-covered too: an anchor whose run
    // spans THP pages translates them like any other page of the run.
    std::uint64_t contig = table_->anchorContiguity(avpn, distance_);
    if (nested() && contig > 0) {
        // Guest contiguity only helps if the guest-physical run is
        // also host-contiguous: clip to the host run from the anchor's
        // GPA (the hypervisor exposes this like the guest OS exposes
        // its own contiguity).
        const Ppn anchor_gpa = res.guest_ppn - offset;
        contig = std::min<std::uint64_t>(
            contig, host_map_->contiguityFrom(hostVpnOf(anchor_gpa)));
    }
    const bool covered = offset < contig;

    if (covered && !anchor_entry_present) {
        TlbEntry e;
        e.valid = true;
        e.kind = EntryKind::Anchor;
        e.key = anchorKey(avpn);
        // Physical frame of the anchor page itself: the requested frame
        // minus the in-run offset (both lie in the same contiguous run).
        e.ppn = res.ppn - offset;
        e.aux = static_cast<std::uint32_t>(contig);
        l2_.insert(e);
        ++anchor_stats_.anchor_fills;
    } else if (!covered) {
        TlbEntry e;
        e.valid = true;
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
        ++anchor_stats_.regular_fills;
    }
    // covered && anchor_entry_present (Table 2 row 3 after the walk):
    // the anchor is already cached; nothing new to insert.
    return res;
}

void
AnchorMmu::invalidatePage(Vpn vpn)
{
    Mmu::invalidatePage(vpn);
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn));
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn));
    l2_.invalidate(EntryKind::Anchor, anchorKey(anchorOf(vpn)));
}

void
AnchorMmu::invalidatePage(Vpn vpn, Asid target)
{
    if (target != currentAsid()) {
        // The anchor key needs the target's distance register, which
        // is not loaded; over-invalidate the whole address space
        // rather than risk a stale anchor surviving.
        invalidateAsid(target);
        return;
    }
    Mmu::invalidatePage(vpn, target);
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    l2_.invalidate(EntryKind::Anchor, anchorKey(anchorOf(vpn)), target);
}

} // namespace atlb
