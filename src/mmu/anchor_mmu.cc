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
    : AnchorMmu(config, table, RegionPartition{{}, distance},
                std::move(name))
{
}

AnchorMmu::AnchorMmu(const MmuConfig &config, const PageTable &table,
                     RegionPartition partition, std::string name)
    : Mmu(config, table, std::move(name)),
      l2_(config.l2_entries, config.l2_ways, this->name() + ".l2",
          SetProbe::SimdDispatch)
{
    load(std::move(partition));
    registerTlb(l2_);
}

void
AnchorMmu::load(RegionPartition partition)
{
    const auto valid = [this](AnchorDist d) {
        return d.valid() && d.pages() <= config_.max_contiguity;
    };
    ATLB_ASSERT(valid(partition.default_distance),
                "bad anchor distance {}", partition.default_distance);
    ATLB_ASSERT(partition.regions.size() <= maxRegions,
                "region table overflow: {} > {}",
                partition.regions.size(), maxRegions);
    for (const AnchorRegion &r : partition.regions) {
        ATLB_ASSERT(valid(r.distance), "bad region distance {}",
                    r.distance);
        ATLB_ASSERT(r.begin < r.end, "empty region");
    }
    partition_ = std::move(partition);
}

void
AnchorMmu::switchProcess(const ProcessContext &ctx)
{
    // Load the table directly rather than through setDistance: a
    // switch under ASID retention must NOT flush — each process's
    // anchor entries carry its ASID tag, so distances coexist. Under
    // the flush policy the base switch flushes right after, preserving
    // the paper's behaviour. setDistance keeps its flush for
    // *in-process* distance changes, where old-distance entries would
    // otherwise go stale.
    if (ctx.partition) {
        load(*ctx.partition);
    } else {
        ATLB_ASSERT(!ctx.anchor_distance.none(),
                    "anchor scheme needs a per-process distance");
        load(RegionPartition{{}, ctx.anchor_distance});
    }
    Mmu::switchProcess(ctx);
}

void
AnchorMmu::setDistance(AnchorDist distance)
{
    load(RegionPartition{{}, distance});
    flushAll();
}

const AnchorRegion *
AnchorMmu::regionFor(Vpn vpn) const
{
    // Parallel CAM search in hardware; the table is tiny.
    for (const AnchorRegion &r : partition_.regions)
        if (r.contains(vpn))
            return &r;
    return nullptr;
}

AnchorDist
AnchorMmu::distanceFor(Vpn vpn) const
{
    const AnchorRegion *region = regionFor(vpn);
    return region ? region->distance : partition_.default_distance;
}

void
AnchorMmu::prefetchTranslate(Vpn vpn) const
{
    l2_.prefetchSet(pageKey(vpn));
    l2_.prefetchSet(hugeKey(vpn));
    if (partition_.regions.empty()) {
        const AnchorDist distance = partition_.default_distance;
        l2_.prefetchSet(anchorKey(distance.anchorOf(vpn), distance));
    }
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

    const AnchorRegion *region = regionFor(vpn);
    const AnchorDist distance =
        region ? region->distance : partition_.default_distance;
    const Vpn avpn = distance.anchorOf(vpn);
    const std::uint64_t offset = distance.offsetOf(vpn);
    const TlbKey key = anchorKey(avpn, distance);
    // An anchor before the region's start was swept with the previous
    // region's distance: not usable here.
    const bool anchored = !region || avpn >= region->begin;
    bool anchor_entry_present = false;
    if (anchored) {
        if (const TlbEntry *e = l2_.lookup(EntryKind::Anchor, key)) {
            anchor_entry_present = true;
            if (offset < e->aux) {
                ++anchor_stats_.anchor_hits;
                return {e->ppn + offset, config_.coalesced_hit_cycles,
                        HitLevel::Coalesced, PageSize::Base4K};
            }
            // Anchor cached but this VPN lies beyond its contiguity:
            // the translation exists only in the regular PTE (Table 2,
            // row 3).
            ++anchor_stats_.anchor_partial_misses;
        }
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);

    // The walker also fetched the anchor entry (same or nearby cache
    // line); decide which single entry to fill (Table 2, rows 3-5).
    // Huge-mapped pages can be anchor-covered too: an anchor whose run
    // spans THP pages translates them like any other page of the run.
    std::uint64_t contig =
        anchored ? table_->anchorContiguity(avpn, distance) : 0;
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
        e.key = key;
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
AnchorMmu::invalidateL2(Vpn vpn, Asid target)
{
    if (target != currentAsid()) {
        // The anchor key needs the target's region table, which is not
        // loaded; over-invalidate the whole address space rather than
        // risk a stale anchor surviving.
        invalidateAsid(target);
        return;
    }
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    const AnchorDist distance = distanceFor(vpn);
    l2_.invalidate(EntryKind::Anchor,
                   anchorKey(distance.anchorOf(vpn), distance), target);
}

} // namespace atlb
