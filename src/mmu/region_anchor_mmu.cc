#include "region_anchor_mmu.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/page_table.hh"

namespace atlb
{

RegionAnchorMmu::RegionAnchorMmu(const MmuConfig &config,
                                 const PageTable &table,
                                 RegionPartition partition,
                                 std::string name)
    : Mmu(config, table, std::move(name)),
      l2_(config.l2_entries, config.l2_ways, this->name() + ".l2",
          SetProbe::SimdDispatch),
      partition_(std::move(partition))
{
    ATLB_ASSERT(partition_.regions.size() <= maxRegions,
                "region table overflow: {} > {}",
                partition_.regions.size(), maxRegions);
    for (const AnchorRegion &r : partition_.regions) {
        ATLB_ASSERT(r.distance.valid() &&
                        r.distance.pages() <= config.max_contiguity,
                    "bad region distance {}", r.distance);
        ATLB_ASSERT(r.begin < r.end, "empty region");
    }
    registerTlb(l2_);
}

const AnchorRegion *
RegionAnchorMmu::regionFor(Vpn vpn) const
{
    // Parallel CAM search in hardware; the table is tiny.
    for (const AnchorRegion &r : partition_.regions)
        if (r.contains(vpn))
            return &r;
    return nullptr;
}

void
RegionAnchorMmu::prefetchTranslate(Vpn vpn) const
{
    l2_.prefetchSet(pageKey(vpn));
    l2_.prefetchSet(hugeKey(vpn));
    Mmu::prefetchTranslate(vpn);
}

TranslationResult
RegionAnchorMmu::translateL2(Vpn vpn)
{
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page4K, pageKey(vpn))) {
        return {e->ppn, config_.l2_hit_cycles, HitLevel::L2Regular,
                PageSize::Base4K};
    }
    if (const TlbEntry *e = l2_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
        return {e->ppn + hugeOffset(vpn), config_.l2_hit_cycles,
                HitLevel::L2Regular, PageSize::Huge2M};
    }

    const AnchorRegion *region = regionFor(vpn);
    AnchorDist distance = partition_.default_distance;
    if (region)
        distance = region->distance;
    else
        ++stats_.region_misses;
    const Vpn avpn = distance.anchorOf(vpn);
    const std::uint64_t offset = distance.offsetOf(vpn);

    // Anchors before the region's start were swept with the previous
    // region's distance: not usable here.
    const bool anchor_in_region = !region || avpn >= region->begin;
    if (anchor_in_region) {
        if (const TlbEntry *e =
                l2_.lookup(EntryKind::Anchor, anchorKey(avpn, distance))) {
            if (offset < e->aux) {
                ++stats_.anchor_hits;
                return {e->ppn + offset, config_.coalesced_hit_cycles,
                        HitLevel::Coalesced, PageSize::Base4K};
            }
        }
    }

    TranslationResult res =
        walkPageTable(vpn, config_.coalesced_hit_cycles);

    const std::uint64_t contig =
        anchor_in_region ? table_->anchorContiguity(avpn, distance) : 0;
    if (offset < contig) {
        TlbEntry e;
        e.valid = true;
        e.kind = EntryKind::Anchor;
        e.key = anchorKey(avpn, distance);
        e.ppn = res.ppn - offset;
        e.aux = static_cast<std::uint32_t>(contig);
        l2_.insert(e);
        ++stats_.anchor_fills;
    } else {
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
        ++stats_.regular_fills;
    }
    return res;
}

void
RegionAnchorMmu::switchProcess(const ProcessContext &ctx)
{
    ATLB_ASSERT(ctx.partition, "region scheme needs a region table");
    ATLB_ASSERT(ctx.partition->regions.size() <= maxRegions,
                "region table overflow");
    partition_ = *ctx.partition;
    Mmu::switchProcess(ctx);
}

void
RegionAnchorMmu::invalidatePage(Vpn vpn)
{
    Mmu::invalidatePage(vpn);
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn));
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn));
    AnchorDist distance = partition_.default_distance;
    if (const AnchorRegion *region = regionFor(vpn))
        distance = region->distance;
    const Vpn avpn = distance.anchorOf(vpn);
    l2_.invalidate(EntryKind::Anchor, anchorKey(avpn, distance));
}

void
RegionAnchorMmu::invalidatePage(Vpn vpn, Asid target)
{
    if (target != currentAsid()) {
        // The anchor key needs the target's region table, which is not
        // loaded; over-invalidate the whole address space rather than
        // risk a stale anchor surviving.
        invalidateAsid(target);
        return;
    }
    Mmu::invalidatePage(vpn, target);
    l2_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l2_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    AnchorDist distance = partition_.default_distance;
    if (const AnchorRegion *region = regionFor(vpn))
        distance = region->distance;
    const Vpn avpn = distance.anchorOf(vpn);
    l2_.invalidate(EntryKind::Anchor, anchorKey(avpn, distance), target);
}

} // namespace atlb
