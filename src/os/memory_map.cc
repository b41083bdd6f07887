#include "memory_map.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace atlb
{

void
MemoryMap::add(Vpn vpn, Ppn ppn, PageCount pages)
{
    ATLB_ASSERT(!finalized_, "add() after finalize()");
    ATLB_ASSERT(pages > 0, "empty mapping");
    mapped_pages_ += pages;
    // Extend the last run when this one continues it in both spaces,
    // as finalize() would merge them: a builder that maps page by page
    // then stores runs, not pages.
    if (!chunks_.empty()) {
        Chunk &last = chunks_.back();
        if (last.vpnEnd() == vpn && last.ppn + last.pages == ppn) {
            last.pages += pages;
            return;
        }
    }
    chunks_.push_back(Chunk{vpn, ppn, pages});
}

void
MemoryMap::finalize()
{
    ATLB_ASSERT(!finalized_, "finalize() called twice");
    const auto by_vpn = [](const Chunk &a, const Chunk &b) {
        return a.vpn < b.vpn;
    };
    // Builders add in VA order; only sort what arrived out of order.
    if (!std::is_sorted(chunks_.begin(), chunks_.end(), by_vpn))
        std::sort(chunks_.begin(), chunks_.end(), by_vpn);
    // Verify disjointness and merge VA- and PA-adjacent runs.
    std::vector<Chunk> merged;
    merged.reserve(chunks_.size());
    for (const Chunk &c : chunks_) {
        if (!merged.empty()) {
            Chunk &prev = merged.back();
            ATLB_ASSERT(prev.vpnEnd() <= c.vpn,
                        "overlapping mappings at vpn {}", c.vpn);
            if (prev.vpnEnd() == c.vpn &&
                prev.ppn + prev.pages == c.ppn) {
                prev.pages += c.pages;
                continue;
            }
        }
        merged.push_back(c);
    }
    chunks_ = std::move(merged);
    chunks_.shrink_to_fit();
    finalized_ = true;
}

const Chunk *
MemoryMap::chunkContaining(Vpn vpn) const
{
    ATLB_ASSERT(finalized_, "lookup before finalize()");
    // First chunk with vpnEnd() > vpn; it contains vpn iff vpn >= its vpn.
    const auto it = std::upper_bound(
        chunks_.begin(), chunks_.end(), vpn,
        [](Vpn v, const Chunk &c) { return v < c.vpnEnd(); });
    if (it == chunks_.end() || !it->contains(vpn))
        return nullptr;
    return &*it;
}

Ppn
MemoryMap::translate(Vpn vpn) const
{
    const Chunk *c = chunkContaining(vpn);
    return c ? c->translate(vpn) : invalidPpn;
}

PageCount
MemoryMap::contiguityFrom(Vpn vpn) const
{
    const Chunk *c = chunkContaining(vpn);
    return c ? c->vpnEnd() - vpn : PageCount{};
}

namespace
{

bool
blockEligible(const MemoryMap &map, Vpn vpn, std::uint64_t block_pages)
{
    const Vpn block = vpn.alignDown(block_pages);
    const Chunk *c = map.chunkContaining(block);
    if (!c)
        return false;
    if (c->vpnEnd() < block + block_pages)
        return false;
    // Physical base of the block must be naturally aligned.
    return c->translate(block).isAligned(block_pages);
}

} // namespace

bool
MemoryMap::hugeEligible(Vpn vpn) const
{
    return blockEligible(*this, vpn, hugePages);
}

bool
MemoryMap::giantEligible(Vpn vpn) const
{
    return blockEligible(*this, vpn, giantPages);
}

Histogram
MemoryMap::contiguityHistogram() const
{
    ATLB_ASSERT(finalized_, "histogram before finalize()");
    Histogram h;
    for (const Chunk &c : chunks_)
        h.add(c.pages);
    return h;
}

} // namespace atlb
