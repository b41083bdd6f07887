#include "page_table.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "os/memory_map.hh"

namespace atlb
{

namespace
{

/** Radix index of @p vpn at @p level (0 = PML4 ... 3 = PT). */
unsigned
levelIndex(Vpn vpn, unsigned level)
{
    return static_cast<unsigned>((vpn.raw() >> (9 * (3 - level))) &
                                 (PageTable::fanout - 1));
}

/** The bits every interior entry carries beside its child's offset. */
constexpr std::uint64_t linkBits = pte::presentBit | pte::writeBit;

/** The interior entry that links to arena node @p node. */
std::uint64_t
linkTo(std::size_t node)
{
    // Raw PTE-word bit layout: the node's byte offset in the arena.
    // lint-allow: page-shift
    return (static_cast<std::uint64_t>(node) << pageShift) | linkBits;
}

/** True for an interior entry that links to a child node. */
bool
isLink(std::uint64_t e)
{
    return pte::present(e) && !pte::huge(e);
}

/**
 * Byte offset in the arena of the node the interior entry @p e links
 * to, i.e. `e & pte::pfnMask`. An interior entry holds nothing but
 * linkBits and that offset, so subtracting the bits is the same mask,
 * and it lets a walk fold the step into its next load's address.
 */
std::uint64_t
childOffset(std::uint64_t e)
{
    return e - linkBits;
}

/** Arena index of the node the interior entry @p e links to. */
std::size_t
linkedNode(std::uint64_t e)
{
    return static_cast<std::size_t>(childOffset(e) / pageBytes);
}

/** Entry @p idx of the node at byte offset @p offset of @p arena. */
const std::uint64_t &
entryAt(const char *arena, std::uint64_t offset, unsigned idx)
{
    return *reinterpret_cast<const std::uint64_t *>(
        arena + idx * sizeof(std::uint64_t) + offset);
}

/** Write anchor contiguity @p contig (>= 1) into slot @p e. */
void
storeAnchor(std::uint64_t *e, bool is_huge, std::uint64_t contig,
            AnchorDist distance)
{
    // Store contig - 1 (paper footnote: value excludes the anchor page so
    // the field's full range is usable).
    const std::uint64_t encoded = contig - 1;
    if (is_huge) {
        // The single PD leaf holds all 16 bits: low byte below the 2MB
        // frame field, high byte in the ignored bits.
        *e = pte::withHugeContigByte(
            *e, static_cast<std::uint8_t>(encoded & 0xff));
        *e = pte::withContigByte(
            *e, static_cast<std::uint8_t>((encoded >> 8) & 0xff));
        return;
    }
    *e = pte::withContigByte(*e, static_cast<std::uint8_t>(encoded & 0xff));
    if (distance.pages() > 256) {
        // distance > 256 implies distance >= 512, so the anchor is the
        // first entry of its cache line; entry index avpn%512 == 0 and the
        // neighbour below is in the same node and the same cache line.
        e[1] = pte::withContigByte(
            e[1], static_cast<std::uint8_t>((encoded >> 8) & 0xff));
    }
}

/** Clear the anchor bytes a @p distance sweep may have left in @p e. */
void
clearAnchor(std::uint64_t *e, bool is_huge, AnchorDist distance)
{
    if (is_huge) {
        *e = pte::withHugeContigByte(*e, 0);
        *e = pte::withContigByte(*e, 0);
    } else {
        *e = pte::withContigByte(*e, 0);
        if (distance.pages() > 256)
            e[1] = pte::withContigByte(e[1], 0);
    }
}

} // namespace

PageTable::PageTable() : arena_(1) {}
PageTable::~PageTable() = default;
PageTable::PageTable(PageTable &&) noexcept = default;
PageTable &PageTable::operator=(PageTable &&) noexcept = default;

void
PageTable::reserveNodes(std::uint64_t nodes)
{
    arena_.reserve(static_cast<std::size_t>(nodes));
}

std::size_t
PageTable::ensurePath(Vpn vpn, unsigned leaf_level)
{
    std::size_t node = 0;
    for (unsigned level = 0; level < leaf_level; ++level) {
        const unsigned idx = levelIndex(vpn, level);
        const std::uint64_t e = arena_[node].ents[idx];
        ATLB_ASSERT(!pte::present(e) || !pte::huge(e),
                    "descending through a huge leaf at vpn {}", vpn);
        if (pte::present(e)) {
            node = linkedNode(e);
            continue;
        }
        const std::size_t kid = arena_.size();
        arena_.emplace_back(); // may move the arena: index afresh
        arena_[node].ents[idx] = linkTo(kid);
        node = kid;
    }
    return node;
}

const std::uint64_t *
PageTable::findLeaf(Vpn vpn, unsigned leaf_level) const
{
    std::size_t node = 0;
    for (unsigned level = 0; level < leaf_level; ++level) {
        const std::uint64_t e = arena_[node].ents[levelIndex(vpn, level)];
        if (!isLink(e))
            return nullptr;
        node = linkedNode(e);
    }
    return &arena_[node].ents[levelIndex(vpn, leaf_level)];
}

std::uint64_t *
PageTable::findLeaf(Vpn vpn, unsigned leaf_level)
{
    return const_cast<std::uint64_t *>(
        static_cast<const PageTable *>(this)->findLeaf(vpn, leaf_level));
}

void
PageTable::map4KRun(Vpn vpn, Ppn ppn, PageCount pages)
{
    std::uint64_t left = pages;
    while (left > 0) {
        std::uint64_t *pt = arena_[ensurePath(vpn, 3)].ents.data();
        const unsigned first = levelIndex(vpn, 3);
        const unsigned n = static_cast<unsigned>(
            std::min<std::uint64_t>(left, fanout - first));
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t &e = pt[first + i];
            ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn + i);
            // Preserve ignored bits: a neighbouring anchor may have
            // parked its high contiguity byte here before this page was
            // mapped.
            e = pte::make(ppn + i) | (e & pte::contigMask);
        }
        mapped_4k_ += n;
        vpn += n;
        ppn += n;
        left -= n;
    }
}

void
PageTable::remap4K(Vpn vpn, Ppn ppn)
{
    std::uint64_t *e = findLeaf(vpn, 3);
    ATLB_ASSERT(e && pte::present(*e) && !pte::huge(*e),
                "remap of vpn {} which is not a 4KB mapping", vpn);
    *e = pte::make(ppn) | (*e & pte::contigMask);
}

void
PageTable::unmap4K(Vpn vpn)
{
    std::uint64_t *e = findLeaf(vpn, 3);
    ATLB_ASSERT(e && pte::present(*e) && !pte::huge(*e),
                "unmap of vpn {} which is not a 4KB mapping", vpn);
    *e = 0;
    --mapped_4k_;
}

void
PageTable::map2M(Vpn vpn, Ppn ppn)
{
    ATLB_ASSERT(vpn.isAligned(hugePages) && ppn.isAligned(hugePages),
                "2MB mapping must be 512-page aligned (vpn {}, ppn {})",
                vpn, ppn);
    const std::size_t pd = ensurePath(vpn, 2);
    std::uint64_t &e = arena_[pd].ents[levelIndex(vpn, 2)];
    ATLB_ASSERT(!isLink(e), "2MB leaf over existing PT at vpn {}", vpn);
    ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn);
    e = pte::make(ppn, true);
    ++mapped_2m_;
}

void
PageTable::map1G(Vpn vpn, Ppn ppn)
{
    ATLB_ASSERT(vpn.isAligned(giantPages) && ppn.isAligned(giantPages),
                "1GB mapping must be 2^18-page aligned (vpn {}, ppn {})",
                vpn, ppn);
    const std::size_t pdpt = ensurePath(vpn, 1);
    std::uint64_t &e = arena_[pdpt].ents[levelIndex(vpn, 1)];
    ATLB_ASSERT(!isLink(e), "1GB leaf over existing PD at vpn {}", vpn);
    ATLB_ASSERT(!pte::present(e), "vpn {} already mapped", vpn);
    // A 1GB leaf's frame bits start at bit 30, so pte::make/pfn are
    // exact for naturally aligned frames.
    e = pte::make(ppn, true);
    ++mapped_1g_;
}

WalkResult
PageTable::walk(Vpn vpn) const
{
    WalkResult res;
    const char *const arena = reinterpret_cast<const char *>(arena_.data());
    std::uint64_t node = 0; // byte offset of the current node
    for (unsigned level = 0; level < 3; ++level) {
        const std::uint64_t e = entryAt(arena, node, levelIndex(vpn, level));
        ++res.levels;
        if (!pte::present(e))
            return res;
        if (pte::huge(e)) {
            // A PDPT leaf maps 1GB, a PD leaf 2MB.
            res.present = true;
            if (level == 1) {
                res.ppn = pte::pfn(e) + giantOffset(vpn);
                res.size = PageSize::Giant1G;
            } else {
                res.ppn = pte::hugePfn(e) + hugeOffset(vpn);
                res.size = PageSize::Huge2M;
            }
            return res;
        }
        node = childOffset(e);
    }
    ++res.levels;
    const std::uint64_t e = entryAt(arena, node, levelIndex(vpn, 3));
    if (pte::present(e)) {
        res.present = true;
        res.ppn = pte::pfn(e);
        res.size = PageSize::Base4K;
    }
    return res;
}

void
PageTable::prefetchWalk(Vpn vpn) const
{
    const char *const arena = reinterpret_cast<const char *>(arena_.data());
    std::uint64_t node = 0;
    for (unsigned level = 0; level < 3; ++level) {
        const std::uint64_t e = entryAt(arena, node, levelIndex(vpn, level));
        // Unmapped, or a huge leaf whose PTE is in the line just loaded.
        if (!isLink(e))
            return;
        node = childOffset(e);
    }
    __builtin_prefetch(&entryAt(arena, node, levelIndex(vpn, 3)), 0, 2);
}

std::uint64_t *
PageTable::anchorSlot(std::uint64_t *pde, Vpn avpn, bool &is_huge)
{
    if (pde == nullptr || !pte::present(*pde))
        return nullptr;
    if (pte::huge(*pde)) {
        if (!avpn.isAligned(hugePages))
            return nullptr; // inside a huge page, no slot exists
        is_huge = true;
        return pde;
    }
    is_huge = false;
    return &arena_[linkedNode(*pde)].ents[levelIndex(avpn, 3)];
}

std::uint64_t *
PageTable::findAnchorSlot(Vpn avpn, bool &is_huge)
{
    return anchorSlot(findLeaf(avpn, 2), avpn, is_huge);
}

const std::uint64_t *
PageTable::findAnchorSlot(Vpn avpn, bool &is_huge) const
{
    return const_cast<PageTable *>(this)->findAnchorSlot(avpn, is_huge);
}

template <typename Fn>
void
PageTable::forEachAnchorSlot(const MemoryMap &map, AnchorDist distance,
                             Vpn begin, Vpn end, Fn &&fn)
{
    Vpn block = invalidVpn;
    std::uint64_t *pde = nullptr;
    for (const Chunk &c : map.chunks()) {
        const Vpn lo = std::max(c.vpn, begin);
        const Vpn hi = std::min(c.vpnEnd(), end);
        for (Vpn avpn = lo.alignUp(distance.pages()); avpn < hi;
             avpn += distance.pages()) {
            if (avpn.alignDown(hugePages) != block) {
                block = avpn.alignDown(hugePages);
                pde = findLeaf(block, 2);
            }
            bool is_huge = false;
            std::uint64_t *slot = anchorSlot(pde, avpn, is_huge);
            fn(c, avpn, slot, is_huge);
        }
    }
}

void
PageTable::setAnchorContiguity(Vpn avpn, std::uint64_t contig,
                               AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    ATLB_ASSERT(avpn.isAligned(distance.pages()),
                "unaligned anchor vpn {}", avpn);
    ATLB_ASSERT(contig <= std::min(distance.pages(), maxContiguity),
                "contiguity {} exceeds distance {}", contig, distance);

    bool is_huge = false;
    std::uint64_t *e = findAnchorSlot(avpn, is_huge);
    if (contig == 0) {
        if (e)
            clearAnchor(e, is_huge, distance);
        return;
    }
    ATLB_ASSERT(e, "anchor vpn {} has no slot for an anchor", avpn);
    ATLB_ASSERT(pte::present(*e), "anchor vpn {} is not mapped", avpn);
    storeAnchor(e, is_huge, contig, distance);
}

std::uint64_t
PageTable::anchorContiguity(Vpn avpn, AnchorDist distance) const
{
    bool is_huge = false;
    const std::uint64_t *e = findAnchorSlot(avpn, is_huge);
    if (!e || !pte::present(*e))
        return 0;
    std::uint64_t encoded;
    if (is_huge) {
        encoded = pte::hugeContigByte(*e) |
                  (static_cast<std::uint64_t>(pte::contigByte(*e)) << 8);
        if (encoded == 0)
            return 0; // huge leaf never swept as an anchor
    } else {
        encoded = pte::contigByte(*e);
        if (distance.pages() > 256)
            encoded |=
                static_cast<std::uint64_t>(pte::contigByte(e[1])) << 8;
    }
    return encoded + 1;
}

std::uint64_t
PageTable::sweepAnchors(const MemoryMap &map, AnchorDist distance)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    std::uint64_t touched = 0;

    // Clear the previous distance's anchors so stale contiguity bytes
    // cannot alias into the new encoding.
    if (!swept_distance_.none() && swept_distance_ != distance) {
        const AnchorDist stale = swept_distance_;
        forEachAnchorSlot(map, stale, Vpn{0}, invalidVpn,
                          [&](const Chunk &, Vpn, std::uint64_t *e,
                              bool is_huge) {
                              if (e)
                                  clearAnchor(e, is_huge, stale);
                              ++touched;
                          });
    }

    touched += sweepAnchorsRange(map, distance, Vpn{0}, invalidVpn);
    swept_distance_ = distance;
    return touched;
}

std::uint64_t
PageTable::sweepAnchorsRange(const MemoryMap &map, AnchorDist distance,
                             Vpn begin, Vpn end)
{
    ATLB_ASSERT(distance.valid() && distance.pages() <= maxContiguity,
                "bad anchor distance {}", distance);
    std::uint64_t touched = 0;
    forEachAnchorSlot(
        map, distance, begin, end,
        [&](const Chunk &c, Vpn avpn, std::uint64_t *e, bool is_huge) {
            if (!e || !pte::present(*e))
                return; // inside a huge page (distance < 512): no slot
            if (is_huge && distance.pages() < hugePages) {
                // An anchor covering less than a huge page would only
                // displace the strictly better 2MB translation.
                return;
            }
            // Contiguity still runs to the chunk end: coverage beyond a
            // region boundary is physically valid, merely unused.
            const std::uint64_t run = c.vpnEnd() - avpn;
            storeAnchor(e, is_huge,
                        std::min({run, distance.pages(), maxContiguity}),
                        distance);
            ++touched;
        });
    return touched;
}

} // namespace atlb
