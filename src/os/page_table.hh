/**
 * @file
 * x86-64-style 4-level radix page table with anchor entries.
 *
 * The table stores 4KB leaf PTEs at the PT level, 2MB leaf entries (PS
 * bit) at the PD level and 1GB leaves at the PDPT level, mirroring
 * x86-64. Every node is one 4KB page of 512 entries, and all of a
 * table's nodes live in one arena whose first node is the root. An
 * interior entry names its child the way an x86 PML4E, PDPTE or PDE
 * names the next table: the present and write bits plus the child's
 * byte offset in the arena in the frame field, so `e & pte::pfnMask`
 * locates it. A walk therefore reads one entry per level.
 *
 * Anchor support follows the paper's Figure 4: the entry whose VPN is
 * aligned to the process's anchor distance additionally carries a
 * contiguity count in spare bits.
 *
 * For a 4KB anchor PTE, values that do not fit in one entry's ignored
 * bits are distributed across the *next* PTE of the same 64B cache line
 * (paper Section 3.1): the low byte of (contiguity - 1) lives in the
 * anchor entry's bits [52, 60) and, for distances > 256 pages, the high
 * byte lives in the following entry's bits [52, 60). Distances > 256 are
 * always >= 512, so the anchor is the first entry of its cache line and
 * the neighbour is guaranteed to exist in the same line; reading it
 * costs no extra memory access, exactly as argued in the paper.
 *
 * An anchor VPN may itself be mapped by a 2MB page (possible only for
 * distances >= 512, which make the anchor VPN 2MB-aligned). The anchor
 * then lives in the PD-level leaf entry, whose physical-address field
 * only starts at bit 21: bits [13, 21) plus ignored bits [52, 60) give
 * the full 16-bit contiguity in a single entry. This is the natural
 * extension of the paper's scheme to THP-mapped regions and lets one
 * anchor cover runs spanning many 2MB pages.
 *
 * The contiguity value stored is min(run length from the anchor, anchor
 * distance, 2^16): contiguity beyond the anchor distance is useless for
 * translation because any VPN farther than the distance from the anchor
 * has a closer anchor of its own.
 */

#ifndef ANCHORTLB_OS_PAGE_TABLE_HH
#define ANCHORTLB_OS_PAGE_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace atlb
{

class MemoryMap;

/** 64-bit PTE bit-field helpers (subset of x86-64 layout). */
namespace pte
{

constexpr std::uint64_t presentBit = 1ULL << 0;
constexpr std::uint64_t writeBit = 1ULL << 1;
/** Page-size bit: set on a PD entry that is a 2MB leaf. */
constexpr std::uint64_t psBit = 1ULL << 7;
/** PFN field occupies bits [12, 52). */
constexpr std::uint64_t pfnMask = ((1ULL << 52) - 1) & ~(pageBytes - 1);
/** Ignored bits [52, 60) hold one byte of anchor contiguity. */
constexpr unsigned contigShift = 52;
constexpr std::uint64_t contigMask = 0xffULL << contigShift;

constexpr bool present(std::uint64_t e) { return e & presentBit; }
constexpr bool huge(std::uint64_t e) { return e & psBit; }

/** PFN of a 4KB leaf. */
constexpr Ppn pfn(std::uint64_t e)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return Ppn{(e & pfnMask) >> pageShift};
}

constexpr std::uint64_t
make(Ppn ppn, bool is_huge = false)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return (ppn.raw() << pageShift) | presentBit | writeBit |
           (is_huge ? psBit : 0);
}

constexpr std::uint8_t contigByte(std::uint64_t e)
{
    return static_cast<std::uint8_t>((e & contigMask) >> contigShift);
}

constexpr std::uint64_t
withContigByte(std::uint64_t e, std::uint8_t b)
{
    return (e & ~contigMask) |
           (static_cast<std::uint64_t>(b) << contigShift);
}

/**
 * 2MB leaf entries keep their low contiguity byte in bits [13, 21),
 * which sit below the 2MB frame field and above the PAT bit.
 */
constexpr unsigned hugeContigShift = 13;
constexpr std::uint64_t hugeContigMask = 0xffULL << hugeContigShift;

constexpr std::uint8_t hugeContigByte(std::uint64_t e)
{
    return static_cast<std::uint8_t>((e & hugeContigMask) >>
                                     hugeContigShift);
}

constexpr std::uint64_t
withHugeContigByte(std::uint64_t e, std::uint8_t b)
{
    return (e & ~hugeContigMask) |
           (static_cast<std::uint64_t>(b) << hugeContigShift);
}

/** PFN of a 2MB leaf (its frame bits start above the contiguity byte). */
constexpr Ppn
hugePfn(std::uint64_t e)
{
    // Raw PTE-word bit layout. lint-allow: page-shift
    return Ppn{(e & pfnMask & ~hugeContigMask) >> pageShift};
}

} // namespace pte

/** Result of walking the page table for one VPN. */
struct WalkResult
{
    bool present = false;
    Ppn ppn = invalidPpn;      //!< PFN of the *4KB page* containing the VPN
    PageSize size = PageSize::Base4K;
    /** Number of page-table levels touched (for cost accounting). */
    unsigned levels = 0;
};

/**
 * Four-level radix page table for one process.
 *
 * Not thread-safe; each simulated process owns one instance.
 */
class PageTable
{
  public:
    /** Entries per node (512 for x86-64). */
    static constexpr unsigned fanout = 512;
    /** Maximum anchor contiguity representable (16-bit field). */
    static constexpr std::uint64_t maxContiguity = 1ULL << 16;

    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;
    PageTable(PageTable &&) noexcept;
    PageTable &operator=(PageTable &&) noexcept;

    /**
     * Reserve room for @p nodes nodes in all. A build that sizes the
     * arena up front never re-copies it while mapping.
     */
    void reserveNodes(std::uint64_t nodes);

    /** Map one 4KB page. Must not already be mapped. */
    void map4K(Vpn vpn, Ppn ppn) { map4KRun(vpn, ppn, PageCount{1}); }

    /**
     * Map @p pages 4KB pages, virtually and physically contiguous from
     * (@p vpn, @p ppn). None may already be mapped. Descends once per
     * leaf node, then fills its entries in one loop.
     */
    void map4KRun(Vpn vpn, Ppn ppn, PageCount pages);

    /**
     * Map one 2MB page; @p vpn and @p ppn must be 512-page aligned and
     * the region must not intersect existing mappings.
     */
    void map2M(Vpn vpn, Ppn ppn);

    /**
     * Map one 1GB page at the PDPT level; @p vpn and @p ppn must be
     * 2^18-page aligned.
     */
    void map1G(Vpn vpn, Ppn ppn);

    /**
     * Change the frame of an existing 4KB mapping (page migration).
     * Anchor contiguity bytes stored in the entry are preserved; the
     * OS is responsible for updating the affected anchor via
     * setAnchorContiguity and shooting down stale TLB entries.
     */
    void remap4K(Vpn vpn, Ppn ppn);

    /** Remove a 4KB mapping; the PTE's ignored bits are cleared too. */
    void unmap4K(Vpn vpn);

    /** Translate @p vpn. */
    WalkResult walk(Vpn vpn) const;

    /**
     * Prefetch hint for a walk of @p vpn a batch kernel expects to
     * issue shortly (mmu/mmu.hh, prefetchTranslate). Semantics-free.
     *
     * The interior levels are a handful of nodes that stay cache-hot
     * under any footprint (one PML4, and one PDPT/PD node per 512GB /
     * 1GB of address space), so chasing them here costs a few hot
     * loads — but they yield the *address* of the leaf PTE, which
     * lives in one line of a leaf-node population proportional to the
     * mapped footprint. That line is the walk's cache miss, and the
     * one this prefetches.
     */
    void prefetchWalk(Vpn vpn) const;

    /**
     * Set the anchor contiguity stored at the leaf entry for @p avpn.
     * @param avpn      anchor VPN (aligned to the anchor distance)
     * @param contig    pages contiguous from the anchor, in [1, 2^16];
     *                  0 clears the anchor.
     * @param distance  current anchor distance (decides the encoding).
     *
     * The anchor lives in the 4KB PTE for @p avpn, or — when @p avpn is
     * the 2MB-aligned start of a huge mapping — in the PD leaf entry.
     * An anchor VPN that falls strictly inside a huge page (only
     * possible for distances < 512) cannot hold an anchor; such calls
     * are rejected for non-zero @p contig.
     */
    void setAnchorContiguity(Vpn avpn, std::uint64_t contig,
                             AnchorDist distance);

    /**
     * Read back the anchor contiguity at @p avpn (0 if the entry is not
     * present, is huge-mapped, or carries no anchor).
     */
    std::uint64_t anchorContiguity(Vpn avpn, AnchorDist distance) const;

    /**
     * Recompute every anchor entry for @p distance from the mapping.
     * Clears stale contiguity bytes first (the previous distance's
     * anchors), then writes min(run, distance, 2^16) at each aligned
     * anchor whose PTE is a present 4KB entry.
     *
     * @return number of page-table entries visited (the paper's
     *         distance-change cost is proportional to this).
     */
    std::uint64_t sweepAnchors(const MemoryMap &map, AnchorDist distance);

    /**
     * Sweep anchors for @p distance only within [begin, end) — used by
     * the multi-region extension, where each VA region carries its own
     * distance. Performs no clearing pass: intended for freshly built
     * tables (or after sweepAnchorsRange over the same bounds).
     *
     * @return number of page-table entries visited.
     */
    std::uint64_t sweepAnchorsRange(const MemoryMap &map,
                                    AnchorDist distance, Vpn begin,
                                    Vpn end);

    /** Count of present 4KB leaf entries. */
    std::uint64_t mapped4K() const { return mapped_4k_; }

    /** Count of 2MB leaf entries. */
    std::uint64_t mapped2M() const { return mapped_2m_; }

    /** Count of 1GB leaf entries. */
    std::uint64_t mapped1G() const { return mapped_1g_; }

    /** Total interior + leaf nodes allocated (memory footprint proxy). */
    std::uint64_t nodeCount() const { return arena_.size(); }

  private:
    /** One radix node: a 4KB page of 512 entries. */
    struct alignas(pageBytes) Node
    {
        std::array<std::uint64_t, fanout> ents{};
    };
    static_assert(sizeof(Node) == pageBytes);

    /**
     * Every node of the table; node 0 is the root. Nodes are named by
     * index, never by pointer, across anything that allocates one: a
     * new node may move the arena.
     */
    std::vector<Node> arena_;
    std::uint64_t mapped_4k_ = 0;
    std::uint64_t mapped_2m_ = 0;
    std::uint64_t mapped_1g_ = 0;
    /** Anchor distance of the most recent sweep (none() = never). */
    AnchorDist swept_distance_{};

    /**
     * Index of the level-@p leaf_level node on @p vpn's path, made (with
     * any missing node above it) when missing.
     */
    std::size_t ensurePath(Vpn vpn, unsigned leaf_level);
    const std::uint64_t *findLeaf(Vpn vpn, unsigned leaf_level) const;
    std::uint64_t *findLeaf(Vpn vpn, unsigned leaf_level);

    /**
     * Locate the leaf entry that can hold an anchor for @p avpn, given
     * the PD entry @p pde on its path (nullptr: no PD node): the PD leaf
     * when @p avpn starts a huge mapping, else the 4KB PTE slot. Returns
     * nullptr when @p avpn lies strictly inside a huge page or no PT
     * node exists.
     */
    std::uint64_t *anchorSlot(std::uint64_t *pde, Vpn avpn, bool &is_huge);
    std::uint64_t *findAnchorSlot(Vpn avpn, bool &is_huge);
    const std::uint64_t *findAnchorSlot(Vpn avpn, bool &is_huge) const;

    /**
     * Call fn(chunk, avpn, slot, is_huge) for every @p distance-aligned
     * anchor VPN of @p map inside [begin, end), in VA order, with its
     * anchorSlot(). Anchors in one 2MB block share its PD entry, which
     * is looked up once per block.
     */
    template <typename Fn>
    void forEachAnchorSlot(const MemoryMap &map, AnchorDist distance,
                           Vpn begin, Vpn end, Fn &&fn);
};

} // namespace atlb

#endif // ANCHORTLB_OS_PAGE_TABLE_HH
