#include "table_builder.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "os/memory_map.hh"
#include "os/region_partitioner.hh"

namespace atlb
{

namespace
{

/** How buildPageTable lays one piece of a chunk into the table. */
enum class Piece
{
    Run4K,   //!< 4KB PTEs
    Huge2M,  //!< PD-level 2MB leaves
    Giant1G, //!< PDPT-level 1GB leaves
};

/**
 * Split chunk @p c into the pieces buildPageTable maps and call
 * fn(piece, lo, hi) for each [lo, hi), in VA order: 1GB leaves where
 * @p use_1g allows, 2MB leaves where @p use_thp allows, 4KB PTEs for
 * the rest.
 */
template <typename Fn>
void
forEachPiece(const Chunk &c, bool use_thp, bool use_1g, Fn &&fn)
{
    // A chunk is promotable iff VA and PA agree modulo the block size:
    // then every aligned virtual block inside it has a naturally
    // aligned physical base. (offsetIn equality is the typed spelling
    // of (ppn - vpn) % block == 0.)
    const bool thp_ok =
        use_thp && c.ppn.offsetIn(hugePages) == c.vpn.offsetIn(hugePages);
    const bool giant_ok =
        use_1g && c.ppn.offsetIn(giantPages) == c.vpn.offsetIn(giantPages);
    Vpn vpn = c.vpn;
    // Lay [vpn, limit) out with 2MB leaves where possible, 4KB otherwise.
    const auto upTo = [&](Vpn limit) {
        if (thp_ok) {
            const Vpn huge_lo = std::min(vpn.alignUp(hugePages), limit);
            const Vpn huge_hi =
                std::max(limit.alignDown(hugePages), huge_lo);
            if (vpn < huge_lo)
                fn(Piece::Run4K, vpn, huge_lo);
            if (huge_lo < huge_hi)
                fn(Piece::Huge2M, huge_lo, huge_hi);
            vpn = huge_hi;
        }
        if (vpn < limit)
            fn(Piece::Run4K, vpn, limit);
        vpn = limit;
    };
    const Vpn end = c.vpnEnd();
    if (giant_ok) {
        const Vpn giant_lo = std::min(vpn.alignUp(giantPages), end);
        const Vpn giant_hi = std::max(end.alignDown(giantPages), giant_lo);
        upTo(giant_lo);
        if (giant_lo < giant_hi)
            fn(Piece::Giant1G, giant_lo, giant_hi);
        vpn = giant_hi;
    }
    upTo(end);
}

/**
 * Distinct aligned blocks of @p pages pages that a VA-ordered sequence
 * of disjoint ranges touches: one radix node each, at the level whose
 * entries span @p pages / 512.
 */
class BlockCounter
{
  public:
    explicit BlockCounter(std::uint64_t pages) : pages_(pages) {}

    void cover(Vpn lo, Vpn hi)
    {
        const std::uint64_t first = lo.raw() / pages_;
        const std::uint64_t last = (hi.raw() - 1) / pages_;
        // Ranges ascend, so only the last block counted can recur.
        count_ += last - first + (first == last_ ? 0 : 1);
        last_ = last;
    }

    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t pages_;
    std::uint64_t last_ = ~0ULL;
    std::uint64_t count_ = 0;
};

} // namespace

PageTable
buildPageTable(const MemoryMap &map, bool use_thp, bool use_1g)
{
    ATLB_ASSERT(map.finalized(), "building table from unfinalized map");
    // Count the nodes first, so the arena is sized once and mapping
    // never re-copies it: a PT per 2MB block holding a 4KB page, a PD
    // per 1GB block below the PDPT leaves, a PDPT per 512GB.
    BlockCounter pts(hugePages);
    BlockCounter pds(giantPages);
    BlockCounter pdpts(giantPages * PageTable::fanout);
    for (const Chunk &c : map.chunks()) {
        forEachPiece(c, use_thp, use_1g, [&](Piece piece, Vpn lo, Vpn hi) {
            if (piece == Piece::Run4K)
                pts.cover(lo, hi);
            if (piece != Piece::Giant1G)
                pds.cover(lo, hi);
            pdpts.cover(lo, hi);
        });
    }
    const std::uint64_t nodes =
        1 + pdpts.count() + pds.count() + pts.count();

    PageTable table;
    table.reserveNodes(nodes);
    for (const Chunk &c : map.chunks()) {
        forEachPiece(c, use_thp, use_1g, [&](Piece piece, Vpn lo, Vpn hi) {
            switch (piece) {
              case Piece::Run4K:
                table.map4KRun(lo, c.translate(lo), hi - lo);
                break;
              case Piece::Huge2M:
                for (Vpn vpn = lo; vpn < hi; vpn += hugePages)
                    table.map2M(vpn, c.translate(vpn));
                break;
              case Piece::Giant1G:
                for (Vpn vpn = lo; vpn < hi; vpn += giantPages)
                    table.map1G(vpn, c.translate(vpn));
                break;
            }
        });
    }
    ANCHOR_DCHECK_EQ(table.nodeCount(), nodes);
    return table;
}

PageTable
buildAnchorPageTable(const MemoryMap &map, AnchorDist distance)
{
    PageTable table = buildPageTable(map, true);
    table.sweepAnchors(map, distance);
    return table;
}

PageTable
buildRegionAnchorPageTable(const MemoryMap &map,
                           const RegionPartition &partition)
{
    PageTable table = buildPageTable(map, true);
    for (const AnchorRegion &region : partition.regions) {
        table.sweepAnchorsRange(map, region.distance, region.begin,
                                region.end);
    }
    return table;
}

} // namespace atlb
