/**
 * @file
 * Multi-region anchor MMU — the paper's Section 4.2 extension.
 *
 * Hardware additions over the single-distance anchor MMU: a small
 * region table holding (start VPN, end VPN, anchor distance) triples,
 * searched in parallel with the L1/L2 lookups exactly like RMM's range
 * TLB searches ranges — which is why its capacity must stay small. On
 * an L2 regular miss, the matching region supplies the distance used to
 * form the anchor VPN and key; everything else follows the Table 2
 * flow.
 *
 * Anchor keys embed log2(distance) so that two regions with different
 * distances can never alias onto each other's entries. A VPN whose
 * anchor VPN falls before its region's start gets no anchor service
 * (the region table makes this check trivial in hardware): the anchor
 * slot there belongs to the neighbouring region and was encoded with a
 * different distance.
 */

#ifndef ANCHORTLB_MMU_REGION_ANCHOR_MMU_HH
#define ANCHORTLB_MMU_REGION_ANCHOR_MMU_HH

#include <vector>

#include "mmu/mmu.hh"
#include "os/region_partitioner.hh"
#include "tlb/set_assoc_tlb.hh"

namespace atlb
{

/** Statistics specific to the multi-region pipeline. */
struct RegionAnchorStats
{
    std::uint64_t anchor_hits = 0;
    std::uint64_t anchor_fills = 0;
    std::uint64_t regular_fills = 0;
    /** Accesses that matched no region (served at default distance). */
    std::uint64_t region_misses = 0;
};

/** Anchor pipeline with per-VA-region distances. */
class RegionAnchorMmu : public Mmu
{
  public:
    /** Maximum region-table entries (parallel search budget). */
    static constexpr unsigned maxRegions = 16;

    /**
     * @param partition regions + default distance; the page table must
     *                  have been built with buildRegionAnchorPageTable
     *                  over the same partition.
     */
    RegionAnchorMmu(const MmuConfig &config, const PageTable &table,
                    RegionPartition partition,
                    std::string name = "region-anchor");

    /** Kills the page's entries and its region's covering anchor. */
    void invalidatePage(Vpn vpn) override;

    /**
     * Cross-ASID shootdown. Anchor keys need the target's region table,
     * which is only loaded for the running process, so a non-current
     * target falls back to invalidateAsid (see Mmu::invalidatePage).
     */
    void invalidatePage(Vpn vpn, Asid target) override;

    /** Loads the new process's table and region table. */
    void switchProcess(const ProcessContext &ctx) override;

    const SetAssocTlb &l2Tlb() const { return l2_; }
    const RegionAnchorStats &regionStats() const { return stats_; }
    const RegionPartition &partition() const { return partition_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Adds the unified-L2 4K/2M sets. The anchor set's key needs the
     * region lookup (a map walk) — too expensive for a prefetch hint.
     */
    void prefetchTranslate(Vpn vpn) const override;

  private:
    SetAssocTlb l2_;
    RegionPartition partition_;
    RegionAnchorStats stats_;

    /** Region containing @p vpn, or nullptr. */
    const AnchorRegion *regionFor(Vpn vpn) const;

    /**
     * L2 key for an anchor: distance-tagged so regions never alias.
     * log2(distance) <= 16 needs 5 bits; packing it at bit 43 fills
     * the 48-bit scheme-key budget exactly — the bits above belong to
     * the ASID tag (tlb/set_assoc_tlb.hh) and must stay clear.
     */
    static constexpr unsigned anchorKeyLog2Shift = 43;
    static_assert(anchorKeyLog2Shift + 5 == tlbKeyAsidShift);

    static TlbKey
    anchorKey(Vpn avpn, AnchorDist distance)
    {
        // Tag-word packing, not page math.
        return TlbKey{distance.keyOf(avpn).raw() |
                      (static_cast<std::uint64_t>(distance.log2())
                       << anchorKeyLog2Shift)}; // lint-allow: page-shift
    }
};

} // namespace atlb

#endif // ANCHORTLB_MMU_REGION_ANCHOR_MMU_HH
