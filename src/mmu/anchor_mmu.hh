/**
 * @file
 * Hybrid TLB coalescing MMU — the paper's contribution (Section 3) and
 * its multi-region generalisation (Section 4.2).
 *
 * The unified L2 TLB (1024-entry 8-way, Table 3) holds regular 4KB
 * entries, regular 2MB entries, and anchor entries side by side. For a
 * VPN that misses on the regular entries, the MMU computes the anchor
 * VPN by clearing the low log2(distance) bits and looks the anchor up in
 * the same L2; a hit whose contiguity covers the requested VPN completes
 * translation by adding (VPN - AVPN) to the anchor's physical frame
 * (Fig. 5b). Anchor entries are indexed by the bits immediately above
 * the distance bits (Fig. 6) so consecutive anchors spread over all TLB
 * sets; we realise this by keying anchors with AVPN >> log2(distance).
 *
 * The L2 miss flow follows Table 2 exactly:
 *
 *   regular | anchor | contiguity |
 *     hit   |   -    |     -      | done (7 cycles)
 *     miss  |  hit   |   match    | done (8 cycles)
 *     miss  |  hit   |  mismatch  | walk; fill regular entry
 *     miss  |  miss  |   match    | walk; fill anchor entry only
 *     miss  |  miss  |  mismatch  | walk; fill regular entry only
 *
 * On a walk both the regular PTE and the anchor PTE arrive (the anchor
 * check is off the critical path); only one of the two entries is
 * inserted, keeping the TLB free of redundant translations.
 *
 * The distance comes from a per-process region table: at most
 * maxRegions (start VPN, end VPN, distance) triples plus a default
 * distance, searched in parallel with the L1/L2 lookups like RMM's
 * range TLB — which is why its capacity stays small. The paper's
 * single distance register is the table with no regions. A VPN whose
 * anchor VPN falls before its region's start gets no anchor service:
 * that anchor slot belongs to the neighbouring region and was swept
 * with a different distance. Every anchor key carries log2(distance),
 * so regions with different distances never alias onto each other's
 * entries. The table is restored on context switch; changing it
 * in-process invalidates the TLBs (paper Section 3.3).
 */

#ifndef ANCHORTLB_MMU_ANCHOR_MMU_HH
#define ANCHORTLB_MMU_ANCHOR_MMU_HH

#include "mmu/mmu.hh"
#include "os/region_partitioner.hh"
#include "tlb/set_assoc_tlb.hh"

namespace atlb
{

/** Per-hit-type breakdown used for paper Table 5. */
struct AnchorMmuStats
{
    std::uint64_t anchor_hits = 0;
    std::uint64_t anchor_partial_misses = 0; //!< anchor hit, contig miss
    std::uint64_t anchor_fills = 0;
    std::uint64_t regular_fills = 0;
};

/** Anchor-based hybrid coalescing pipeline. */
class AnchorMmu : public Mmu
{
  public:
    /** Maximum region-table entries (parallel search budget). */
    static constexpr unsigned maxRegions = 16;

    /**
     * Bit of an anchor key that holds log2(distance). log2(distance)
     * <= 16 needs 5 bits; packing it at bit 43 fills the 48-bit
     * scheme-key budget exactly — the bits above belong to the ASID
     * tag (tlb/set_assoc_tlb.hh) and must stay clear.
     */
    static constexpr unsigned anchorKeyLog2Shift = 43;
    static_assert(anchorKeyLog2Shift + 5 == tlbKeyAsidShift);

    /**
     * Single-distance MMU: a region table with no regions.
     *
     * @param distance anchor distance; its page count must be a power
     *                 of two in [2, max_contiguity]. The page table
     *                 must have been swept with the same distance.
     */
    AnchorMmu(const MmuConfig &config, const PageTable &table,
              AnchorDist distance, std::string name = "anchor");

    /**
     * @param partition regions + default distance; the page table must
     *                  have been built with buildRegionAnchorPageTable
     *                  over the same partition.
     */
    AnchorMmu(const MmuConfig &config, const PageTable &table,
              RegionPartition partition,
              std::string name = "region-anchor");

    /**
     * Loads the new process's table and its region table
     * (ctx.partition), or ctx.anchor_distance as a table with no
     * regions when ctx.partition is null.
     */
    void switchProcess(const ProcessContext &ctx) override;

    /**
     * Nested mode supported: anchor coverage is clipped to runs that
     * are contiguous in the host dimension too, so combined GVA -> HPA
     * arithmetic stays exact.
     */
    bool supportsNested() const override { return true; }

    /**
     * Load @p distance as a table with no regions (after the OS has
     * re-swept the page table); flushes all TLBs like the paper's
     * shootdown.
     */
    void setDistance(AnchorDist distance);

    /**
     * The default distance, used outside every region: the paper's
     * distance register when the table has no regions.
     */
    AnchorDist distance() const { return partition_.default_distance; }

    /** Distance of the region containing @p vpn, else the default. */
    AnchorDist distanceFor(Vpn vpn) const;

    const SetAssocTlb &l2Tlb() const { return l2_; }
    /** Mutable L2 for corruption-injection tests (invariant checkers). */
    SetAssocTlb &l2TlbForTest() { return l2_; }
    const AnchorMmuStats &anchorStats() const { return anchor_stats_; }

    /**
     * L2 key for the anchor entry at @p avpn swept with @p distance:
     * the Fig. 6 group key, tagged with log2(distance).
     */
    static TlbKey
    anchorKey(Vpn avpn, AnchorDist distance)
    {
        // Tag-word packing, not page math.
        return TlbKey{distance.keyOf(avpn).raw() |
                      (static_cast<std::uint64_t>(distance.log2())
                       << anchorKeyLog2Shift)}; // lint-allow: page-shift
    }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Invalidates the page's own entries *and* the anchor entry of its
     * block: the anchor's cached contiguity may claim the remapped
     * page. Anchor keys are formed with the loaded region table, so a
     * target other than the running address space falls back to
     * invalidateAsid.
     */
    void invalidateL2(Vpn vpn, Asid target) override;

    /**
     * Adds the unified-L2 sets probed on a miss: 4K, 2M and — with no
     * region table — the anchor set. With regions, the anchor key
     * needs the region search, too expensive for a prefetch hint.
     */
    void prefetchTranslate(Vpn vpn) const override;

  private:
    SetAssocTlb l2_;
    RegionPartition partition_;
    AnchorMmuStats anchor_stats_;

    /** Region containing @p vpn, or nullptr. */
    const AnchorRegion *regionFor(Vpn vpn) const;

    /** Validate @p partition against the hardware, then load it. */
    void load(RegionPartition partition);
};

} // namespace atlb

#endif // ANCHORTLB_MMU_ANCHOR_MMU_HH
