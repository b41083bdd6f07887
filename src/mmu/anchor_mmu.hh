/**
 * @file
 * Hybrid TLB coalescing MMU — the paper's contribution (Section 3).
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
 * The anchor distance is a per-process register restored on context
 * switch; changing it invalidates the TLBs (paper Section 3.3).
 */

#ifndef ANCHORTLB_MMU_ANCHOR_MMU_HH
#define ANCHORTLB_MMU_ANCHOR_MMU_HH

#include "mmu/mmu.hh"
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
    /**
     * @param distance anchor distance; its page count must be a power
     *                 of two in [2, max_contiguity]. The page table
     *                 must have been swept with the same distance.
     */
    AnchorMmu(const MmuConfig &config, const PageTable &table,
              AnchorDist distance, std::string name = "anchor");

    /**
     * Invalidates the page's own entries *and* the anchor entry of its
     * block: the anchor's cached contiguity may claim the remapped
     * page.
     */
    void invalidatePage(Vpn vpn) override;

    /**
     * Cross-ASID shootdown. Anchor keys are formed with the current
     * distance register, so a target other than the running address
     * space falls back to invalidateAsid (see Mmu::invalidatePage).
     */
    void invalidatePage(Vpn vpn, Asid target) override;

    /** Loads the new process's table and anchor-distance register. */
    void switchProcess(const ProcessContext &ctx) override;

    /**
     * Nested mode supported: anchor coverage is clipped to runs that
     * are contiguous in the host dimension too, so combined GVA -> HPA
     * arithmetic stays exact.
     */
    bool supportsNested() const override { return true; }

    /**
     * Change the anchor distance register (after the OS has re-swept
     * the page table); flushes all TLBs like the paper's shootdown.
     */
    void setDistance(AnchorDist distance);

    AnchorDist distance() const { return distance_; }
    const SetAssocTlb &l2Tlb() const { return l2_; }
    /** Mutable L2 for corruption-injection tests (invariant checkers). */
    SetAssocTlb &l2TlbForTest() { return l2_; }
    const AnchorMmuStats &anchorStats() const { return anchor_stats_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /** Adds the unified-L2 sets (4K, 2M, anchor) probed on a miss. */
    void prefetchTranslate(Vpn vpn) const override;

  private:
    SetAssocTlb l2_;
    AnchorDist distance_;
    AnchorMmuStats anchor_stats_;

    /** Anchor VPN of @p vpn under the current distance. */
    Vpn anchorOf(Vpn vpn) const { return distance_.anchorOf(vpn); }

    /** L2 key for the anchor entry at @p avpn (Fig. 6 indexing). */
    TlbKey anchorKey(Vpn avpn) const { return distance_.keyOf(avpn); }
};

} // namespace atlb

#endif // ANCHORTLB_MMU_ANCHOR_MMU_HH
