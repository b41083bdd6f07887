/**
 * @file
 * CoLT MMU (Pham et al., "CoLT: Coalesced Large-Reach TLBs",
 * MICRO 2012) with its fully-associative mode — the paper's Section 2.1
 * notes that CoLT-FA "supports a much larger number of coalesced
 * contiguous pages [but] requires a fully associative lookup, which in
 * turn restricts the number of entries available".
 *
 * Structure: the set-associative coalesced partition works like the
 * cluster TLB (aligned groups with a validity bitmap); on top of it, a
 * small fully-associative array holds variable-length runs of up to
 * colt_fa_max_pages contiguous pages, found by the walker scanning
 * neighbouring PTEs. Long runs go to the FA part, short ones to the SA
 * part, singletons to the regular TLB.
 */

#ifndef ANCHORTLB_MMU_COLT_MMU_HH
#define ANCHORTLB_MMU_COLT_MMU_HH

#include "mmu/mmu.hh"
#include "tlb/range_tlb.hh"
#include "tlb/set_assoc_tlb.hh"

namespace atlb
{

/** HW coalescing with set-associative and fully-associative parts. */
class ColtMmu : public Mmu
{
  public:
    ColtMmu(const MmuConfig &config, const PageTable &table,
            std::string name = "colt-fa");

    const SetAssocTlb &regularTlb() const { return regular_; }
    const SetAssocTlb &coalescedTlb() const { return coalesced_; }
    const RangeTlb &faTlb() const { return fa_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Kills the page's entries and any coalesced entry covering it.
     * CoLT keys are register-free: the cross-ASID shootdown is exact.
     */
    void invalidateL2(Vpn vpn, Asid target) override;

    /** Adds the regular and coalesced L2 sets probed on a miss. */
    void prefetchTranslate(Vpn vpn) const override;

  private:
    SetAssocTlb regular_;
    SetAssocTlb coalesced_;
    RangeTlb fa_;

    /**
     * Maximal contiguous run around @p vpn, discovered by scanning
     * PTEs within the aligned colt_fa_max_pages window (bounded PTE
     * fetch, like the HW's cache-line scans).
     */
    RangeEntry scanRun(Vpn vpn, Ppn vpn_frame) const;
};

} // namespace atlb

#endif // ANCHORTLB_MMU_COLT_MMU_HH
