/**
 * @file
 * Redundant Memory Mappings MMU (Karakostas et al., ISCA 2015; paper
 * Section 2.1 and Table 3).
 *
 * RMM keeps the baseline two-level TLB and adds a 32-entry fully-
 * associative range TLB backed by an OS-maintained range table that
 * redundantly maps every contiguous region of the process. On an L2
 * miss the range TLB is searched; on a full miss the walker fetches the
 * 4KB/2MB entry for the critical access and the range-table walker
 * refills the containing range.
 *
 * Our range table is the MemoryMap itself: each maximal VA/PA-contiguous
 * chunk is one range, which is exactly what an eager-paging OS would
 * record.
 */

#ifndef ANCHORTLB_MMU_RMM_MMU_HH
#define ANCHORTLB_MMU_RMM_MMU_HH

#include "mmu/baseline_mmu.hh"
#include "tlb/range_tlb.hh"

namespace atlb
{

class MemoryMap;

/** Baseline TLBs plus a fully-associative range TLB. */
class RmmMmu : public BaselineMmu
{
  public:
    RmmMmu(const MmuConfig &config, const PageTable &table,
           const MemoryMap &range_table, std::string name = "rmm");

    /** Loads the new process's table and range table. */
    void switchProcess(const ProcessContext &ctx) override;

    const RangeTlb &rangeTlb() const { return range_tlb_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Also kills any cached range covering the page. Range slots carry
     * their own ASID: the cross-ASID shootdown is exact.
     */
    void invalidateL2(Vpn vpn, Asid target) override;

  private:
    const MemoryMap *range_table_;
    RangeTlb range_tlb_;
};

} // namespace atlb

#endif // ANCHORTLB_MMU_RMM_MMU_HH
