/**
 * @file
 * Baseline and THP MMUs: a conventional two-level TLB hierarchy.
 *
 * The unified L2 holds 4KB and 2MB entries (paper Table 3, shared
 * 1024-entry 8-way). "Base" and "THP" differ only in the page table the
 * OS built: without THP every mapping is 4KB; with THP, 2MB-eligible
 * regions are huge-mapped and the same hardware covers 512x more per
 * entry.
 */

#ifndef ANCHORTLB_MMU_BASELINE_MMU_HH
#define ANCHORTLB_MMU_BASELINE_MMU_HH

#include "mmu/mmu.hh"

namespace atlb
{

/** Conventional 4KB/2MB two-level TLB pipeline. */
class BaselineMmu : public Mmu
{
  public:
    BaselineMmu(const MmuConfig &config, const PageTable &table,
                std::string name = "base");

    /** Per-page fills are host-safe: nested mode is supported. */
    bool supportsNested() const override { return true; }

    const SetAssocTlb &l2Tlb() const { return l2_; }
    const SetAssocTlb &l2Tlb1G() const { return l2_1g_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Per-page keys carry no per-process register state, so the
     * cross-ASID shootdown is exact.
     */
    void invalidateL2(Vpn vpn, Asid target) override;

    /** Adds the unified-L2 sets this scheme probes on an L1 miss. */
    void prefetchTranslate(Vpn vpn) const override;

    /**
     * Probe the regular L2 entries for @p vpn: 4KB, then 2MB, then the
     * 1GB side table. On a hit, sets @p res and returns true.
     */
    bool lookupRegular(Vpn vpn, TranslationResult &res);

    /** Fill the L2 with the result of a walk (4KB/2MB/1GB entry). */
    void fillL2(Vpn vpn, const TranslationResult &res);

    SetAssocTlb l2_;
    /** Separate small L2 for 1GB pages (paper Section 2.1). */
    SetAssocTlb l2_1g_;
};

} // namespace atlb

#endif // ANCHORTLB_MMU_BASELINE_MMU_HH
