/**
 * @file
 * Cluster TLB MMU (Pham et al., "Increasing TLB reach by exploiting
 * clustering in page translations", HPCA 2014; paper Section 2.1).
 *
 * The L2 is statically partitioned into a regular TLB (768-entry 6-way)
 * and a cluster TLB (320-entry 5-way) whose entries cover an aligned
 * cluster of 8 contiguous VPNs. On a miss, the page-walk hardware scans
 * the 8 PTEs sharing the requested PTE's cache line and coalesces the
 * pages whose physical frames sit at matching offsets from the cluster
 * base; if at least two coalesce, a cluster entry is filled, otherwise a
 * regular entry.
 *
 * The plain "cluster" variant ignores 2MB pages (the original design);
 * "cluster-2MB" additionally caches 2MB translations in the regular
 * partition, which is the stronger baseline the paper adds for fairness.
 */

#ifndef ANCHORTLB_MMU_CLUSTER_MMU_HH
#define ANCHORTLB_MMU_CLUSTER_MMU_HH

#include "mmu/mmu.hh"

namespace atlb
{

/** HW-coalescing cluster TLB pipeline. */
class ClusterMmu : public Mmu
{
  public:
    /**
     * @param use_2mb enable 2MB entries in the regular partition
     *                (the paper's "cluster-2MB" configuration).
     */
    ClusterMmu(const MmuConfig &config, const PageTable &table,
               bool use_2mb, std::string name = "");

    const SetAssocTlb &regularTlb() const { return regular_; }
    const SetAssocTlb &clusterTlb() const { return cluster_; }

  protected:
    TranslationResult translateL2(Vpn vpn) override;

    /**
     * Also kills the cluster entry covering the page's group. Cluster
     * keys are register-free: the cross-ASID shootdown is exact.
     */
    void invalidateL2(Vpn vpn, Asid target) override;

    /** Adds the regular and cluster L2 sets probed on a miss. */
    void prefetchTranslate(Vpn vpn) const override;

  private:
    SetAssocTlb regular_;
    SetAssocTlb cluster_;
    bool use_2mb_;
    unsigned span_log2_; //!< log2(cluster_span), for cluster TlbKeys

    /**
     * Coalesce the aligned PTE group containing @p vpn into a validity
     * bitmap relative to the cluster base frame.
     */
    std::uint32_t coalesceGroup(Vpn vpn, Ppn vpn_frame) const;
};

} // namespace atlb

#endif // ANCHORTLB_MMU_CLUSTER_MMU_HH
