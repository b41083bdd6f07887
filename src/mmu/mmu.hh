/**
 * @file
 * Abstract MMU: L1 TLBs plus a scheme-specific L2 pipeline.
 *
 * Every scheme shares the L1 organisation of paper Table 3 (64-entry
 * 4-way for 4KB, 32-entry 4-way for 2MB; hits fully hidden). On an L1
 * miss the scheme-specific translateL2() runs, and a page shootdown
 * ends in the scheme's invalidateL2(); subclasses implement the
 * baseline, cluster, CoLT, RMM and anchor pipelines. Latency
 * accounting:
 *
 *   L1 hit                 : 0 cycles
 *   L2 regular entry hit   : l2_hit_cycles (7)
 *   coalesced-structure hit: coalesced_hit_cycles (8)
 *   page walk              : lookup latency + walk_cycles (50)
 *
 * Subclasses return both the physical page and the attribution bucket so
 * the simulator can reproduce the paper's CPI breakdowns (Figs. 10-11)
 * and the L2 hit-type table (Table 5).
 */

#ifndef ANCHORTLB_MMU_MMU_HH
#define ANCHORTLB_MMU_MMU_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "common/types.hh"
#include "mmu/mmu_config.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/walk_cache.hh"
#include "trace/access.hh"

namespace atlb
{

class MemoryMap;
class PageTable;
class RangeTlb;
struct RegionPartition;

/**
 * How many *probes* ahead the batch kernel prefetches the translate
 * path (prefetchTranslate: the scheme's L2 sets and the page-table
 * leaf line) when its Isa policy prefetches. Counted in probes, not
 * accesses: L0-filtered accesses touch no TLB state, so distance in
 * access space would mostly aim at accesses that need no warming and
 * the lead time would collapse on filter-heavy streams. A probe costs
 * tens of nanoseconds (L2 lookup, often a walk), so 8 probes of lead
 * comfortably covers a DRAM miss; sweeping the constant through
 * bench_hotpath measured 4..16 equivalent within noise on the mcf
 * cells and a slow fall-off past 32 (prefetches start evicting lines
 * the current probe still wants).
 */
constexpr std::size_t kBatchPrefetchDistance = 8;

/**
 * Everything the hardware needs when the OS schedules a process: the
 * page-table root (CR3), and — for the coalescing schemes — the anchor
 * distance register, the range table, or the region table. Pointers
 * not used by a given scheme may stay null.
 */
struct ProcessContext
{
    const PageTable *table = nullptr;
    const MemoryMap *map = nullptr; //!< RMM range table
    AnchorDist anchor_distance{};   //!< anchor scheme, no region table
    /**
     * Anchor scheme's region table (paper Section 4.2). When set, the
     * anchor MMU loads it in place of anchor_distance; when null it
     * loads anchor_distance as a table with no regions.
     */
    const RegionPartition *partition = nullptr;
    /** Address-space tag under SwitchPolicy::Asid (0 = untagged). */
    Asid asid{};
};

/**
 * What a context switch does to translation state (paper Section 3.3
 * vs the ASID-tagged alternative).
 *
 * Flush is the x86 Linux convention the paper assumes: every switch
 * flushes all TLBs, so per-process scheme registers (anchor distance,
 * region table) can change for free — but each quantum restarts cold.
 * Asid retains entries across switches by tagging them with the
 * process's ASID: warm restarts, but a remap in *any* resident address
 * space must now be shot down explicitly (see MmuConfig's shootdown
 * cost model) instead of dying in the next flush.
 */
enum class SwitchPolicy : std::uint8_t
{
    Flush, //!< flush-on-switch (the paper's x86 assumption)
    Asid,  //!< ASID-tagged retention across switches
};

/** Where a translation was satisfied. */
enum class HitLevel : std::uint8_t
{
    L1,        //!< L1 4KB or 2MB TLB
    L2Regular, //!< regular (4KB/2MB) entry in the L2
    Coalesced, //!< anchor / cluster / range structure
    PageWalk,  //!< full page-table walk
};

/** Result of translating one virtual address. */
struct TranslationResult
{
    Ppn ppn = invalidPpn;
    Cycles cycles = 0;
    HitLevel level = HitLevel::PageWalk;
    PageSize size = PageSize::Base4K;
    /**
     * The guest-physical frame the walk resolved before the host
     * dimension (equals ppn when running natively). Only meaningful
     * when level == PageWalk: TLB hits cache the combined translation
     * and no longer know the guest frame.
     */
    Ppn guest_ppn = invalidPpn;
};

/** Aggregate per-MMU statistics. */
struct MmuStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_regular_hits = 0;
    std::uint64_t coalesced_hits = 0;
    std::uint64_t page_walks = 0;
    Cycles translation_cycles = 0;
    /** Shootdown rounds charged (SwitchPolicy::Asid remaps). */
    std::uint64_t shootdowns = 0;
    /**
     * IPI cycles those rounds cost (MmuConfig's shootdown model).
     * Kept apart from translation_cycles: translation CPI stays
     * comparable across policies, and the shootdown tax is reported
     * (and charged into CPI) explicitly.
     */
    Cycles shootdown_cycles = 0;

    /** TLB misses as the paper counts them: full page walks. */
    std::uint64_t misses() const { return page_walks; }

    /** L2-level accesses (i.e. L1 misses). */
    std::uint64_t l2Accesses() const { return accesses - l1_hits; }

    /** Accumulate another stat block (all counters sum). */
    MmuStats &operator+=(const MmuStats &other)
    {
        accesses += other.accesses;
        l1_hits += other.l1_hits;
        l2_regular_hits += other.l2_regular_hits;
        coalesced_hits += other.coalesced_hits;
        page_walks += other.page_walks;
        translation_cycles += other.translation_cycles;
        shootdowns += other.shootdowns;
        shootdown_cycles += other.shootdown_cycles;
        return *this;
    }
};

/**
 * Per-batch counters of the batch translation kernel. Separate from
 * MmuStats so a caller (the simulator, the benches) can observe one
 * replay loop's behaviour — notably the L0 filter rate — without
 * snapshot arithmetic on the cumulative stats. All fields accumulate
 * across translateBatch calls on the same struct.
 */
struct BatchStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1_hits = 0;
    /**
     * Accesses short-circuited by the L0 same-page filter (a subset of
     * l1_hits).
     */
    std::uint64_t l0_filtered = 0;

    BatchStats &operator+=(const BatchStats &other)
    {
        accesses += other.accesses;
        l1_hits += other.l1_hits;
        l0_filtered += other.l0_filtered;
        return *this;
    }
};

/**
 * Base MMU: owns the L1s, drives the scheme pipeline, accumulates stats.
 *
 * The page table is owned by the caller (the simulated OS); the MMU only
 * walks it.
 */
class Mmu
{
  public:
    Mmu(const MmuConfig &config, const PageTable &table, std::string name);
    virtual ~Mmu();

    Mmu(const Mmu &) = delete;
    Mmu &operator=(const Mmu &) = delete;

    /**
     * Translate one virtual address. Fatal if the address is unmapped
     * (the simulated workloads never touch unmapped memory).
     *
     * Inline so the common case — an L1 hit — never leaves the call
     * site: the inlined SetAssocTlb lookups and the stats update are
     * the entire fast path, and only L1 misses fall into the virtual
     * scheme pipeline (translateMiss -> translateL2). Checked builds
     * additionally re-walk the page table for every result (l1Hit,
     * noteMiss).
     */
    TranslationResult translate(VirtAddr va)
    {
        ++stats_.accesses;
        const Vpn vpn = vpnOf(va);
        if (const TlbEntry *e4k = l1_4k_.lookup(EntryKind::Page4K,
                                                pageKey(vpn))) {
            ++stats_.l1_hits;
            return l1Hit(vpn, *e4k, PageSize::Base4K);
        }
        if (const TlbEntry *e2m = l1_2m_.lookup(EntryKind::Page2M,
                                                hugeKey(vpn))) {
            ++stats_.l1_hits;
            return l1Hit(vpn, *e2m, PageSize::Huge2M);
        }
        return translateMiss(vpn);
    }

    /**
     * Translate @p n accesses in stream order, accumulating into the
     * MMU's stats and into @p batch. Counter-identical to calling
     * translate() on every element; the batch path exists purely to
     * make the replay loop fast. The one batch entry point for every
     * scheme and every build: the runBatchKernelVecT instantiation
     * chosen at construction. The equivalence suite
     * (tests/sim/test_batch_kernel.cc) and bench_hotpath compare it
     * against the translate() loop.
     */
    void translateBatch(const MemAccess *accesses, std::size_t n,
                        BatchStats &batch)
    {
        (this->*batch_kernel_)(accesses, n, batch);
    }

    /**
     * Invalidate all TLB state (context switch / shootdown): the L1s,
     * every registered scheme structure and the page-walk cache.
     */
    void flushAll();

    /**
     * Context switch: load @p ctx's page table and scheme-specific
     * state, then either flush the TLBs (SwitchPolicy::Flush, as the
     * x86 Linux kernel does, paper Section 3.3) or retag the L1s and
     * every registered scheme structure with @p ctx.asid
     * (SwitchPolicy::Asid), leaving other address spaces' entries
     * resident. @p ctx.table must be non-null. Schemes override to load
     * their per-process registers, then call the base.
     */
    virtual void switchProcess(const ProcessContext &ctx);

    /**
     * Choose what switchProcess does to TLB state. Takes effect from
     * the next switch; the default is Flush, the paper's assumption.
     */
    void setSwitchPolicy(SwitchPolicy policy) { policy_ = policy; }
    SwitchPolicy switchPolicy() const { return policy_; }

    /** The address space currently tagged onto TLB operations. */
    Asid currentAsid() const { return asid_; }

    /**
     * Targeted shootdown for one page after the OS changed its
     * mapping: invalidates every TLB entry that could translate
     * @p vpn — including coalesced entries that merely *cover* it
     * (the paper's Section 3.3 notes the shootdown must invalidate
     * anchor entries as well as page entries). Acts on the current
     * ASID: every registered TLB carries it, so this is the
     * ASID-qualified form at currentAsid().
     */
    void invalidatePage(Vpn vpn) { invalidatePage(vpn, asid_); }

    /**
     * ASID-qualified page shootdown: invalidate @p target's entries
     * covering @p vpn while some other process may be running. Clears
     * the L0 filter and the L1 entries, then runs the scheme's
     * invalidateL2 hook.
     */
    void invalidatePage(Vpn vpn, Asid target);

    /**
     * Drop every translation tagged with @p target (address-space
     * teardown, or the conservative arm of a cross-ASID shootdown)
     * from the L1s and every registered scheme structure. Entries of
     * other ASIDs stay resident.
     */
    void invalidateAsid(Asid target);

    /**
     * Account one TLB shootdown round against this MMU: @p responders
     * remote cores take the IPI for a @p pages -page invalidation
     * batch (see shootdownCost). Pure accounting — the caller issues
     * the invalidations themselves.
     */
    void chargeShootdown(unsigned responders, std::uint64_t pages)
    {
        ++stats_.shootdowns;
        stats_.shootdown_cycles +=
            shootdownCost(config_, responders, pages);
    }

    /**
     * Enter nested (virtualized) mode: the MMU's page table becomes
     * the *guest* table (GVA -> GPA) and walks continue through
     * @p host_table (GPA -> HPA) at 2D-walk cost; TLBs then cache
     * combined GVA -> HPA translations. @p host_map is the host
     * mapping's chunk view, used by coalescing schemes to clip
     * coverage to runs contiguous in *both* dimensions. Pass nullptrs
     * to return to native mode. Flushes all TLB state.
     */
    void setNested(const PageTable *host_table, const MemoryMap *host_map);

    /** True when translating through two dimensions. */
    bool nested() const { return host_table_ != nullptr; }

    /**
     * Whether this scheme's fill logic understands the host dimension
     * (clipping coalesced coverage to host-contiguous runs). Schemes
     * that don't must not be put in nested mode.
     */
    virtual bool supportsNested() const { return false; }

    const MmuStats &stats() const { return stats_; }

    const std::string &name() const { return name_; }
    const MmuConfig &config() const { return config_; }

    /** Current process's page table (the translation ground truth). */
    const PageTable &pageTable() const { return *table_; }

    /** Host (GPA -> HPA) table in nested mode; null when native. */
    const PageTable *hostPageTable() const { return host_table_; }

    /** L1 structures exposed for tests and occupancy reports. */
    const SetAssocTlb &l1Tlb4K() const { return l1_4k_; }
    const SetAssocTlb &l1Tlb2M() const { return l1_2m_; }

  protected:
    /**
     * Scheme pipeline, invoked after an L1 miss. Must set ppn, level and
     * cycles (excluding nothing: the returned cycles are charged as-is)
     * and fill whatever L2-level structures the scheme maintains. The L1
     * fill is handled by the base class.
     */
    virtual TranslationResult translateL2(Vpn vpn) = 0;

    /**
     * Scheme shootdown, invoked by invalidatePage after the L1s: drop
     * @p target's entries in the scheme's structures that translate or
     * cover @p vpn. Schemes whose coalesced keys depend on per-process
     * registers (the anchor distance, the region table) can only form
     * exact keys for the address space whose registers are loaded; for
     * any other target they conservatively fall back to invalidateAsid
     * — over-invalidation, never a stale survivor. Schemes with
     * register-free keys (baseline, cluster, CoLT, RMM) invalidate
     * exactly.
     */
    virtual void invalidateL2(Vpn vpn, Asid target) = 0;

    /** Walk the page table; panics if @p vpn is unmapped. */
    TranslationResult walkPageTable(Vpn vpn, Cycles lookup_cycles);

    /**
     * Warm the translate path for @p vpn, issued by the batch kernel
     * kBatchPrefetchDistance probes before the lookup. The base
     * prefetches the page-table leaf line (PageTable::prefetchWalk);
     * schemes extend it with the L2 sets their translateL2 probes
     * first. Must stay semantics-free — prefetch hints only, no
     * architectural reads, no stats.
     */
    virtual void prefetchTranslate(Vpn vpn) const;

    /**
     * Register one of the scheme's TLB structures, once, from its
     * constructor. flushAll, invalidateAsid and an ASID-policy
     * switchProcess then flush, purge and retag it along with the L1s,
     * so a scheme names each structure here and nowhere else outside
     * its own pipeline. The structure must be a member of the MMU,
     * so it outlives every walk.
     */
    void registerTlb(SetAssocTlb &tlb) { tlbs_.push_back(&tlb); }
    /** Same, for a fully-associative range TLB (CoLT, RMM). */
    void registerTlb(RangeTlb &tlb) { range_tlbs_.push_back(&tlb); }

    const MmuConfig config_;
    /** Current process's page table (swapped by switchProcess). */
    const PageTable *table_;
    /** Nested mode: host (GPA -> HPA) dimension; null when native. */
    const PageTable *host_table_ = nullptr;
    const MemoryMap *host_map_ = nullptr;

  private:
    std::string name_;
    SetAssocTlb l1_4k_;
    SetAssocTlb l1_2m_;
    /**
     * Every set-associative structure flushAll, invalidateAsid and
     * the ASID retag walk: the two L1s, then the scheme's L2s in
     * registration order.
     */
    std::vector<SetAssocTlb *> tlbs_;
    /** The scheme's range TLBs, walked the same way. */
    std::vector<RangeTlb *> range_tlbs_;
    SwitchPolicy policy_ = SwitchPolicy::Flush;
    Asid asid_{};
    /** Optional page-walk cache (config_.pwc_enabled). */
    std::unique_ptr<WalkCache> pwc_;
    MmuStats stats_;
    /** Member-function pointer type of the batch kernels. */
    using BatchKernelFn = void (Mmu::*)(const MemAccess *, std::size_t,
                                        BatchStats &);
    /**
     * The runBatchKernelVecT instantiation for the construction-time
     * SIMD level: the only dispatch indirection of the batch path,
     * paid once per batch.
     */
    BatchKernelFn batch_kernel_ = nullptr;

    /** Apply @p op to every registered structure (defined in mmu.cc). */
    template <class Op>
    void forEachTlb(Op op);

    /**
     * The batch loop, defined in mmu/batch_kernel.hh and instantiated
     * once per SIMD level: over ScalarIsa in mmu.cc, and in the per-ISA
     * TUs (mmu/batch_kernel_avx2.cc, compiled with -mavx2;
     * mmu/batch_kernel_neon.cc on aarch64), where the Isa policy's
     * probe and pre-pass inline into the loop. Dispatch is paid once
     * per batch — a per-lookup kernel pointer was measured to cost
     * more than the 4-way scan it replaced (DESIGN.md §7.3).
     *
     * Counter-identical to the translate() loop (DESIGN.md §7.2):
     *  - A per-chunk pre-pass finds each access's VPN and whether it
     *    repeats the previous access's page (carried across chunks,
     *    and across batches while the L0 filter is valid). Such an
     *    access is an L1 hit on an MRU entry, which re-probing would
     *    not change, so it is counted in bulk; only TlbStats
     *    lookups/hits and the LRU tick diverge, and SimResult reads
     *    neither.
     *  - The other accesses are probed in stream order, and an L1 miss
     *    runs translateL2 -> noteMiss as translateMiss does.
     *  - accesses/l1_hits accumulate in locals, flushed once per batch.
     *  - When Isa::prefetch holds, prefetchTranslate runs
     *    kBatchPrefetchDistance probes ahead; it reads nothing
     *    architecturally.
     *
     * Checked builds verify each L1 hit (l1Hit) and miss (noteMiss),
     * and the carried page's L1 entry when a batch opens on it
     * (verifyL0Carry): every other filtered access repeats a
     * translation verified earlier in the batch.
     */
    template <class Isa>
    void runBatchKernelVecT(const MemAccess *accesses, std::size_t n,
                            BatchStats &batch);

#if defined(__x86_64__)
    /** AVX2 instantiation; defined in mmu/batch_kernel_avx2.cc. */
    void batchKernelAvx2(const MemAccess *accesses, std::size_t n,
                         BatchStats &batch);
#endif
#if defined(__aarch64__)
    /** NEON instantiation; defined in mmu/batch_kernel_neon.cc. */
    void batchKernelNeon(const MemAccess *accesses, std::size_t n,
                         BatchStats &batch);
#endif

    /** Post-L1-miss pipeline: scheme L2, stats buckets, L1 fill. */
    TranslationResult translateMiss(Vpn vpn);
    /**
     * Account one L1 miss: bump the per-level bucket, charge the
     * cycles, fill L1, and verify @p res in checked builds. Shared by
     * translateMiss and the batch kernel so the paths cannot drift.
     */
    void noteMiss(Vpn vpn, const TranslationResult &res);

    /**
     * The translation L1 entry @p e gives @p vpn, verified in checked
     * builds: the one L1-hit result of translate() and the batch
     * kernel.
     */
    TranslationResult l1Hit(Vpn vpn, const TlbEntry &e, PageSize size) const
    {
        const TranslationResult res{
            size == PageSize::Huge2M ? e.ppn + hugeOffset(vpn) : e.ppn, 0,
            HitLevel::L1, size};
#ifdef ANCHORTLB_CHECKED
        verifyTranslation(vpn, res);
#endif
        return res;
    }
    void fillL1(Vpn vpn, const TranslationResult &res);

    /**
     * L0 same-page filter carry-over between batch-kernel runs. The
     * cached VPN is only trusted while *both* L1s report the same
     * lookup and mutation counts as when it was stored — i.e. nobody
     * probed or changed the TLBs in between (an interleaved per-access
     * translate() advances lookups; flush/invalidate/insert advance
     * mutations). flushAll/invalidatePage also clear it eagerly, so
     * correctness never rests on the counters alone.
     */
    Vpn l0_vpn_ = invalidVpn;
    bool l0_valid_ = false;
    std::uint64_t l0_lookups_4k_ = 0;
    std::uint64_t l0_lookups_2m_ = 0;
    std::uint64_t l0_mutations_4k_ = 0;
    std::uint64_t l0_mutations_2m_ = 0;

    /** @return true and set @p vpn if the carried filter is valid. */
    bool l0FilterLoad(Vpn &vpn) const
    {
        if (!l0_valid_ || l1_4k_.stats().lookups != l0_lookups_4k_ ||
            l1_2m_.stats().lookups != l0_lookups_2m_ ||
            l1_4k_.mutations() != l0_mutations_4k_ ||
            l1_2m_.mutations() != l0_mutations_2m_)
            return false;
        vpn = l0_vpn_;
        return true;
    }

    /** Snapshot @p vpn as the hot page at the end of a kernel run. */
    void l0FilterStore(Vpn vpn)
    {
        l0_vpn_ = vpn;
        l0_valid_ = true;
        l0_lookups_4k_ = l1_4k_.stats().lookups;
        l0_lookups_2m_ = l1_2m_.stats().lookups;
        l0_mutations_4k_ = l1_4k_.mutations();
        l0_mutations_2m_ = l1_2m_.mutations();
    }

    void l0FilterClear() { l0_valid_ = false; }

    /**
     * Checked builds: re-walk the authoritative table(s) and panic if
     * the fast path produced a different frame (see common/check.hh).
     */
    void verifyTranslation(Vpn vpn, const TranslationResult &res) const;

    /**
     * Checked builds: verify the carried L0 VPN's L1 entry, read with
     * SetAssocTlb::probe so LRU and stats stay as they are.
     */
    void verifyL0Carry(Vpn vpn) const;
};

} // namespace atlb

#endif // ANCHORTLB_MMU_MMU_HH
