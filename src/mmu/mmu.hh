/**
 * @file
 * Abstract MMU: L1 TLBs plus a scheme-specific L2 pipeline.
 *
 * Every scheme shares the L1 organisation of paper Table 3 (64-entry
 * 4-way for 4KB, 32-entry 4-way for 2MB; hits fully hidden). On an L1
 * miss the scheme-specific translateL2() runs; subclasses implement the
 * baseline, cluster, RMM and anchor pipelines. Latency accounting:
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
struct RegionPartition;

/**
 * How many *probes* ahead the vector batch kernel prefetches the
 * translate path (prefetchTranslate: both L1 sets, the scheme's L2
 * sets, and the page-table leaf line). Counted in probes, not
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
    const MemoryMap *map = nullptr;             //!< RMM range table
    AnchorDist anchor_distance{};               //!< anchor scheme
    const RegionPartition *partition = nullptr; //!< multi-region scheme
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
     * l1_hits). Zero in checked builds, which route every access
     * through the verifying per-access pipeline.
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
     * instead route every access through the out-of-line oracle path.
     */
    TranslationResult translate(VirtAddr va)
    {
        ++stats_.accesses;
        const Vpn vpn = vpnOf(va);
#ifdef ANCHORTLB_CHECKED
        const TranslationResult res = translateImpl(vpn);
        verifyTranslation(vpn, res);
        return res;
#else
        if (const TlbEntry *e = l1_4k_.lookup(EntryKind::Page4K,
                                              pageKey(vpn))) {
            ++stats_.l1_hits;
            return {e->ppn, 0, HitLevel::L1, PageSize::Base4K};
        }
        if (const TlbEntry *e =
                l1_2m_.lookup(EntryKind::Page2M, hugeKey(vpn))) {
            ++stats_.l1_hits;
            return {e->ppn + hugeOffset(vpn), 0, HitLevel::L1,
                    PageSize::Huge2M};
        }
        return translateMiss(vpn);
#endif
    }

    /**
     * Translate @p n accesses in stream order, accumulating into the
     * MMU's stats and into @p batch. Counter-identical to calling
     * translate() on every element — the batch path exists purely to
     * make the replay loop fast: concrete schemes override it with a
     * devirtualized kernel (runBatchKernel) so the virtual dispatch
     * cost is paid once per batch instead of once per miss, the
     * accesses/l1_hits counters live in registers for the whole batch,
     * and consecutive accesses to the same page short-circuit through
     * the L0 filter. This default loops translate(); it is the
     * reference the equivalence suite (tests/sim/test_batch_kernel.cc)
     * and bench_hotpath compare the kernels against.
     */
    virtual void translateBatch(const MemAccess *accesses, std::size_t n,
                                BatchStats &batch);

    /** Invalidate all TLB state (context switch / shootdown). */
    virtual void flushAll();

    /**
     * Context switch: load @p ctx's page table and scheme-specific
     * state, then either flush the TLBs (SwitchPolicy::Flush, as the
     * x86 Linux kernel does, paper Section 3.3) or retag them with
     * @p ctx.asid (SwitchPolicy::Asid), leaving other address spaces'
     * entries resident. @p ctx.table must be non-null.
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
     * anchor entries as well as page entries). Schemes extend this for
     * their own structures. Acts on the current ASID.
     */
    virtual void invalidatePage(Vpn vpn);

    /**
     * ASID-qualified page shootdown: invalidate @p target's entries
     * covering @p vpn while some other process may be running.
     * Schemes whose coalesced keys depend on per-process registers
     * (the anchor distance, the region table) can only form exact
     * keys for the address space whose registers are loaded; for any
     * other target they conservatively fall back to invalidateAsid —
     * over-invalidation, never a stale survivor. Schemes with
     * register-free keys (baseline, cluster, CoLT, RMM) invalidate
     * exactly.
     */
    virtual void invalidatePage(Vpn vpn, Asid target);

    /**
     * Drop every translation tagged with @p target (address-space
     * teardown, or the conservative arm of a cross-ASID shootdown).
     * Entries of other ASIDs stay resident.
     */
    virtual void invalidateAsid(Asid target);

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

    /** Walk the page table; panics if @p vpn is unmapped. */
    TranslationResult walkPageTable(Vpn vpn, Cycles lookup_cycles);

    /**
     * Devirtualized batch loop shared by every scheme's translateBatch
     * override. @p l2 is a callable that runs the *statically
     * qualified* scheme pipeline (each override passes
     * `[this](Vpn v) { return SchemeName::translateL2(v); }`, which
     * the compiler resolves non-virtually), so the only virtual call
     * per batch is translateBatch itself.
     *
     * Counter-identity with the per-access translate() loop
     * (DESIGN.md "Batch kernel byte-identity"):
     *
     *  - The L0 same-page filter only short-circuits an access whose
     *    VPN equals the immediately preceding one in the same kernel
     *    run. That access is guaranteed an L1 hit under translate():
     *    either the previous access hit L1 (entry present, and
     *    lookup() just made it MRU) or it missed and fillL1 inserted
     *    it (insert() made it MRU). Re-looking it up would only re-mark
     *    the MRU entry MRU — an LRU no-op — so skipping the probe
     *    leaves every replacement decision, every fill, and every
     *    MmuStats counter identical. (TlbStats lookups/hits and the
     *    LRU tick value do diverge; nothing in SimResult or the golden
     *    output depends on them, and relative recency — the thing LRU
     *    replacement reads — is unchanged.)
     *  - Across kernel runs the filter is only trusted while the L1s
     *    have been neither probed nor mutated since the snapshot
     *    (SetAssocTlb::mutations() contract); flushAll and
     *    invalidatePage additionally drop it eagerly.
     *  - accesses/l1_hits accumulate in locals and flush to stats_
     *    once per batch; sums are associative, so totals match.
     *
     * Checked builds bypass all of this: the loop calls translate()
     * per access so verifyTranslation's oracle re-walk sees every
     * element (ISSUE 5 satellite fix).
     */
    template <class L2Fn>
    void
    runBatchKernel(const MemAccess *accesses, std::size_t n,
                   BatchStats &batch, L2Fn &&l2)
    {
#ifdef ANCHORTLB_CHECKED
        (void)l2; // oracle path verifies every access individually
        Mmu::translateBatch(accesses, n, batch);
#else
        if (batch_vec_ != nullptr) {
            (this->*batch_vec_)(accesses, n, batch);
            return;
        }
        std::uint64_t n_hits = 0;
        std::uint64_t n_filtered = 0;
        Vpn last_vpn = invalidVpn;
        bool have_last = l0FilterLoad(last_vpn);
        for (std::size_t i = 0; i < n; ++i) {
            const Vpn vpn = vpnOf(accesses[i].vaddr);
            if (have_last && vpn == last_vpn) {
                // Same page as the previous translation: guaranteed L1
                // hit, and re-probing the MRU entry is an LRU no-op.
                ++n_hits;
                ++n_filtered;
                continue;
            }
            last_vpn = vpn;
            have_last = true;
            if (l1_4k_.lookup(EntryKind::Page4K, pageKey(vpn)) !=
                nullptr) {
                ++n_hits;
                continue;
            }
            if (l1_2m_.lookup(EntryKind::Page2M, hugeKey(vpn)) !=
                nullptr) {
                ++n_hits;
                continue;
            }
            noteMiss(vpn, l2(vpn));
        }
        stats_.accesses += n;
        stats_.l1_hits += n_hits;
        batch.accesses += n;
        batch.l1_hits += n_hits;
        batch.l0_filtered += n_filtered;
        if (n > 0 && have_last)
            l0FilterStore(last_vpn);
#endif
    }

    /**
     * Vectorised batch loop, taken when the construction-time SIMD
     * level has a batch kernel (batch_vec_). The template is defined
     * in mmu/batch_kernel.hh and *instantiated only in the per-ISA
     * TUs* (mmu/batch_kernel_avx2.cc, compiled with -mavx2;
     * mmu/batch_kernel_neon.cc on aarch64), where the Isa policy's
     * probe and pre-pass bodies inline into the loop. Dispatch is paid
     * once per batch — a per-lookup kernel pointer was measured to
     * cost more than the 4-way scan it replaced (DESIGN.md §7.3).
     *
     * Counter-identical to the scalar kernel above — same MmuStats,
     * BatchStats and TlbStats, same victim choices:
     *
     *  - The pre-pass computes, for a whole chunk, every access's VPN
     *    and a same-page bitset eq (bit i set iff vpn[i] == vpn[i-1],
     *    carrying across chunk and batch boundaries exactly like
     *    last_vpn does in the scalar loop; when the carried filter is
     *    invalid, bit 0 of the first chunk is cleared — the scalar
     *    loop's `have_last` guard). These are precisely the accesses
     *    the scalar loop short-circuits, so counting them in bulk and
     *    probing only the zero bits — in ascending order, the stream
     *    order — issues the identical lookup()/noteMiss() sequence. No
     *    probe order changes, so no LRU or victim decision can.
     *  - The scheme pipeline runs through the translateL2 virtual:
     *    one virtual call per L1 miss, noise against the miss path it
     *    starts, and the same function the scalar kernel's
     *    devirtualized lambda resolves to.
     *  - The software prefetch (prefetchTranslate, issued
     *    kBatchPrefetchDistance *probes* ahead from the chunk's probe
     *    list) is semantics-free: prefetching reads nothing
     *    architecturally.
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

    /**
     * Warm the translate path for @p vpn, issued by the vector batch
     * kernel kBatchPrefetchDistance probes before the lookup. The base
     * prefetches both L1 sets and the page-table leaf line
     * (PageTable::prefetchWalk); schemes extend it with the L2 sets
     * their translateL2 probes first. Must stay semantics-free —
     * prefetch hints only, no architectural reads, no stats.
     */
    virtual void prefetchTranslate(Vpn vpn) const;

    /**
     * Retag TLB structures with @p asid on an ASID-policy switch. The
     * base retags both L1s and flushes the page-walk cache (PTE lines
     * are per-address-space and the PWC carries no tag — a flush is
     * the conservative model; it is also what invpcid-less hardware
     * does). Schemes override to retag their L2/coalesced structures
     * and must call the base.
     */
    virtual void applyAsid(Asid asid);

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
    SwitchPolicy policy_ = SwitchPolicy::Flush;
    Asid asid_{};
    /** Optional page-walk cache (config_.pwc_enabled). */
    std::unique_ptr<WalkCache> pwc_;
    MmuStats stats_;
    /** Member-function pointer type of the per-ISA batch kernels. */
    using BatchVecFn = void (Mmu::*)(const MemAccess *, std::size_t,
                                     BatchStats &);
    /**
     * Batch kernel for the construction-time SIMD level; null selects
     * the scalar batch loop (the reference path). The only dispatch
     * indirection on the vector path, paid once per batch.
     */
    BatchVecFn batch_vec_ = nullptr;

    /** Full pipeline including the L1 probes (checked-build path). */
    TranslationResult translateImpl(Vpn vpn);
    /** Post-L1-miss pipeline: scheme L2, stats buckets, L1 fill. */
    TranslationResult translateMiss(Vpn vpn);
    /**
     * Account one L1 miss: bump the per-level bucket, charge the
     * cycles, fill L1. Shared by translateMiss and runBatchKernel so
     * the two paths cannot drift.
     */
    void noteMiss(Vpn vpn, const TranslationResult &res);
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
};

} // namespace atlb

#endif // ANCHORTLB_MMU_MMU_HH
