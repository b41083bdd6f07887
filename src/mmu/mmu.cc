#include "mmu.hh"

#include <algorithm>
#include <cstring>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "mmu/batch_kernel.hh"
#include "os/page_table.hh"
#include "tlb/range_tlb.hh"

namespace atlb
{

namespace
{

/**
 * The scalar level's batch-kernel policy. It does not prefetch, so
 * bench_hotpath's SIMD-over-scalar gates still measure the vector
 * kernels against a loop without prefetch.
 */
struct ScalarIsa
{
    static constexpr bool prefetch = false;

    static int
    find(const std::uint64_t *words, unsigned count, std::uint64_t want)
    {
        return scalarFindWay(words, count, want);
    }

    static void
    vpnEq(const std::uint8_t *accesses, std::size_t count,
          unsigned shift, std::uint64_t prev, std::uint64_t *vpns,
          std::uint64_t *eqbits)
    {
        std::fill_n(eqbits, (count + 63) / 64, std::uint64_t{0});
        for (std::size_t i = 0; i < count; ++i) {
            std::uint64_t raw = 0;
            std::memcpy(&raw, accesses + 16 * i, sizeof(raw));
            vpns[i] = raw >> shift;
            if (vpns[i] == prev)
                eqbits[i / 64] |= std::uint64_t{1} << (i % 64);
            prev = vpns[i];
        }
    }
};

} // namespace

Mmu::Mmu(const MmuConfig &config, const PageTable &table, std::string name)
    : config_(config), table_(&table), name_(std::move(name)),
      l1_4k_(config.l1_4k_entries, config.l1_4k_ways, name_ + ".l1-4k"),
      l1_2m_(config.l1_2m_entries, config.l1_2m_ways, name_ + ".l1-2m")
{
    if (config_.pwc_enabled) {
        pwc_ = std::make_unique<WalkCache>(config_.pwc_pml4e_entries,
                                           config_.pwc_pdpte_entries,
                                           config_.pwc_pde_entries);
    }
    registerTlb(l1_4k_);
    registerTlb(l1_2m_);
    // The SIMD level is captured here, once: benches/tests that flip
    // levels in-process (forceSimdLevel) construct fresh MMUs.
    switch (simdLevel()) {
#if defined(__x86_64__)
      case SimdLevel::Avx2:
        batch_kernel_ = &Mmu::batchKernelAvx2;
        break;
#endif
#if defined(__aarch64__)
      case SimdLevel::Neon:
        batch_kernel_ = &Mmu::batchKernelNeon;
        break;
#endif
      default:
        // The scalar level, or one this build cannot run (simdLevel()
        // already rejects that combination).
        batch_kernel_ = &Mmu::runBatchKernelVecT<ScalarIsa>;
        break;
    }
}

void
Mmu::prefetchTranslate(Vpn vpn) const
{
    // Deliberately NOT the L1 sets: the L1 arrays are a few hundred
    // bytes and effectively cache-resident, so hinting them wastes the
    // prefetch-line budget that bounds how far ahead the kernel can
    // run without evicting its own hints. Only the walk's leaf line is
    // reliably cold here.
    table_->prefetchWalk(vpn);
}

Mmu::~Mmu() = default;

template <class Op>
void
Mmu::forEachTlb(Op op)
{
    for (SetAssocTlb *tlb : tlbs_)
        op(*tlb);
    for (RangeTlb *tlb : range_tlbs_)
        op(*tlb);
}

TranslationResult
Mmu::translateMiss(Vpn vpn)
{
    const TranslationResult res = translateL2(vpn);
    noteMiss(vpn, res);
    return res;
}

void
Mmu::noteMiss(Vpn vpn, const TranslationResult &res)
{
    switch (res.level) {
      case HitLevel::L2Regular:
        ++stats_.l2_regular_hits;
        break;
      case HitLevel::Coalesced:
        ++stats_.coalesced_hits;
        break;
      case HitLevel::PageWalk:
        ++stats_.page_walks;
        break;
      case HitLevel::L1:
        ATLB_PANIC("translateL2 reported an L1 hit");
    }
    stats_.translation_cycles += res.cycles;
    fillL1(vpn, res);
#ifdef ANCHORTLB_CHECKED
    verifyTranslation(vpn, res);
#endif
}

void
Mmu::verifyTranslation(Vpn vpn, const TranslationResult &res) const
{
    // The guest dimension first: what does the authoritative table say?
    const WalkResult walk = table_->walk(vpn);
    ANCHOR_CHECK(walk.present,
                 "{}: fast path translated unmapped vpn {}", name_, vpn);
    Ppn expected = walk.ppn;
    if (host_table_ != nullptr) {
        const WalkResult host = host_table_->walk(hostVpnOf(walk.ppn));
        ANCHOR_CHECK(host.present, "{}: guest frame {} unmapped in host",
                     name_, walk.ppn);
        expected = host.ppn;
    }
    // guest_ppn is defined only on walk results: a TLB hit caches the
    // combined translation, the hardware no longer knows the guest
    // frame.
    if (res.level == HitLevel::PageWalk) {
        ANCHOR_CHECK_EQ(res.guest_ppn, walk.ppn,
                        "{}: wrong guest frame for vpn {}", name_, vpn);
    }
    ANCHOR_CHECK_EQ(res.ppn, expected, "{}: wrong frame for vpn {}",
                    name_, vpn);
}

void
Mmu::verifyL0Carry(Vpn vpn) const
{
    // The same 4KB-then-2MB order as the probe the filter skipped.
    if (const TlbEntry *e4k = l1_4k_.probe(EntryKind::Page4K, pageKey(vpn)))
        l1Hit(vpn, *e4k, PageSize::Base4K);
    else if (const TlbEntry *e2m =
                 l1_2m_.probe(EntryKind::Page2M, hugeKey(vpn)))
        l1Hit(vpn, *e2m, PageSize::Huge2M);
    else
        ATLB_PANIC("{}: carried L0 vpn {} has no L1 entry", name_, vpn);
}

void
Mmu::fillL1(Vpn vpn, const TranslationResult &res)
{
    if (res.size == PageSize::Huge2M) {
        TlbEntry e;
        e.kind = EntryKind::Page2M;
        e.key = hugeKey(vpn);
        e.ppn = res.ppn - hugeOffset(vpn);
        e.valid = true;
        l1_2m_.insert(e);
    } else {
        TlbEntry e;
        e.kind = EntryKind::Page4K;
        e.key = pageKey(vpn);
        e.ppn = res.ppn;
        e.valid = true;
        l1_4k_.insert(e);
    }
}

TranslationResult
Mmu::walkPageTable(Vpn vpn, Cycles lookup_cycles)
{
    const WalkResult walk = table_->walk(vpn);
    if (!walk.present)
        ATLB_FATAL("{}: access to unmapped vpn {}", name_, vpn);
    TranslationResult res;
    res.ppn = walk.ppn;
    res.guest_ppn = walk.ppn;
    res.size = walk.size;
    res.level = HitLevel::PageWalk;

    if (host_table_) {
        // Nested dimension: the guest frame is a guest-physical address
        // that the host table maps onto machine memory.
        const WalkResult host = host_table_->walk(hostVpnOf(walk.ppn));
        if (!host.present) {
            ATLB_FATAL("{}: guest frame {} not mapped by the host",
                       name_, walk.ppn);
        }
        res.ppn = host.ppn;
        // The combined TLB entry can only cover the smaller leaf (the
        // host guarantees contiguity only within its own page).
        if (pagesCovered(host.size) < pagesCovered(res.size))
            res.size = host.size;
        // 2D walk: every guest level fetch needs a host walk for its
        // node's GPA, plus the final data GPA: (g+1)(h+1)-1 refs.
        const unsigned refs =
            (walk.levels + 1) * (host.levels + 1) - 1;
        res.cycles = lookup_cycles + refs * config_.nested_ref_cycles;
        return res;
    }

    if (pwc_) {
        const unsigned refs = pwc_->walkRefs(vpn, walk.levels);
        res.cycles = lookup_cycles + refs * config_.pwc_mem_ref_cycles;
    } else {
        res.cycles = lookup_cycles + config_.walk_cycles;
    }
    return res;
}

void
Mmu::flushAll()
{
    // The mutation counters would catch this too, but drop the filter
    // eagerly so correctness never rests on the snapshot comparison.
    l0FilterClear();
    forEachTlb([](auto &tlb) { tlb.flush(); });
    if (pwc_)
        pwc_->flush();
}

void
Mmu::switchProcess(const ProcessContext &ctx)
{
    ATLB_ASSERT(ctx.table, "switchProcess without a page table");
    table_ = ctx.table;
    if (policy_ == SwitchPolicy::Flush) {
        flushAll();
        return;
    }
    ATLB_ASSERT(ctx.asid.raw() != 0,
                "ASID-policy switch needs a non-zero ASID");
    asid_ = ctx.asid;
    // The hot entry the L0 filter cached belongs to the old address
    // space (the TLB mutation bump would catch it too; eager is safer).
    l0FilterClear();
    forEachTlb([&ctx](auto &tlb) { tlb.setAsid(ctx.asid); });
    // PTE lines are per address space and the page-walk cache carries
    // no tag: a flush is the conservative model (and what invpcid-less
    // hardware does).
    if (pwc_)
        pwc_->flush();
}

void
Mmu::invalidatePage(Vpn vpn, Asid target)
{
    l0FilterClear();
    l1_4k_.invalidate(EntryKind::Page4K, pageKey(vpn), target);
    l1_2m_.invalidate(EntryKind::Page2M, hugeKey(vpn), target);
    invalidateL2(vpn, target);
}

void
Mmu::invalidateAsid(Asid target)
{
    l0FilterClear();
    forEachTlb([target](auto &tlb) { tlb.invalidateAsid(target); });
    if (pwc_)
        pwc_->flush();
}

void
Mmu::setNested(const PageTable *host_table, const MemoryMap *host_map)
{
    ATLB_ASSERT((host_table == nullptr) == (host_map == nullptr),
                "nested mode needs both host table and host map");
    ATLB_ASSERT(!host_table || supportsNested(),
                "{} does not support nested translation", name_);
    host_table_ = host_table;
    host_map_ = host_map;
    flushAll();
}

} // namespace atlb
