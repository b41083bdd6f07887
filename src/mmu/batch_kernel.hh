/**
 * @file
 * Definition of Mmu::runBatchKernelVecT, the batch loop.
 *
 * Only the TUs that instantiate it include this header: mmu.cc for
 * the scalar level, batch_kernel_avx2.cc (the TU compiled with -mavx2)
 * and batch_kernel_neon.cc on aarch64; everything else sees just the
 * declaration in mmu.hh. Keeping the definition out of mmu.hh is the
 * point of the design: the Isa policy's probe and pre-pass bodies are
 * ISA intrinsics that may only be *compiled* in a TU built for that
 * ISA, and inlining them into the loop is what makes the vector
 * kernel pay (per-lookup dispatch through a function pointer was
 * measured slower than the scalar scan it replaced — DESIGN.md §7.3).
 *
 * The Isa policy supplies two statics matching the dispatch kernel
 * contracts in common/simd.hh (the differential tests in
 * tests/common/test_simd.cc pin the vector ones against the scalar
 * reference), and one compile-time constant:
 *
 *   static int  find(const std::uint64_t *words, unsigned count,
 *                    std::uint64_t want);            // SimdFindU64Fn
 *   static void vpnEq(const std::uint8_t *accesses, std::size_t count,
 *                     unsigned shift, std::uint64_t prev,
 *                     std::uint64_t *vpns, std::uint64_t *eqbits);
 *                                                    // SimdVpnEqFn
 *   static constexpr bool prefetch;  // warm the miss path ahead
 */

#ifndef ANCHORTLB_MMU_BATCH_KERNEL_HH
#define ANCHORTLB_MMU_BATCH_KERNEL_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/simd.hh"
#include "mmu/mmu.hh"

namespace atlb
{

/**
 * See the contract on the declaration in mmu.hh: counter-identical to
 * the translate() loop, probes in stream order.
 */
template <class Isa>
void
Mmu::runBatchKernelVecT(const MemAccess *accesses, std::size_t n,
                        BatchStats &batch)
{
    // The pre-pass kernel reads the access array as raw 16-byte
    // records with the address word first.
    static_assert(sizeof(MemAccess) == 16 &&
                  offsetof(MemAccess, vaddr) == 0);
    std::uint64_t n_hits = 0;
    std::uint64_t n_filtered = 0;
    Vpn last_vpn = invalidVpn;
    bool have_last = l0FilterLoad(last_vpn);
#ifdef ANCHORTLB_CHECKED
    // Only a batch that opens on the carried page serves its entry
    // unprobed; a page remapped since is stale only if it is used.
    if (have_last && n > 0 && vpnOf(accesses[0].vaddr) == last_vpn)
        verifyL0Carry(last_vpn);
#endif
    constexpr std::size_t kChunk = 512;
    alignas(simdAlignBytes) std::uint64_t vpns[kChunk];
    std::uint64_t eqbits[kChunk / 64];
    std::uint32_t probes[kChunk];
    for (std::size_t done = 0; done < n; done += kChunk) {
        const std::size_t m = std::min(kChunk, n - done);
        Isa::vpnEq(
            reinterpret_cast<const std::uint8_t *>(accesses + done), m,
            pageShift, last_vpn.raw(), vpns, eqbits);
        if (!have_last)
            eqbits[0] &= ~std::uint64_t{1};

        // Turn the eq bitset into the chunk's probe list: the indices
        // whose bit is clear, ascending — the accesses that leave the
        // previous one's page, in stream order.
        std::size_t np = 0;
        for (std::size_t w = 0; w * 64 < m; ++w) {
            const std::size_t first = w * 64;
            const unsigned live = static_cast<unsigned>(
                std::min<std::size_t>(64, m - first));
            const std::uint64_t live_mask =
                live == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << live) - 1;
            std::uint64_t todo = ~eqbits[w] & live_mask;
            while (todo != 0) {
                const auto b =
                    static_cast<unsigned>(std::countr_zero(todo));
                todo &= todo - 1;
                probes[np++] = static_cast<std::uint32_t>(first + b);
            }
        }
        const std::uint64_t filtered = m - np;
        n_hits += filtered;
        n_filtered += filtered;

        // Probe loop, with the translate path warmed
        // kBatchPrefetchDistance probes ahead when the Isa prefetches.
        // The warm-up loop covers the chunk's first probes, whose
        // +distance partner the main loop never reaches.
        if constexpr (Isa::prefetch) {
            const std::size_t warm =
                std::min(np, kBatchPrefetchDistance);
            for (std::size_t j = 0; j < warm; ++j)
                prefetchTranslate(Vpn{vpns[probes[j]]});
        }
        for (std::size_t j = 0; j < np; ++j) {
            if constexpr (Isa::prefetch) {
                if (j + kBatchPrefetchDistance < np)
                    prefetchTranslate(
                        Vpn{vpns[probes[j + kBatchPrefetchDistance]]});
            }
            const Vpn vpn{vpns[probes[j]]};
            // l1Hit verifies the hit in checked builds.
            if (const TlbEntry *e4k = l1_4k_.lookupWith(
                    EntryKind::Page4K, pageKey(vpn), Isa::find)) {
                l1Hit(vpn, *e4k, PageSize::Base4K);
                ++n_hits;
                continue;
            }
            if (const TlbEntry *e2m = l1_2m_.lookupWith(
                    EntryKind::Page2M, hugeKey(vpn), Isa::find)) {
                l1Hit(vpn, *e2m, PageSize::Huge2M);
                ++n_hits;
                continue;
            }
            noteMiss(vpn, translateL2(vpn));
        }
        last_vpn = Vpn{vpns[m - 1]};
        have_last = true;
    }
    stats_.accesses += n;
    stats_.l1_hits += n_hits;
    batch.accesses += n;
    batch.l1_hits += n_hits;
    batch.l0_filtered += n_filtered;
    if (n > 0 && have_last)
        l0FilterStore(last_vpn);
}

} // namespace atlb

#endif // ANCHORTLB_MMU_BATCH_KERNEL_HH
