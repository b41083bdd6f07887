/**
 * @file
 * NEON instantiation of the vectorised batch kernel.
 *
 * aarch64 ships NEON in the baseline ISA, so this TU needs no special
 * flags — only the compile-time guard. The Isa policy wraps the shared
 * inline kernel bodies from common/simd_kernels.hh, inlined into the
 * batch loop (see batch_kernel_avx2.cc for the x86 twin and the
 * rationale).
 */

#if defined(__aarch64__)

#include "common/simd_kernels.hh"
#include "mmu/batch_kernel.hh"

namespace atlb
{

namespace
{

struct NeonIsa
{
    static constexpr bool prefetch = true;

    static int
    find(const std::uint64_t *words, unsigned count, std::uint64_t want)
    {
        return simd_neon::findU64Inline(words, count, want);
    }

    static void
    vpnEq(const std::uint8_t *accesses, std::size_t count,
          unsigned shift, std::uint64_t prev, std::uint64_t *vpns,
          std::uint64_t *eqbits)
    {
        simd_neon::vpnEqInline(accesses, count, shift, prev, vpns,
                               eqbits);
    }
};

} // namespace

void
Mmu::batchKernelNeon(const MemAccess *accesses, std::size_t n,
                     BatchStats &batch)
{
    runBatchKernelVecT<NeonIsa>(accesses, n, batch);
}

} // namespace atlb

#endif // defined(__aarch64__)
