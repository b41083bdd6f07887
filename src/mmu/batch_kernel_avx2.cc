/**
 * @file
 * AVX2 instantiation of the vectorised batch kernel.
 *
 * Like common/simd_avx2.cc this TU is compiled with -mavx2 (pinned
 * per-source in src/mmu/CMakeLists.txt) and reached only through the
 * construction-time dispatch in Mmu::Mmu, which checks the CPU first —
 * so AVX2 code generation never leaks into the core. The Isa policy
 * wraps the shared inline kernel bodies from common/simd_kernels.hh:
 * the same code the dispatch pointers hand out (and the differential
 * tests pin), here inlined into the batch loop so the probe and the
 * pre-pass cost no call.
 */

#if defined(__x86_64__)

#include "common/simd_kernels.hh"
#include "mmu/batch_kernel.hh"

namespace atlb
{

namespace
{

struct Avx2Isa
{
    static constexpr bool prefetch = true;

    static int
    find(const std::uint64_t *words, unsigned count, std::uint64_t want)
    {
        return simd_avx2::findU64Inline(words, count, want);
    }

    static void
    vpnEq(const std::uint8_t *accesses, std::size_t count,
          unsigned shift, std::uint64_t prev, std::uint64_t *vpns,
          std::uint64_t *eqbits)
    {
        simd_avx2::vpnEqInline(accesses, count, shift, prev, vpns,
                               eqbits);
    }
};

} // namespace

void
Mmu::batchKernelAvx2(const MemAccess *accesses, std::size_t n,
                     BatchStats &batch)
{
    runBatchKernelVecT<Avx2Isa>(accesses, n, batch);
}

} // namespace atlb

#endif // defined(__x86_64__)
