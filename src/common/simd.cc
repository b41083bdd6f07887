#include "simd.hh"

#include <atomic>
#include <string>

#include "bitpack.hh"
#include "env.hh"
#include "logging.hh"
#include "simd_kernels.hh"

namespace atlb
{

namespace
{

/**
 * Resolved level, or -1 while unresolved. Atomic so a first call from
 * a worker thread races benignly with another: both resolve the same
 * env/CPUID answer and store the same value.
 */
std::atomic<int> g_level{-1};

bool
levelRunnable(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return true;
    case SimdLevel::Avx2:
#if defined(__x86_64__)
        return simd_avx2::available();
#else
        return false;
#endif
    case SimdLevel::Neon:
#if defined(__aarch64__)
        return true;
#else
        return false;
#endif
    }
    return false;
}

SimdLevel
resolveLevel()
{
    const std::string v = envString("ANCHORTLB_SIMD", "auto");
    if (v == "auto")
        return detectedSimdLevel();
    SimdLevel want = SimdLevel::Scalar;
    if (v == "scalar")
        want = SimdLevel::Scalar;
    else if (v == "avx2")
        want = SimdLevel::Avx2;
    else if (v == "neon")
        want = SimdLevel::Neon;
    else
        ATLB_FATAL("ANCHORTLB_SIMD='{}' is not scalar|avx2|neon|auto", v);
    if (!levelRunnable(want))
        ATLB_FATAL("ANCHORTLB_SIMD={} requested but this build/CPU "
                   "cannot run it (detected: {})",
                   v, simdLevelName(detectedSimdLevel()));
    return want;
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Neon:
        return "neon";
    }
    return "unknown";
}

SimdLevel
detectedSimdLevel()
{
#if defined(__x86_64__)
    return simd_avx2::available() ? SimdLevel::Avx2 : SimdLevel::Scalar;
#elif defined(__aarch64__)
    return SimdLevel::Neon;
#else
    return SimdLevel::Scalar;
#endif
}

SimdLevel
simdLevel()
{
    const int cached = g_level.load(std::memory_order_relaxed);
    if (cached >= 0)
        return static_cast<SimdLevel>(cached);
    const SimdLevel resolved = resolveLevel();
    g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
    return resolved;
}

void
forceSimdLevel(SimdLevel level)
{
    if (!levelRunnable(level))
        ATLB_FATAL("forceSimdLevel({}) on a build/CPU that cannot run "
                   "it (detected: {})",
                   simdLevelName(level),
                   simdLevelName(detectedSimdLevel()));
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

SimdFindU64Fn
simdFindU64Fn(SimdLevel level)
{
#if defined(__x86_64__)
    if (level == SimdLevel::Avx2)
        return &simd_avx2::findU64;
#endif
#if defined(__aarch64__)
    if (level == SimdLevel::Neon)
        return &simd_neon::findU64;
#endif
    (void)level;
    return nullptr;
}

SimdUnpackFn
simdBlockUnpackFn(SimdLevel level)
{
#if defined(__x86_64__)
    if (level == SimdLevel::Avx2)
        return &simd_avx2::unpackBits;
#endif
    // Scalar, and NEON (no 64-bit gather): the shared scalar unpack.
    (void)level;
    return &scalarUnpackBits;
}

SimdVpnEqFn
simdVpnEqFn(SimdLevel level)
{
#if defined(__x86_64__)
    if (level == SimdLevel::Avx2)
        return &simd_avx2::vpnEq;
#endif
#if defined(__aarch64__)
    if (level == SimdLevel::Neon)
        return &simd_neon::vpnEq;
#endif
    (void)level;
    return nullptr;
}

void
scalarUnpackBits(const std::uint8_t *base, std::size_t bytes_avail,
                 unsigned width, std::uint64_t *out, std::size_t count)
{
    // getBits reads byte-at-a-time, never past ceil(count * width / 8)
    // <= bytes_avail; the parameter exists for kernels that load wider.
    (void)bytes_avail;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = getBits(base, i * static_cast<std::uint64_t>(width),
                         width);
}

} // namespace atlb
