/**
 * @file
 * Runtime SIMD dispatch for the translate hot path.
 *
 * Three kernels in the simulator are data-parallel and hot enough to
 * vectorize: the SetAssocTlb set probe (compare every way's tag word at
 * once), the ATLBTRC2 packed-block bit-unpack (whole-block delta
 * decode), and the batch kernel's VPN/same-page pre-pass (feeding the
 * L0 filter and the set prefetcher). All three stay *semantically
 * identical* to the scalar reference — same counters, same victim
 * choices, same decoded bytes — so the vector path is pure speed, never
 * behaviour (DESIGN.md §7.3 carries the argument).
 *
 * Dispatch is resolved once per process:
 *
 *   1. compile-time ISA: the AVX2 kernels exist only in the x86-64
 *      build (simd_avx2.cc, the single TU compiled with -mavx2; ISA
 *      flags never leak into the core), the NEON ones only on aarch64;
 *   2. one CPUID check: `auto` uses AVX2 only when the CPU reports it;
 *   3. an env override: ANCHORTLB_SIMD=scalar|avx2|neon|auto (default
 *      auto). Forcing a level the build/CPU cannot run is fatal.
 *
 * Objects capture the resolved level (as kernel pointers) at
 * construction, so benches and tests compare levels in one process via
 * forceSimdLevel() and fresh objects.
 */

#ifndef ANCHORTLB_COMMON_SIMD_HH
#define ANCHORTLB_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace atlb
{

/** Vector ISA a kernel set targets. */
enum class SimdLevel : std::uint8_t
{
    Scalar, //!< reference path, available everywhere
    Avx2,   //!< x86-64 with AVX2 (checked via CPUID once)
    Neon,   //!< aarch64 baseline
};

/** Display name ("scalar", "avx2", "neon") for reports. */
const char *simdLevelName(SimdLevel level);

/** Best level this build + CPU supports (the `auto` resolution). */
SimdLevel detectedSimdLevel();

/**
 * The process-wide level: ANCHORTLB_SIMD if set (fatal when the build
 * or CPU cannot honour it), else detectedSimdLevel(). Resolved once;
 * objects snapshot it at construction.
 */
SimdLevel simdLevel();

/**
 * In-process override for benches and tests that compare levels within
 * one run (the env knob cannot change mid-process). Fatal if @p level
 * is not runnable here. Only objects constructed *after* the call see
 * the new level.
 */
void forceSimdLevel(SimdLevel level);

/**
 * Alignment of vector-probed word arrays. One 4-way set of 8-byte
 * compare words is exactly one 256-bit vector, so 32-byte alignment
 * puts every 4-way set on a single aligned load.
 */
constexpr std::size_t simdAlignBytes = 32;
static_assert(simdAlignBytes == 4 * sizeof(std::uint64_t) &&
              simdAlignBytes % alignof(std::uint64_t) == 0);

/**
 * Find the first index i < count with words[i] == want, else -1.
 * Callers that guarantee at most one match (SetAssocTlb's duplicate-tag
 * invariant) get an order-independent answer, which is what makes the
 * vector form interchangeable with the scalar scan.
 */
using SimdFindU64Fn = int (*)(const std::uint64_t *words, unsigned count,
                              std::uint64_t want);

/**
 * Unpack @p count little-endian bit fields of @p width bits (0..64)
 * starting at bit 0 of @p base into @p out, exactly as repeated
 * getBits calls would. The ATLBTRC2 decoder calls it once per packed
 * block with @p bytes_avail the exact payload size, which holds at
 * least ceil(count * width / 8) bytes. A kernel reads nothing outside
 * [base, base + bytes_avail): it may load up to 8 bytes at once only
 * where they fit, and reads byte at a time near the end.
 */
using SimdUnpackFn = void (*)(const std::uint8_t *base,
                              std::size_t bytes_avail, unsigned width,
                              std::uint64_t *out, std::size_t count);

/**
 * Batch-kernel pre-pass: for @p count 16-byte access records at
 * @p accesses (a little-endian u64 address in bytes [0, 8) of each),
 * write vpns[i] = address >> shift and set bit i of @p eqbits when
 * vpns[i] == vpns[i - 1] (vpns[-1] is @p prev). @p eqbits holds
 * ceil(count / 64) words; bits at and above @p count are zero.
 */
using SimdVpnEqFn = void (*)(const std::uint8_t *accesses,
                             std::size_t count, unsigned shift,
                             std::uint64_t prev, std::uint64_t *vpns,
                             std::uint64_t *eqbits);

/** Set-probe kernel for @p level; nullptr at Scalar (inline loop). */
SimdFindU64Fn simdFindU64Fn(SimdLevel level);

/**
 * Whole-block unpack kernel for @p level, never nullptr: the
 * width-specialised gather kernel at AVX2, and scalarUnpackBits at
 * Scalar and at NEON, which has no 64-bit gather.
 */
SimdUnpackFn simdBlockUnpackFn(SimdLevel level);

/** VPN/same-page pre-pass kernel for @p level; nullptr at Scalar. */
SimdVpnEqFn simdVpnEqFn(SimdLevel level);

/** Reference unpack: getBits per element (the Scalar and NEON kernel). */
void scalarUnpackBits(const std::uint8_t *base, std::size_t bytes_avail,
                      unsigned width, std::uint64_t *out,
                      std::size_t count);

/**
 * Zero-initialised u64 array whose storage is simdAlignBytes-aligned,
 * so vector probes of 4-way groups land on aligned loads. std::vector
 * only guarantees alignof(max_align_t); this pins the stronger bound
 * the probe kernels were written against.
 */
class AlignedU64Buffer
{
  public:
    AlignedU64Buffer() = default;
    explicit AlignedU64Buffer(std::size_t n) { reset(n); }
    ~AlignedU64Buffer() { release(); }

    AlignedU64Buffer(const AlignedU64Buffer &other) { assign(other); }
    AlignedU64Buffer &operator=(const AlignedU64Buffer &other)
    {
        if (this != &other) {
            release();
            assign(other);
        }
        return *this;
    }
    AlignedU64Buffer(AlignedU64Buffer &&other) noexcept
        : words_(other.words_), size_(other.size_)
    {
        other.words_ = nullptr;
        other.size_ = 0;
    }
    AlignedU64Buffer &operator=(AlignedU64Buffer &&other) noexcept
    {
        if (this != &other) {
            release();
            words_ = other.words_;
            size_ = other.size_;
            other.words_ = nullptr;
            other.size_ = 0;
        }
        return *this;
    }

    /** Reallocate to @p n words, all zero. */
    void reset(std::size_t n)
    {
        release();
        if (n == 0)
            return;
        words_ = static_cast<std::uint64_t *>(::operator new(
            n * sizeof(std::uint64_t), std::align_val_t{simdAlignBytes}));
        size_ = n;
        std::memset(words_, 0, n * sizeof(std::uint64_t));
    }

    std::uint64_t *data() { return words_; }
    const std::uint64_t *data() const { return words_; }
    std::size_t size() const { return size_; }
    std::uint64_t &operator[](std::size_t i) { return words_[i]; }
    const std::uint64_t &operator[](std::size_t i) const
    {
        return words_[i];
    }

  private:
    void release()
    {
        if (words_ != nullptr)
            ::operator delete(words_, std::align_val_t{simdAlignBytes});
        words_ = nullptr;
        size_ = 0;
    }
    void assign(const AlignedU64Buffer &other)
    {
        reset(other.size_);
        if (size_ != 0)
            std::memcpy(words_, other.words_,
                        size_ * sizeof(std::uint64_t));
    }

    std::uint64_t *words_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_COMMON_SIMD_HH
