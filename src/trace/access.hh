/**
 * @file
 * Memory-access records and the trace-source abstraction.
 *
 * The paper drives its TLB simulator with Pin-captured traces of 12B
 * instructions. We drive ours with TraceSource implementations: either
 * synthetic pattern generators (workload.hh) standing in for the Pin
 * traces, or binary trace files (trace_io.hh) for users who bring their
 * own captures.
 */

#ifndef ANCHORTLB_TRACE_ACCESS_HH
#define ANCHORTLB_TRACE_ACCESS_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace atlb
{

/** One data memory access. */
struct MemAccess
{
    VirtAddr vaddr{};
    bool write = false;
};

// The strong-typed address must not change the record layout the
// batched fill()/replay paths (and the mmap'd codecs) rely on.
static_assert(sizeof(MemAccess) == 16 &&
              std::is_trivially_copyable_v<MemAccess>);

/** Pull-based stream of memory accesses. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next access.
     * @return false when the trace is exhausted (@p out untouched).
     */
    virtual bool next(MemAccess &out) = 0;

    /**
     * Produce up to @p max accesses into @p out and return how many
     * were written (0 only when the trace is exhausted). The batched
     * stream is identical to repeated next() calls; the base
     * implementation simply loops, while hot generators override it to
     * amortise the virtual dispatch across a whole chunk.
     */
    virtual std::size_t fill(MemAccess *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;
};

} // namespace atlb

#endif // ANCHORTLB_TRACE_ACCESS_HH
