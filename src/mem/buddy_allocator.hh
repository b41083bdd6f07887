/**
 * @file
 * Binary buddy allocator over a physical page-frame pool.
 *
 * This is the physical-memory substrate beneath the OS model: demand and
 * eager paging both draw frames from here, and the fragmentation injector
 * (see fragmenter.hh) manipulates its free lists to emulate the diverse
 * allocation states the paper measures on real machines (Fig. 1).
 *
 * Blocks of order k contain 2^k contiguous frames and are 2^k-aligned,
 * matching the Linux page allocator's invariants. Allocation is
 * lowest-address-first, which (as on real systems) makes successive
 * allocations likely to be physically adjacent, so virtual-address-
 * sequential faults can merge into contiguity runs larger than any single
 * buddy block.
 *
 * The free lists are one bitmap per order: bit i of order k is set
 * exactly when block [i * 2^k, (i + 1) * 2^k) is free. The lowest free
 * block of an order is its lowest set bit, found by scanning words
 * upward from a per-order hint below which every word is zero, so the
 * address-ordered policy costs a few word reads per call.
 */

#ifndef ANCHORTLB_MEM_BUDDY_ALLOCATOR_HH
#define ANCHORTLB_MEM_BUDDY_ALLOCATOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/histogram.hh"

namespace atlb
{

/** Binary buddy allocator managing frames [0, totalPages). */
class BuddyAllocator
{
  public:
    /** Default maximum block order (2^16 pages = 256MB). */
    static constexpr unsigned defaultMaxOrder = 16;

    /**
     * Create an allocator over @p total_pages frames.
     *
     * @param total_pages pool size in 4KB frames; need not be a power of
     *                    two — the pool is seeded with the maximal blocks
     *                    that tile it.
     * @param max_order   largest supported block order.
     */
    explicit BuddyAllocator(std::uint64_t total_pages,
                            unsigned max_order = defaultMaxOrder);

    /**
     * Allocate a block of 2^order frames.
     * @return base frame number, or invalidPpn if no memory.
     */
    [[nodiscard]] Ppn allocate(unsigned order);

    /**
     * Allocate the largest available block of order <= @p max_order_wanted.
     * @param[out] got_order the order actually allocated.
     * @return base frame number, or invalidPpn if the pool is empty.
     */
    [[nodiscard]] Ppn allocateLargest(unsigned max_order_wanted,
                                      unsigned &got_order);

    /**
     * Free a block previously returned by allocate()/allocateLargest().
     * The base must be 2^order aligned. Buddies coalesce eagerly.
     */
    void free(Ppn base, unsigned order);

    /** Frames currently free. */
    std::uint64_t freePages() const { return free_pages_; }

    /** Frames in the pool. */
    std::uint64_t totalPages() const { return total_pages_; }

    /** Number of free blocks at @p order. */
    std::uint64_t freeBlocksAt(unsigned order) const;

    /** Largest order with at least one free block; -1 if none. */
    int largestFreeOrder() const;

    /** Histogram of free block sizes in pages (key = 2^order). */
    Histogram freeBlockHistogram() const;

    unsigned maxOrder() const { return max_order_; }

    /** Internal consistency check (tests): free lists sane, no overlap. */
    [[nodiscard]] bool checkInvariants() const;

    /** One block on a free list (for inspection / invariant checking). */
    struct FreeBlock
    {
        Ppn base;
        unsigned order;
    };

    /** Snapshot of every free block, ascending by base frame. */
    std::vector<FreeBlock> freeBlockList() const;

    /**
     * Insert a block on a free list unchecked, bypassing free()'s
     * assertions and coalescing (the counter is kept consistent).
     * Corruption-injection tests use this to plant states the checked
     * mutators refuse to create. A block no bitmap can hold (misaligned,
     * or past the pool end) is kept aside, where only the inspection
     * calls (freeBlockList, checkInvariants) see it.
     */
    void plantFreeBlockForTest(Ppn base, unsigned order);

  private:
    /** The free blocks of one order. */
    struct OrderMap
    {
        /** Bit i set: block i of this order is free. */
        std::vector<std::uint64_t> words;
        /** Set bits in @c words. */
        std::uint64_t count = 0;
        /** Every word below this index is zero. */
        std::size_t hint = 0;
    };

    std::uint64_t total_pages_;
    unsigned max_order_;
    std::uint64_t free_pages_ = 0;
    std::vector<OrderMap> orders_;
    /** Bit k set: order k has a free block. */
    std::uint64_t nonempty_ = 0;
    /** Planted blocks that no bitmap can represent. */
    std::vector<FreeBlock> stray_;

    bool isFree(std::uint64_t block, unsigned order) const;
    void markFree(std::uint64_t block, unsigned order);
    void markUsed(std::uint64_t block, unsigned order);
    /**
     * Find the lowest free block of @p order that starts below frame
     * @p below; false if there is none.
     */
    bool lowestFreeBelow(unsigned order, std::uint64_t below,
                         std::uint64_t &block);
};

} // namespace atlb

#endif // ANCHORTLB_MEM_BUDDY_ALLOCATOR_HH
