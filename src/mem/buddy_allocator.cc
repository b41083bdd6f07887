#include "buddy_allocator.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace atlb
{

namespace
{

constexpr unsigned wordShift = 6;
/** Blocks per bitmap word. */
constexpr unsigned wordBits = 1U << wordShift;

/** Bits 0, 2, 4, ...: the low block of every buddy pair in a word. */
constexpr std::uint64_t lowBuddies = 0x5555555555555555ULL;

} // namespace

BuddyAllocator::BuddyAllocator(std::uint64_t total_pages, unsigned max_order)
    : total_pages_(total_pages), max_order_(max_order)
{
    ATLB_ASSERT(max_order < 40, "absurd max order {}", max_order);
    orders_.resize(max_order_ + 1);
    for (unsigned order = 0; order <= max_order_; ++order) {
        const std::uint64_t blocks = total_pages >> order;
        orders_[order].words.assign((blocks + wordBits - 1) / wordBits, 0);
    }
    // Seed the pool greedily with the largest aligned blocks that fit.
    Ppn base{0};
    std::uint64_t remaining = total_pages;
    while (remaining > 0) {
        unsigned order = max_order_;
        while (order > 0 &&
               ((1ULL << order) > remaining || !base.isAligned(1ULL << order)))
            --order;
        markFree(base.raw() >> order, order);
        free_pages_ += 1ULL << order;
        base += 1ULL << order;
        remaining -= 1ULL << order;
    }
}

inline bool
BuddyAllocator::isFree(std::uint64_t block, unsigned order) const
{
    const std::vector<std::uint64_t> &words = orders_[order].words;
    const std::uint64_t word = block / wordBits;
    return word < words.size() && ((words[word] >> (block % wordBits)) & 1);
}

inline void
BuddyAllocator::markFree(std::uint64_t block, unsigned order)
{
    OrderMap &m = orders_[order];
    const std::size_t word = block / wordBits;
    m.words[word] |= 1ULL << (block % wordBits);
    ++m.count;
    m.hint = std::min(m.hint, word);
    nonempty_ |= 1ULL << order;
}

inline void
BuddyAllocator::markUsed(std::uint64_t block, unsigned order)
{
    OrderMap &m = orders_[order];
    m.words[block / wordBits] &= ~(1ULL << (block % wordBits));
    if (--m.count == 0)
        nonempty_ &= ~(1ULL << order);
}

inline bool
BuddyAllocator::lowestFreeBelow(unsigned order, std::uint64_t below,
                                std::uint64_t &block)
{
    OrderMap &m = orders_[order];
    // Words holding blocks that start below @p below; the scan never
    // passes them, so a far-off lone block costs nothing while a nearer
    // one exists. One word spans 2^(order + wordShift) frames.
    const unsigned span_shift = order + wordShift;
    const std::uint64_t covering =
        (below >> span_shift) + ((below & ((1ULL << span_shift) - 1)) != 0);
    const std::size_t end = static_cast<std::size_t>(
        std::min<std::uint64_t>(m.words.size(), covering));
    while (m.hint < end && m.words[m.hint] == 0)
        ++m.hint;
    if (m.hint >= end)
        return false;
    block = m.hint * wordBits +
            static_cast<unsigned>(std::countr_zero(m.words[m.hint]));
    return (block << order) < below;
}

Ppn
BuddyAllocator::allocate(unsigned order)
{
    if (order > max_order_)
        return invalidPpn;
    // Address-ordered first fit: among all blocks large enough, take the
    // lowest-address one. This makes sequential allocations walk free
    // runs in address order, so consecutive faults land on consecutive
    // frames whenever the pool permits — the behaviour that gives
    // demand/eager paging their mapping contiguity. Each non-empty order
    // is only searched below the best block found so far, since nothing
    // above it can win.
    unsigned avail = max_order_ + 1;
    std::uint64_t best_base = ~0ULL;
    for (std::uint64_t orders = nonempty_ & (~0ULL << order); orders != 0;
         orders &= orders - 1) {
        const unsigned o = static_cast<unsigned>(std::countr_zero(orders));
        std::uint64_t block = 0;
        if (lowestFreeBelow(o, best_base, block)) {
            best_base = block << o;
            avail = o;
        }
    }
    if (avail > max_order_)
        return invalidPpn;

    const Ppn base{best_base};
    markUsed(best_base >> avail, avail);
    // Split down to the requested order, returning the low half each time
    // and freeing the high half (buddy) at each level.
    while (avail > order) {
        --avail;
        markFree((best_base >> avail) + 1, avail);
    }
    free_pages_ -= 1ULL << order;
    return base;
}

Ppn
BuddyAllocator::allocateLargest(unsigned max_order_wanted, unsigned &got_order)
{
    if (max_order_wanted > max_order_)
        max_order_wanted = max_order_;
    const std::uint64_t fitting =
        nonempty_ & ((2ULL << max_order_wanted) - 1);
    if (fitting != 0) {
        const unsigned o = static_cast<unsigned>(std::bit_width(fitting)) - 1;
        std::uint64_t block = 0;
        const bool found = lowestFreeBelow(o, ~0ULL, block);
        ATLB_ASSERT(found, "order {} counted a free block it lacks", o);
        got_order = o;
        markUsed(block, o);
        free_pages_ -= 1ULL << o;
        return Ppn{block << o};
    }
    // No block <= wanted size free: fall back to splitting a larger one.
    const Ppn base = allocate(max_order_wanted);
    if (base != invalidPpn)
        got_order = max_order_wanted;
    return base;
}

void
BuddyAllocator::free(Ppn base, unsigned order)
{
    ATLB_ASSERT(order <= max_order_, "free of order {} > max {}", order,
                max_order_);
    ATLB_ASSERT(base.isAligned(1ULL << order),
                "free of misaligned block {} order {}", base, order);
    ATLB_ASSERT(base.raw() + (1ULL << order) <= total_pages_,
                "free past end of pool");
    free_pages_ += 1ULL << order;
    // Coalesce with the buddy while it is free, up to max order.
    std::uint64_t block = base.raw() >> order;
    while (order < max_order_ && isFree(block ^ 1, order)) {
        markUsed(block ^ 1, order);
        block >>= 1;
        ++order;
    }
    ATLB_ASSERT(!isFree(block, order), "double free of block {} order {}",
                Ppn{block << order}, order);
    markFree(block, order);
}

std::uint64_t
BuddyAllocator::freeBlocksAt(unsigned order) const
{
    ATLB_ASSERT(order <= max_order_, "order out of range");
    return orders_[order].count;
}

int
BuddyAllocator::largestFreeOrder() const
{
    return static_cast<int>(std::bit_width(nonempty_)) - 1;
}

Histogram
BuddyAllocator::freeBlockHistogram() const
{
    Histogram h;
    for (unsigned order = 0; order <= max_order_; ++order) {
        if (orders_[order].count > 0)
            h.add(1ULL << order, orders_[order].count);
    }
    return h;
}

std::vector<BuddyAllocator::FreeBlock>
BuddyAllocator::freeBlockList() const
{
    std::vector<FreeBlock> blocks = stray_;
    for (unsigned order = 0; order <= max_order_; ++order) {
        const std::vector<std::uint64_t> &words = orders_[order].words;
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t bits = words[w]; bits != 0;
                 bits &= bits - 1) {
                const std::uint64_t block =
                    w * wordBits +
                    static_cast<unsigned>(std::countr_zero(bits));
                blocks.push_back({Ppn{block << order}, order});
            }
        }
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const FreeBlock &a, const FreeBlock &b) {
                  return a.base != b.base ? a.base < b.base
                                          : a.order < b.order;
              });
    return blocks;
}

void
BuddyAllocator::plantFreeBlockForTest(Ppn base, unsigned order)
{
    free_pages_ += 1ULL << order;
    if (order > max_order_ || !base.isAligned(1ULL << order) ||
        base.raw() + (1ULL << order) > total_pages_) {
        stray_.push_back({base, order});
        return;
    }
    if (!isFree(base.raw() >> order, order))
        markFree(base.raw() >> order, order);
}

bool
BuddyAllocator::checkInvariants() const
{
    if (!stray_.empty())
        return false; // misaligned or past the pool end
    std::uint64_t counted = 0;
    for (unsigned order = 0; order <= max_order_; ++order) {
        const OrderMap &m = orders_[order];
        std::uint64_t set = 0;
        for (std::size_t w = 0; w < m.words.size(); ++w) {
            if (m.words[w] != 0 && w < m.hint)
                return false; // the scan would skip this word
            set += static_cast<std::uint64_t>(std::popcount(m.words[w]));
            // A free block must not have a free buddy (should have
            // coalesced), unless it is already at max order.
            if (order < max_order_ &&
                (m.words[w] & (m.words[w] >> 1) & lowBuddies) != 0)
                return false;
        }
        if (set != m.count || ((nonempty_ >> order) & 1) != (set > 0))
            return false;
        counted += set << order;
    }
    if (counted != free_pages_)
        return false;
    Ppn prev_end{0};
    for (const FreeBlock &b : freeBlockList()) {
        if (b.base < prev_end)
            return false; // overlap
        prev_end = b.base + (1ULL << b.order);
        if (prev_end.raw() > total_pages_)
            return false;
    }
    return true;
}

} // namespace atlb
