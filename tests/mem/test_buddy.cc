/**
 * @file
 * Unit and property tests for the buddy allocator.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/buddy_allocator.hh"
#include "mem/buddy_reference.hh"

namespace atlb
{
namespace
{

TEST(Buddy, FreshPoolFullyFree)
{
    BuddyAllocator b(1 << 16);
    EXPECT_EQ(b.freePages(), 1u << 16);
    EXPECT_EQ(b.totalPages(), 1u << 16);
    EXPECT_TRUE(b.checkInvariants());
}

TEST(Buddy, NonPow2PoolSeeded)
{
    BuddyAllocator b(1000);
    EXPECT_EQ(b.freePages(), 1000u);
    EXPECT_TRUE(b.checkInvariants());
}

TEST(Buddy, AllocateReturnsAlignedBlocks)
{
    BuddyAllocator b(1 << 16);
    for (unsigned order = 0; order <= 10; ++order) {
        const Ppn base = b.allocate(order);
        ASSERT_NE(base, invalidPpn);
        EXPECT_EQ(base.raw() & ((1ULL << order) - 1), 0u)
            << "order " << order << " base " << base;
    }
    EXPECT_TRUE(b.checkInvariants());
}

TEST(Buddy, AllocateLowestAddressFirst)
{
    BuddyAllocator b(1 << 12);
    EXPECT_EQ(b.allocate(0), Ppn{0});
    EXPECT_EQ(b.allocate(0), Ppn{1});
    EXPECT_EQ(b.allocate(0), Ppn{2});
}

TEST(Buddy, SequentialPagesAreAdjacent)
{
    // The property that makes demand faults physically contiguous.
    BuddyAllocator b(1 << 14);
    Ppn prev = b.allocate(0);
    for (int i = 0; i < 100; ++i) {
        const Ppn cur = b.allocate(0);
        ASSERT_EQ(cur, prev + 1);
        prev = cur;
    }
}

TEST(Buddy, ExhaustionReturnsInvalid)
{
    BuddyAllocator b(16, 4);
    EXPECT_NE(b.allocate(4), invalidPpn);
    EXPECT_EQ(b.allocate(0), invalidPpn);
    EXPECT_EQ(b.freePages(), 0u);
}

TEST(Buddy, TooLargeOrderRejected)
{
    BuddyAllocator b(1 << 10, 8);
    EXPECT_EQ(b.allocate(9), invalidPpn);
}

TEST(Buddy, FreeCoalescesBuddies)
{
    BuddyAllocator b(1 << 10, 10);
    const Ppn a0 = b.allocate(0);
    const Ppn a1 = b.allocate(0);
    ASSERT_EQ(a1, Ppn{a0.raw() ^ 1}); // buddies
    b.free(a0, 0);
    b.free(a1, 0);
    EXPECT_EQ(b.freePages(), 1u << 10);
    // Whole pool should have re-coalesced into a single max block.
    EXPECT_EQ(b.freeBlocksAt(10), 1u);
    EXPECT_TRUE(b.checkInvariants());
}

TEST(Buddy, SplitLeavesBuddyFree)
{
    BuddyAllocator b(1 << 10, 10);
    ASSERT_NE(b.allocate(0), invalidPpn);
    // Splitting a 1024 block down to order 0 leaves one free buddy at
    // each order 0..9.
    for (unsigned order = 0; order <= 9; ++order)
        EXPECT_EQ(b.freeBlocksAt(order), 1u) << "order " << order;
}

TEST(Buddy, LargestFreeOrderTracksState)
{
    BuddyAllocator b(1 << 10, 10);
    EXPECT_EQ(b.largestFreeOrder(), 10);
    ASSERT_NE(b.allocate(0), invalidPpn);
    EXPECT_EQ(b.largestFreeOrder(), 9);
}

TEST(Buddy, AllocateLargestPrefersBiggestAvailable)
{
    BuddyAllocator b(1 << 10, 10);
    unsigned got = 0;
    const Ppn base = b.allocateLargest(10, got);
    EXPECT_NE(base, invalidPpn);
    EXPECT_EQ(got, 10u);
}

TEST(Buddy, AllocateLargestFallsBackToSplitting)
{
    BuddyAllocator b(1 << 10, 10);
    unsigned got = 0;
    // Only a 1024-page block exists; ask for at most 4 pages.
    const Ppn base = b.allocateLargest(2, got);
    EXPECT_NE(base, invalidPpn);
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(b.freePages(), (1u << 10) - 4);
}

TEST(Buddy, AllocateLargestCapsWantedOrder)
{
    BuddyAllocator b(1 << 6, 6);
    unsigned got = 0;
    const Ppn base = b.allocateLargest(30, got);
    EXPECT_NE(base, invalidPpn);
    EXPECT_EQ(got, 6u);
}

TEST(Buddy, FreeBlockHistogramMatchesFreeLists)
{
    BuddyAllocator b(1 << 8, 8);
    ASSERT_NE(b.allocate(0), invalidPpn);
    const Histogram h = b.freeBlockHistogram();
    // One free block at each of orders 0..7.
    for (unsigned order = 0; order < 8; ++order)
        EXPECT_EQ(h.count(1ULL << order), 1u);
    EXPECT_EQ(h.weightedSum(), b.freePages());
}

/** Random alloc/free torture: invariants hold, frames never overlap. */
class BuddyTorture : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuddyTorture, RandomOpsPreserveInvariants)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    BuddyAllocator b(1 << 14, 12);
    std::vector<std::pair<Ppn, unsigned>> live;
    std::set<Ppn> owned;

    for (int step = 0; step < 4000; ++step) {
        if (live.empty() || rng.nextBool(0.6)) {
            const unsigned order =
                static_cast<unsigned>(rng.nextBounded(6));
            const Ppn base = b.allocate(order);
            if (base == invalidPpn)
                continue;
            for (std::uint64_t i = 0; i < (1ULL << order); ++i) {
                // No frame may be handed out twice.
                ASSERT_TRUE(owned.insert(base + i).second)
                    << "frame " << base + i << " double-allocated";
            }
            live.emplace_back(base, order);
        } else {
            const std::size_t idx = rng.nextBounded(live.size());
            const auto [base, order] = live[idx];
            live[idx] = live.back();
            live.pop_back();
            for (std::uint64_t i = 0; i < (1ULL << order); ++i)
                owned.erase(base + i);
            b.free(base, order);
        }
    }
    EXPECT_TRUE(b.checkInvariants());
    // Free everything; the pool must return to fully-coalesced state.
    for (const auto &[base, order] : live)
        b.free(base, order);
    EXPECT_EQ(b.freePages(), 1u << 14);
    EXPECT_TRUE(b.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyTorture,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** The two allocators agree on every free list, order by order. */
void
expectSameFreeState(const BuddyAllocator &b,
                    const buddy_reference::SetBuddyAllocator &ref,
                    int step)
{
    ASSERT_EQ(b.freePages(), ref.freePages()) << "step " << step;
    ASSERT_EQ(b.largestFreeOrder(), ref.largestFreeOrder())
        << "step " << step;
    for (unsigned order = 0; order <= b.maxOrder(); ++order)
        ASSERT_EQ(b.freeBlocksAt(order), ref.freeBlocksAt(order))
            << "step " << step << " order " << order;
}

TEST(Buddy, MatchesSetReference)
{
    // Random allocate / allocateLargest / free against the std::set
    // allocator the bitmaps replaced: same policy, so the same block
    // comes back at every step, and the free lists stay equal.
    struct Pool
    {
        std::uint64_t pages;
        unsigned max_order;
    };
    const Pool pools[] = {
        {1, 4},        {7, 4},         {1000, 6},       {4096 + 3, 9},
        {1 << 14, 12}, {(1 << 16) - 5, 10}, {1 << 16, 16},
        {3 * (1 << 16) + 7, 16},
    };
    constexpr int totalSteps = 100000;
    constexpr int stepsPerPool =
        totalSteps / static_cast<int>(std::size(pools));
    Rng rng(2017);
    for (const Pool &pool : pools) {
        SCOPED_TRACE(::testing::Message()
                     << "pool " << pool.pages << " max order "
                     << pool.max_order);
        BuddyAllocator b(pool.pages, pool.max_order);
        buddy_reference::SetBuddyAllocator ref(pool.pages,
                                               pool.max_order);
        std::vector<std::pair<Ppn, unsigned>> held;
        for (int step = 0; step < stepsPerPool; ++step) {
            // Alternate allocation-heavy and free-heavy stretches, so
            // the pool both fills up and fragments.
            const double alloc_share = (step / 1024) % 2 == 0 ? 0.7 : 0.3;
            if (held.empty() || rng.nextBool(alloc_share)) {
                const unsigned wanted =
                    static_cast<unsigned>(rng.nextBounded(pool.max_order + 2));
                Ppn got{0};
                Ppn want{0};
                unsigned order = wanted;
                if (rng.nextBool(0.75)) {
                    got = b.allocate(wanted);
                    want = ref.allocate(wanted);
                } else {
                    unsigned ref_order = 0;
                    got = b.allocateLargest(wanted, order);
                    want = ref.allocateLargest(wanted, ref_order);
                    if (want != invalidPpn) {
                        ASSERT_EQ(order, ref_order) << "step " << step;
                    }
                }
                ASSERT_EQ(got, want) << "step " << step << " order "
                                     << wanted;
                if (got != invalidPpn)
                    held.emplace_back(got, order);
            } else {
                const std::size_t idx = rng.nextBounded(held.size());
                const auto [base, order] = held[idx];
                held[idx] = held.back();
                held.pop_back();
                b.free(base, order);
                ref.free(base, order);
            }
            expectSameFreeState(b, ref, step);
            if (step % 64 == 0) {
                const auto mine = b.freeBlockList();
                const auto theirs = ref.freeBlockList();
                ASSERT_EQ(mine.size(), theirs.size()) << "step " << step;
                for (std::size_t i = 0; i < mine.size(); ++i) {
                    ASSERT_EQ(mine[i].base, theirs[i].base)
                        << "step " << step << " block " << i;
                    ASSERT_EQ(mine[i].order, theirs[i].order)
                        << "step " << step << " block " << i;
                }
            }
        }
        EXPECT_TRUE(b.checkInvariants());
    }
}

} // namespace
} // namespace atlb
