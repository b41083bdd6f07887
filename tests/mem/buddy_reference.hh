/**
 * @file
 * The reference the bitmap buddy allocator is checked against: the
 * allocator it replaced, kept as it was. One std::set of block bases per
 * order; allocate() takes the lowest base across every order that can
 * serve the request, splits it keeping the low half, and free()
 * coalesces eagerly. Only the calls Buddy.MatchesSetReference compares
 * are kept.
 */

#ifndef ANCHORTLB_TESTS_MEM_BUDDY_REFERENCE_HH
#define ANCHORTLB_TESTS_MEM_BUDDY_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/buddy_allocator.hh"

namespace atlb::buddy_reference
{

class SetBuddyAllocator
{
  public:
    SetBuddyAllocator(std::uint64_t total_pages, unsigned max_order)
        : max_order_(max_order), free_lists_(max_order + 1)
    {
        Ppn base{0};
        std::uint64_t remaining = total_pages;
        while (remaining > 0) {
            unsigned order = max_order_;
            while (order > 0 && ((1ULL << order) > remaining ||
                                 !base.isAligned(1ULL << order)))
                --order;
            free_lists_[order].insert(base);
            free_pages_ += 1ULL << order;
            base += 1ULL << order;
            remaining -= 1ULL << order;
        }
    }

    Ppn allocate(unsigned order)
    {
        if (order > max_order_)
            return invalidPpn;
        unsigned avail = max_order_ + 1;
        Ppn best = invalidPpn;
        for (unsigned o = order; o <= max_order_; ++o) {
            if (free_lists_[o].empty())
                continue;
            const Ppn base = *free_lists_[o].begin();
            if (base < best) {
                best = base;
                avail = o;
            }
        }
        if (avail > max_order_)
            return invalidPpn;
        const Ppn base = best;
        free_lists_[avail].erase(free_lists_[avail].begin());
        while (avail > order) {
            --avail;
            free_lists_[avail].insert(base + (1ULL << avail));
        }
        free_pages_ -= 1ULL << order;
        return base;
    }

    Ppn allocateLargest(unsigned max_order_wanted, unsigned &got_order)
    {
        if (max_order_wanted > max_order_)
            max_order_wanted = max_order_;
        for (int order = static_cast<int>(max_order_wanted); order >= 0;
             --order) {
            if (!free_lists_[order].empty()) {
                got_order = static_cast<unsigned>(order);
                const Ppn base = *free_lists_[order].begin();
                free_lists_[order].erase(free_lists_[order].begin());
                free_pages_ -= 1ULL << got_order;
                return base;
            }
        }
        const Ppn base = allocate(max_order_wanted);
        if (base != invalidPpn)
            got_order = max_order_wanted;
        return base;
    }

    void free(Ppn base, unsigned order)
    {
        free_pages_ += 1ULL << order;
        while (order < max_order_) {
            const Ppn buddy{base.raw() ^ (1ULL << order)};
            auto &list = free_lists_[order];
            const auto it = list.find(buddy);
            if (it == list.end())
                break;
            list.erase(it);
            base = std::min(base, buddy);
            ++order;
        }
        const bool inserted = free_lists_[order].insert(base).second;
        ATLB_ASSERT(inserted, "double free of block {} order {}", base,
                    order);
    }

    std::uint64_t freePages() const { return free_pages_; }

    std::uint64_t freeBlocksAt(unsigned order) const
    {
        return free_lists_[order].size();
    }

    int largestFreeOrder() const
    {
        for (int order = static_cast<int>(max_order_); order >= 0; --order)
            if (!free_lists_[order].empty())
                return order;
        return -1;
    }

    std::vector<BuddyAllocator::FreeBlock> freeBlockList() const
    {
        std::vector<BuddyAllocator::FreeBlock> blocks;
        for (unsigned order = 0; order <= max_order_; ++order)
            for (const Ppn base : free_lists_[order])
                blocks.push_back({base, order});
        std::sort(blocks.begin(), blocks.end(),
                  [](const BuddyAllocator::FreeBlock &a,
                     const BuddyAllocator::FreeBlock &b) {
                      return a.base < b.base;
                  });
        return blocks;
    }

  private:
    unsigned max_order_;
    std::uint64_t free_pages_ = 0;
    std::vector<std::set<Ppn>> free_lists_;
};

} // namespace atlb::buddy_reference

#endif // ANCHORTLB_TESTS_MEM_BUDDY_REFERENCE_HH
