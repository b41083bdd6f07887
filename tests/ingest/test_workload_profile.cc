/**
 * @file
 * Tests for the workload profiler: footprint, strides, and the
 * contiguity histogram cross-checked against the OS mapping layer's own
 * histogram (the distance-selection input it stands in for).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/types.hh"
#include "ingest/workload_profile.hh"
#include "os/memory_map.hh"

namespace atlb
{
namespace
{

/** Touch every page of each [start, start+len) VPN run, in order. */
WorkloadProfile
profileRuns(const std::vector<std::pair<Vpn, std::uint64_t>> &runs)
{
    WorkloadProfiler profiler;
    for (const auto &[start, len] : runs)
        for (std::uint64_t i = 0; i < len; ++i)
            profiler.record({vaOf(start + i), false});
    return profiler.profile();
}

TEST(WorkloadProfile, FootprintAndBounds)
{
    WorkloadProfiler profiler;
    profiler.record({VirtAddr{0x1000}, false});
    profiler.record({VirtAddr{0x1008}, true});  // same page
    profiler.record({VirtAddr{0x5000}, false});
    const WorkloadProfile p = profiler.profile();
    EXPECT_EQ(p.footprint_pages, 2u);
    EXPECT_EQ(p.footprint_bytes, 2 * pageBytes);
    EXPECT_EQ(p.min_vaddr, 0x1000u);
    EXPECT_EQ(p.max_vaddr, 0x5000u);
    EXPECT_EQ(p.pages.accesses, 3u);
    EXPECT_EQ(p.pages.writes, 1u);
}

TEST(WorkloadProfile, EmptyProfile)
{
    WorkloadProfiler profiler;
    const WorkloadProfile p = profiler.profile();
    EXPECT_EQ(p.footprint_pages, 0u);
    EXPECT_EQ(p.min_vaddr, 0u);
    EXPECT_EQ(p.max_vaddr, 0u);
    EXPECT_TRUE(p.contiguity.empty());
    // Algorithm 1 on an empty histogram picks the smallest candidate.
    EXPECT_EQ(p.anchor_distance.distance, 2u);
}

TEST(WorkloadProfile, ContiguityFindsMaximalVpnRuns)
{
    // Touched VPNs form runs of 3, 1 and 5 pages (with gaps); access
    // order must not matter, so interleave the runs.
    WorkloadProfiler profiler;
    const Vpn base{0x7f0000000ULL};
    for (const Vpn v : {base + 0, base + 10, base + 20, base + 1,
                        base + 21, base + 2, base + 22, base + 23,
                        base + 24, base + 0, base + 21})
        profiler.record({vaOf(v), false});
    const WorkloadProfile p = profiler.profile();
    EXPECT_EQ(p.contiguity.count(3), 1u);
    EXPECT_EQ(p.contiguity.count(1), 1u);
    EXPECT_EQ(p.contiguity.count(5), 1u);
    EXPECT_EQ(p.contiguity.samples(), 3u);
    EXPECT_EQ(p.contiguity.weightedSum(), 9u);
}

TEST(WorkloadProfile, ContiguityMatchesMemoryMapHistogram)
{
    // The profiler's histogram must be interchangeable with the one the
    // OS derives from its own mapping: map each touched run as one
    // chunk (physically separated so nothing merges) and compare.
    const std::vector<std::pair<Vpn, std::uint64_t>> runs = {
        {Vpn{0x7f0000000ULL}, 4},
        {Vpn{0x7f0000100ULL}, 17},
        {Vpn{0x7f0000200ULL}, 1},
        {Vpn{0x7f0000300ULL}, 17},
        {Vpn{0x7f0000400ULL}, 600},
    };
    const WorkloadProfile p = profileRuns(runs);

    MemoryMap map;
    Ppn ppn{0x1000};
    for (const auto &[start, len] : runs) {
        map.add(start, ppn, PageCount{len});
        ppn += len + 7; // gap: chunks must not merge physically
    }
    map.finalize();
    const Histogram os_hist = map.contiguityHistogram();

    ASSERT_EQ(p.contiguity.entries().size(), os_hist.entries().size());
    for (const auto &[size, count] : os_hist.entries())
        EXPECT_EQ(p.contiguity.count(size), count) << "run size " << size;

    // And identical inputs give Algorithm 1 identical picks.
    const DistanceSelection os_pick = selectAnchorDistance(os_hist);
    EXPECT_EQ(p.anchor_distance.distance, os_pick.distance);
    EXPECT_EQ(p.anchor_distance.cost, os_pick.cost);
}

TEST(WorkloadProfile, StrideHistogram)
{
    WorkloadProfiler profiler;
    const Vpn base{0x7f0000000ULL};
    profiler.record({vaOf(base), false});
    profiler.record({vaOf(base) + 8, false});   // same page: delta 0
    profiler.record({vaOf(base + 1), false});   // delta 1
    profiler.record({vaOf(base + 9), false});   // delta 8
    profiler.record({vaOf(base), false});       // delta 9 (backwards)
    const WorkloadProfile p = profiler.profile();
    EXPECT_EQ(p.stride.samples(), 4u);
    EXPECT_EQ(p.stride.bucket(0), 2u); // deltas 0 and 1
    EXPECT_EQ(p.stride.bucket(3), 2u); // deltas 8 and 9 land in [8,16)
}

TEST(WorkloadProfile, ConsumeDrainsASource)
{
    class CountedSource : public TraceSource
    {
      public:
        explicit CountedSource(std::uint64_t n) : n_(n) {}
        std::size_t fill(MemAccess *out, std::size_t max) override
        {
            std::size_t k = 0;
            for (; k < max && i_ < n_; ++k, ++i_)
                out[k] = {vaOf(Vpn{0x7f0000000ULL} + i_), false};
            return k;
        }
        void reset() override { i_ = 0; }

      private:
        std::uint64_t n_;
        std::uint64_t i_ = 0;
    };
    CountedSource source(2'500);
    WorkloadProfiler profiler;
    profiler.consume(source);
    const WorkloadProfile p = profiler.profile();
    EXPECT_EQ(p.pages.accesses, 2'500u);
    EXPECT_EQ(p.footprint_pages, 2'500u);
    EXPECT_EQ(p.contiguity.count(2'500), 1u);
}

TEST(WorkloadProfile, JsonEmitsAllSections)
{
    const WorkloadProfile p =
        profileRuns({{Vpn{0x7f0000000ULL}, 8}, {Vpn{0x7f0000100ULL}, 3}});
    std::ostringstream os;
    writeWorkloadProfileJson(os, p);
    const std::string json = os.str();
    for (const char *needle :
         {"\"accesses\": 11", "\"footprint_pages\": 11",
          "\"reuse_distance_log2\"", "\"stride_log2\"", "\"contiguity\"",
          "\"chunk_pages\": 8", "\"anchor_distance\"", "\"candidates\""})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << json;
}

} // namespace
} // namespace atlb
