/**
 * @file
 * The reference every cell engine test compares against: runCellJob on
 * a freshly built CellPairState, on the calling thread, with no
 * scheduler and no cache — plus a field-for-field result comparison.
 */

#ifndef ANCHORTLB_TESTS_SIM_CELL_REFERENCE_HH
#define ANCHORTLB_TESTS_SIM_CELL_REFERENCE_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/parallel_runner.hh"

namespace atlb
{

/** @p job's result from a fresh pair: no scheduler, no cache. */
inline SimResult
freshCellResult(const SimOptions &options, const CellJob &job)
{
    const CellPairState pair(options, job.workload, job.scenario);
    return runCellJob(options, pair, job);
}

/** Every field equal, instructions by bit pattern. */
inline void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.anchor_distance, b.anchor_distance);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
    EXPECT_EQ(a.stats.l2_regular_hits, b.stats.l2_regular_hits);
    EXPECT_EQ(a.stats.coalesced_hits, b.stats.coalesced_hits);
    EXPECT_EQ(a.stats.page_walks, b.stats.page_walks);
    EXPECT_EQ(a.stats.translation_cycles, b.stats.translation_cycles);
    EXPECT_EQ(a.stats.shootdowns, b.stats.shootdowns);
    EXPECT_EQ(a.stats.shootdown_cycles, b.stats.shootdown_cycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.instructions),
              std::bit_cast<std::uint64_t>(b.instructions));
    EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);
    EXPECT_EQ(a.coalesced_cycles, b.coalesced_cycles);
    EXPECT_EQ(a.walk_cycles, b.walk_cycles);
}

} // namespace atlb

#endif // ANCHORTLB_TESTS_SIM_CELL_REFERENCE_HH
