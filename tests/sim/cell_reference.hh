/**
 * @file
 * The references cell engine tests compare against: runCellJob on a
 * freshly built CellPairState, on the calling thread, with no scheduler
 * and no cache; and the streamed reference below it, which shares
 * nothing at all — plus a field-for-field result comparison and a
 * writer of trace files for trace-driven cells.
 */

#ifndef ANCHORTLB_TESTS_SIM_CELL_REFERENCE_HH
#define ANCHORTLB_TESTS_SIM_CELL_REFERENCE_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_io.hh"

namespace atlb
{

/** @p job's result from a fresh pair: no scheduler, no cache. */
inline SimResult
freshCellResult(const SimOptions &options, const CellJob &job)
{
    const CellPairState pair(options, job.workload, job.scenario);
    return runCellJob(options, pair, job);
}

/**
 * @p job's result with nothing shared: every simulation streams from
 * its own makeCellTrace source over a table built for it alone (a fresh
 * anchor table per AnchorIdeal candidate). runCellJob's pair stream,
 * shared tables and in-place sweep must reproduce it byte for byte.
 */
inline SimResult
streamedCellResult(const SimOptions &options, const CellJob &job)
{
    const WorkloadSpec spec = scaledWorkloadSpec(options, job.workload);
    const MemoryMap map =
        buildScenario(job.scenario, scenarioParamsFor(options, spec));
    const auto simulate = [&](const PageTable &table,
                              std::uint64_t distance) {
        const std::unique_ptr<TraceSource> trace =
            makeCellTrace(options, spec, cellAccesses(options, spec));
        return runSchemeCell(options, spec, job.scenario, map, table,
                             job.scheme, distance, *trace);
    };
    const auto anchored = [&map](std::uint64_t distance) {
        return buildAnchorPageTable(map, AnchorDist::fromPages(distance));
    };
    switch (job.scheme) {
      case Scheme::Base:
      case Scheme::Cluster:
        return simulate(buildPageTable(map, false), 0);
      case Scheme::Thp:
      case Scheme::Cluster2MB:
      case Scheme::Rmm:
        return simulate(buildPageTable(map, true), 0);
      case Scheme::Anchor: {
        const std::uint64_t distance = job.distance_override.value_or(
            selectAnchorDistance(map.contiguityHistogram()).distance);
        return simulate(anchored(distance), distance);
      }
      case Scheme::AnchorIdeal: {
        SimResult best;
        bool have_best = false;
        for (const std::uint64_t distance : candidateDistances()) {
            SimResult res = simulate(anchored(distance), distance);
            if (!have_best || res.misses() < best.misses()) {
                best = std::move(res);
                have_best = true;
            }
        }
        return best;
      }
    }
    ADD_FAILURE() << "unhandled scheme";
    return {};
}

/**
 * Write the first @p accesses of @p workload's stream under @p options
 * as an ATLBTRC1 file, which "trace:<path>" then replays.
 */
inline void
writeWorkloadTrace(const std::string &path, const SimOptions &options,
                   const std::string &workload, std::uint64_t accesses)
{
    const WorkloadSpec spec = scaledWorkloadSpec(options, workload);
    PatternTrace source(spec, traceBaseVa(), accesses,
                        traceSeedFor(options, spec));
    TraceWriter writer(path);
    MemAccess access;
    while (source.next(access))
        writer.append(access);
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
