/**
 * @file
 * Unit tests for the cell scheduler as `anchortlb serve` drives it:
 * determinism (results byte-identical to the reference, runCellJob on
 * a fresh pair, no matter how tickets interleave), round-robin fairness
 * across tickets, bounded admission with counted stalls, and the
 * pinned pair-state LRU.
 *
 * Suites are named Serve* so the TSan CI leg picks them up.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/cell_reference.hh"
#include "sim/parallel_runner.hh"

namespace atlb
{
namespace
{

SimOptions
quickOptions()
{
    SimOptions opts;
    opts.accesses = 20'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02;
    return opts;
}

/** Submit @p jobs on one ticket, returning results by submit index. */
std::vector<SimResult>
runThroughScheduler(CellScheduler &scheduler, const SimOptions &options,
                    const std::vector<CellJob> &jobs)
{
    std::vector<SimResult> results(jobs.size());
    const auto ticket = scheduler.open(
        options, [&results](std::size_t index, const SimResult &result,
                            std::uint64_t /*queue_wait_us*/) {
            results[index] = result;
        });
    for (std::size_t i = 0; i < jobs.size(); ++i)
        ticket->submit(i, jobs[i]);
    ticket->wait();
    return results;
}

TEST(ServeScheduler, ResultsMatchDirectRunAcrossSchemes)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(4, 64, 4);

    std::vector<CellJob> jobs;
    for (const Scheme scheme :
         {Scheme::Base, Scheme::Thp, Scheme::Cluster, Scheme::Anchor,
          Scheme::AnchorIdeal}) {
        jobs.push_back(
            CellJob{"canneal", ScenarioKind::MedContig, scheme, {}});
    }
    jobs.push_back(CellJob{"canneal", ScenarioKind::MedContig,
                           Scheme::Anchor, 16});

    const std::vector<SimResult> results =
        runThroughScheduler(scheduler, opts, jobs);

    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameResult(results[i], freshCellResult(opts, jobs[i]));

    const CellScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.enqueued, jobs.size());
    EXPECT_EQ(stats.completed, jobs.size());
    EXPECT_EQ(stats.depth, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(stats.tickets_open, 0u);
}

TEST(ServeScheduler, ConcurrentTicketsStayDeterministic)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(4, 64, 4);

    // Two overlapping grids submitted from two threads: interleaving
    // must not leak into any cell's numbers.
    std::vector<CellJob> grid_a;
    std::vector<CellJob> grid_b;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (const Scheme scheme : {Scheme::Base, Scheme::Anchor}) {
            grid_a.push_back(
                CellJob{workload, ScenarioKind::MedContig, scheme, {}});
            grid_b.push_back(
                CellJob{workload, ScenarioKind::MedContig, scheme, {}});
        }
    }
    grid_b.push_back(CellJob{"canneal", ScenarioKind::HighContig,
                             Scheme::Base, {}});

    std::vector<SimResult> results_a;
    std::vector<SimResult> results_b;
    std::thread ta([&] {
        results_a = runThroughScheduler(scheduler, opts, grid_a);
    });
    std::thread tb([&] {
        results_b = runThroughScheduler(scheduler, opts, grid_b);
    });
    ta.join();
    tb.join();

    for (std::size_t i = 0; i < grid_a.size(); ++i) {
        const SimResult direct = freshCellResult(opts, grid_a[i]);
        expectSameResult(results_a[i], direct);
        expectSameResult(results_b[i], direct); // identical overlap
    }
    expectSameResult(results_b.back(),
                     freshCellResult(opts, grid_b.back()));
}

TEST(ServeScheduler, RoundRobinLetsASmallTicketOvertakeALargeOne)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(1, 64, 4); // one worker: strict interleave

    std::atomic<std::uint64_t> completions{0};

    // A large ticket: many distinct Anchor cells over one pair.
    constexpr std::size_t large_cells = 10;
    std::vector<SimResult> large_results(large_cells);
    const auto large = scheduler.open(
        opts,
        [&](std::size_t index, const SimResult &result, std::uint64_t) {
            large_results[index] = result;
            completions.fetch_add(1);
        });
    for (std::size_t i = 0; i < large_cells; ++i) {
        large->submit(i, CellJob{"canneal", ScenarioKind::MedContig,
                                 Scheme::Anchor, std::uint64_t{2} << i});
    }

    // Now a 1-cell ticket. Round-robin bounds how much of the large
    // grid may still cut in front of it: the job a worker already
    // holds, plus at most one more before the ring rotates here.
    std::atomic<std::uint64_t> small_ordinal{0};
    SimResult small_result;
    {
        const auto small = scheduler.open(
            opts, [&](std::size_t, const SimResult &result,
                      std::uint64_t) {
                small_result = result;
                small_ordinal = completions.fetch_add(1) + 1;
            });
        small->submit(0, CellJob{"sphinx3", ScenarioKind::MedContig,
                                 Scheme::Base, {}});
        // Read after submit: completions landing in between only
        // loosen the bound, so the check cannot flake tight.
        const std::uint64_t completed_at_submit = completions.load();
        small->wait();
        EXPECT_LE(small_ordinal.load(), completed_at_submit + 3)
            << "the 1-cell ticket queued behind the whole large grid";
    }
    large->wait();
    EXPECT_EQ(completions.load(), large_cells + 1);

    expectSameResult(small_result,
                     freshCellResult(opts, CellJob{"sphinx3",
                                                   ScenarioKind::MedContig,
                                                   Scheme::Base,
                                                   {}}));
    for (std::size_t i = 0; i < large_cells; ++i) {
        expectSameResult(
            large_results[i],
            freshCellResult(opts, CellJob{"canneal",
                                          ScenarioKind::MedContig,
                                          Scheme::Anchor,
                                          std::uint64_t{2} << i}));
    }
}

TEST(ServeScheduler, BoundedAdmissionStallsAndRecovers)
{
    const SimOptions opts = quickOptions();
    // One worker, one queue slot: while a cell simulates, a second
    // queued cell fills the queue, so further submits must stall.
    CellScheduler scheduler(1, 1, 4);

    constexpr std::size_t cells = 6;
    std::vector<SimResult> results(cells);
    const auto ticket = scheduler.open(
        opts,
        [&](std::size_t index, const SimResult &result, std::uint64_t) {
            results[index] = result;
        });
    for (std::size_t i = 0; i < cells; ++i) {
        ticket->submit(i, CellJob{"canneal", ScenarioKind::MedContig,
                                  Scheme::Anchor, std::uint64_t{2} << i});
    }
    ticket->wait();

    const CellScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.enqueued, cells);
    EXPECT_EQ(stats.completed, cells);
    EXPECT_GE(stats.admission_stalls, 1u);
    EXPECT_LE(stats.depth_peak, 1u) << "the queue bound was exceeded";
    EXPECT_EQ(stats.depth, 0u);

    for (std::size_t i = 0; i < cells; ++i) {
        expectSameResult(
            results[i],
            freshCellResult(opts, CellJob{"canneal",
                                          ScenarioKind::MedContig,
                                          Scheme::Anchor,
                                          std::uint64_t{2} << i}));
    }
}

TEST(ServeScheduler, PairStateIsBuiltOnceAndSharedAcrossTickets)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(2, 64, 4);

    const std::vector<CellJob> same_pair = {
        CellJob{"canneal", ScenarioKind::MedContig, Scheme::Base, {}},
        CellJob{"canneal", ScenarioKind::MedContig, Scheme::Thp, {}},
        CellJob{"canneal", ScenarioKind::MedContig, Scheme::Anchor, {}},
    };
    runThroughScheduler(scheduler, opts, same_pair);

    CellScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.pair_builds, 1u);
    EXPECT_EQ(stats.pair_reuses, 2u);
    EXPECT_EQ(stats.pairs_cached, 1u);

    // A later ticket for the same pair reuses the cached build.
    runThroughScheduler(
        scheduler, opts,
        {CellJob{"canneal", ScenarioKind::MedContig, Scheme::Cluster,
                 {}}});
    stats = scheduler.stats();
    EXPECT_EQ(stats.pair_builds, 1u);
    EXPECT_EQ(stats.pair_reuses, 3u);
}

TEST(ServeScheduler, PairCacheEvictsColdestUnpinnedEntry)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(1, 64, 1); // room for exactly one pair

    const auto one_cell = [](const char *workload) {
        return std::vector<CellJob>{
            CellJob{workload, ScenarioKind::MedContig, Scheme::Base,
                    {}}};
    };
    runThroughScheduler(scheduler, opts, one_cell("canneal"));
    runThroughScheduler(scheduler, opts, one_cell("sphinx3"));

    CellScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.pair_builds, 2u);
    EXPECT_EQ(stats.pairs_cached, 1u) << "eviction must keep the cap";

    // The first pair was evicted, so revisiting it rebuilds.
    runThroughScheduler(scheduler, opts, one_cell("canneal"));
    stats = scheduler.stats();
    EXPECT_EQ(stats.pair_builds, 3u);
    EXPECT_EQ(stats.pairs_cached, 1u);
}

TEST(ServeScheduler, TicketDestructorWaitsForOutstandingJobs)
{
    const SimOptions opts = quickOptions();
    CellScheduler scheduler(2, 64, 4);

    std::atomic<std::uint64_t> completions{0};
    {
        const auto ticket = scheduler.open(
            opts, [&](std::size_t, const SimResult &, std::uint64_t) {
                completions.fetch_add(1);
            });
        for (std::size_t i = 0; i < 4; ++i) {
            ticket->submit(i,
                           CellJob{"canneal", ScenarioKind::MedContig,
                                   Scheme::Anchor, std::uint64_t{2} << i});
        }
        // No wait(): destruction itself must block on the jobs.
    }
    EXPECT_EQ(completions.load(), 4u);
    EXPECT_EQ(scheduler.stats().tickets_open, 0u);
}

} // namespace
} // namespace atlb
