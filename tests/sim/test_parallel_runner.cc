/**
 * @file
 * Determinism tests for the cell engine: a grid run as one
 * ExperimentContext::runCells batch is identical — field for field — at
 * one worker and at eight, cell by cell to single-cell runs and to the
 * reference (runCellJob on a fresh pair); and runCellJob's in-place
 * AnchorIdeal sweep matches fresh anchor tables. This is the guarantee
 * that lets every figure bench run parallel by default.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "os/distance_selector.hh"
#include "sim/cell_reference.hh"
#include "sim/parallel_runner.hh"

namespace atlb
{
namespace
{

SimOptions
quickOptions(unsigned threads)
{
    SimOptions opts;
    opts.accesses = 15'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02; // shrink footprints for test speed
    opts.threads = threads;
    return opts;
}

/** 3 workloads x 3 scenarios x all schemes: the regression grid. */
std::vector<CellJob>
regressionGrid()
{
    const std::vector<std::string> workloads = {"sphinx3", "omnetpp",
                                                "canneal"};
    const std::vector<ScenarioKind> scenarios = {
        ScenarioKind::Demand, ScenarioKind::MedContig,
        ScenarioKind::MaxContig};
    std::vector<CellJob> jobs;
    for (const auto &workload : workloads)
        for (const ScenarioKind scenario : scenarios)
            for (const Scheme scheme : allSchemes)
                jobs.push_back({workload, scenario, scheme, {}});
    return jobs;
}

std::string
cellName(const CellJob &job)
{
    return job.workload + "/" + scenarioName(job.scenario) + "/" +
           schemeName(job.scheme);
}

TEST(ParallelRunner, EightThreadsMatchSerialOnFullGrid)
{
    const std::vector<CellJob> jobs = regressionGrid();

    ExperimentContext serial(quickOptions(1));
    ExperimentContext parallel(quickOptions(8));
    const std::vector<SimResult> a = serial.runCells(jobs);
    const std::vector<SimResult> b = parallel.runCells(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(cellName(jobs[i]));
        expectSameResult(a[i], b[i]);
    }
}

TEST(ParallelRunner, ParallelMatchesExperimentContextCellByCell)
{
    // A batch across eight workers must reproduce single-cell runs and
    // the reference, not just itself at one worker.
    const std::vector<CellJob> jobs = regressionGrid();
    const SimOptions opts = quickOptions(8);

    ExperimentContext parallel(opts);
    ExperimentContext single(quickOptions(1));
    const std::vector<SimResult> results = parallel.runCells(jobs);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(cellName(jobs[i]));
        const CellJob &job = jobs[i];
        expectSameResult(single.run(job.workload, job.scenario, job.scheme,
                                    job.distance_override),
                         results[i]);
        expectSameResult(freshCellResult(opts, job), results[i]);
    }
}

TEST(ParallelRunner, DistanceOverrideHonoured)
{
    const CellJob job = {"canneal", ScenarioKind::MedContig,
                         Scheme::Anchor, 64};

    ExperimentContext parallel(quickOptions(4));
    const std::vector<SimResult> results = parallel.runCells({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].anchor_distance, 64u);
    expectSameResult(freshCellResult(quickOptions(1), job), results[0]);
}

TEST(ParallelRunner, EmptyJobListYieldsEmptyResults)
{
    ExperimentContext parallel(quickOptions(8));
    EXPECT_TRUE(parallel.runCells({}).empty());
}

TEST(ParallelRunner, RepeatedParallelRunsAreStable)
{
    // The second batch reuses the first one's pair state: sharing it
    // must not change the result.
    const std::vector<CellJob> jobs = {
        {"sphinx3", ScenarioKind::HighContig, Scheme::AnchorIdeal, {}},
    };
    ExperimentContext parallel(quickOptions(8));
    const std::vector<SimResult> first = parallel.runCells(jobs);
    const std::vector<SimResult> second = parallel.runCells(jobs);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    expectSameResult(first[0], second[0]);
    EXPECT_EQ(parallel.scheduler().stats().pair_reuses, 1u);
}

TEST(ParallelRunner, AnchorIdealInPlaceSweepMatchesFreshTables)
{
    // AnchorIdeal re-sweeps one private THP table in place for each
    // candidate; an Anchor job with that distance builds a fresh anchor
    // table. The first minimum over the fresh runs must be the
    // AnchorIdeal result in every field but the scheme label. Max
    // contiguity exercises anchors held in 2MB leaves.
    const SimOptions opts = quickOptions(1);
    for (const char *workload : {"canneal", "gups", "sphinx3"}) {
        for (const ScenarioKind scenario :
             {ScenarioKind::Demand, ScenarioKind::MedContig,
              ScenarioKind::MaxContig}) {
            SCOPED_TRACE(std::string(workload) + "/" +
                         scenarioName(scenario));
            const CellPairState pair(opts, workload, scenario);
            const SimResult ideal = runCellJob(
                opts, pair,
                CellJob{workload, scenario, Scheme::AnchorIdeal, {}});

            SimResult best;
            bool have_best = false;
            for (const std::uint64_t distance : candidateDistances()) {
                SimResult fresh = runCellJob(
                    opts, pair,
                    CellJob{workload, scenario, Scheme::Anchor, distance});
                if (!have_best || fresh.misses() < best.misses()) {
                    best = std::move(fresh);
                    have_best = true;
                }
            }
            best.scheme = ideal.scheme;
            expectSameResult(ideal, best);
        }
    }
}

} // namespace
} // namespace atlb
