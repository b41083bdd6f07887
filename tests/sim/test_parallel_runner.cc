/**
 * @file
 * Determinism tests for the cell engine: a grid run as one
 * ExperimentContext::runCells batch is identical — field for field — at
 * one worker and at eight, cell by cell to single-cell runs and to the
 * reference (runCellJob on a fresh pair); runCellJob's in-place
 * AnchorIdeal sweep matches fresh anchor tables, and stops losing
 * candidates without changing its result; and a pair's shared
 * stream, replayed at any cell length or first used by four workers at
 * once, matches cells streamed from their own source. This is the
 * guarantee that lets every figure bench run parallel by default.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
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

/** Counts the accesses pulled through it from the stream it wraps. */
class CountingSource : public TraceSource
{
  public:
    CountingSource(std::unique_ptr<TraceSource> inner,
                   std::uint64_t &pulled)
        : inner_(std::move(inner)), pulled_(pulled)
    {
    }

    std::size_t fill(MemAccess *out, std::size_t max) override
    {
        const std::size_t n = inner_->fill(out, max);
        pulled_ += n;
        return n;
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t &pulled_;
};

TEST(ParallelRunner, AnchorSweepStopsLosingCandidates)
{
    // The sweep stops each candidate once its walks show it cannot be
    // the first minimum, so it pulls fewer accesses than 16 full runs,
    // yet returns the exhaustive sweep over fresh tables byte for byte.
    // Counts are deterministic at a fixed seed; low contiguity prunes
    // least, and canneal at medium keeps well under half.
    const SimOptions opts = quickOptions(1);
    const std::uint64_t candidates = candidateDistances().size();
    for (const char *workload : {"canneal", "gups", "sphinx3"}) {
        for (const ScenarioKind scenario : allScenarios) {
            const CellJob job{workload, scenario, Scheme::AnchorIdeal, {}};
            SCOPED_TRACE(cellName(job));
            const CellPairState pair(opts, workload, scenario);
            std::uint64_t pulled = 0;
            const SimResult result = runCellJob(opts, pair, job, [&] {
                return std::make_unique<CountingSource>(
                    pair.cellTrace(opts), pulled);
            });
            expectSameResult(result, streamedCellResult(opts, job));

            const std::uint64_t n = cellAccesses(opts, pair.spec());
            EXPECT_LT(pulled, candidates * n);
            if (std::string(workload) == "canneal" &&
                scenario == ScenarioKind::MedContig) {
                EXPECT_LE(pulled, 8 * n);
            }
        }
    }
}

TEST(ParallelRunner, SharedStreamMatchesStreamedCellsAtEveryLength)
{
    // One pair serves cells at n (the first keeps n accesses), n/2 (a
    // replayed prefix) and 2n (longer than the kept stream, so
    // streamed; for the 12k-access trace also clamped), every scheme
    // at each length. Each must equal the cell streamed from its own
    // source.
    const std::string trace_path = testing::TempDir() + "atlb_shared_" +
                                   std::to_string(::getpid()) +
                                   ".atlbtrc1";
    writeWorkloadTrace(trace_path, quickOptions(1), "mcf", 12'000);
    constexpr std::uint64_t n = 8'000;
    const std::vector<std::string> workloads = {"canneal",
                                                "trace:" + trace_path};
    for (const std::string &workload : workloads) {
        const CellPairState pair(quickOptions(1), workload,
                                 ScenarioKind::MedContig);
        for (const std::uint64_t accesses : {n, n / 2, 2 * n}) {
            SimOptions opts = quickOptions(1);
            opts.accesses = accesses;
            for (const Scheme scheme : allSchemes) {
                const CellJob job{workload, ScenarioKind::MedContig,
                                  scheme, {}};
                SCOPED_TRACE(cellName(job) + " @ " +
                             std::to_string(accesses));
                expectSameResult(runCellJob(opts, pair, job),
                                 streamedCellResult(opts, job));
            }
        }
    }
    std::remove(trace_path.c_str());

    // Above the cap no stream is kept at all.
    SimOptions long_cell = quickOptions(1);
    long_cell.accesses = sharedStreamAccesses + 1'000;
    const CellJob job{"gups", ScenarioKind::Demand, Scheme::Base, {}};
    const SimResult result = freshCellResult(long_cell, job);
    EXPECT_EQ(result.stats.accesses, long_cell.accesses);
    expectSameResult(result, streamedCellResult(long_cell, job));
}

TEST(ParallelRunner, ConcurrentFirstUseOfTheSharedStream)
{
    // Four workers take the first four schemes of one cold pair at
    // once: one builds the stream, the others wait on it, and every
    // cell must still equal the streamed reference.
    const SimOptions opts = quickOptions(4);
    std::vector<CellJob> jobs;
    for (const Scheme scheme : allSchemes)
        jobs.push_back({"omnetpp", ScenarioKind::HighContig, scheme, {}});

    CellScheduler scheduler(4, 64, 4);
    std::vector<SimResult> results(jobs.size());
    {
        const auto ticket = scheduler.open(
            opts, [&results](std::size_t index, const SimResult &result,
                             std::uint64_t /*queue_wait_us*/) {
                results[index] = result;
            });
        for (std::size_t i = 0; i < jobs.size(); ++i)
            ticket->submit(i, jobs[i]);
        ticket->wait();
    }
    EXPECT_EQ(scheduler.stats().pair_builds, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(cellName(jobs[i]));
        expectSameResult(results[i], streamedCellResult(opts, jobs[i]));
    }
}

} // namespace
} // namespace atlb
