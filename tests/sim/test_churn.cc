/**
 * @file
 * Tests for the mapping-churn simulator: shootdown correctness and
 * distance-controller behaviour under changing mappings.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"
#include "sim/churn.hh"

namespace atlb
{
namespace
{

ChurnOptions
quickOptions()
{
    ChurnOptions opts;
    opts.workload = "canneal";
    opts.footprint_scale = 0.02;
    return opts;
}

TEST(Churn, RunsAllEpochs)
{
    const std::vector<ChurnEpoch> epochs = {
        {ScenarioKind::MedContig, 20'000, 1},
        {ScenarioKind::MedContig, 20'000, 2},
        {ScenarioKind::MedContig, 20'000, 3},
    };
    const ChurnResult r =
        runMappingChurn(Scheme::Base, epochs, quickOptions());
    ASSERT_EQ(r.epochs.size(), 3u);
    EXPECT_EQ(r.stats.accesses, 60'000u);
    for (const auto &e : r.epochs)
        EXPECT_EQ(e.accesses, 20'000u);
}

TEST(Churn, CatalogWorkloadsOnly)
{
    // The workload's stream is generated, so a trace-driven name is an
    // unknown workload here.
    ChurnOptions opts = quickOptions();
    opts.workload = "trace:/nonexistent";
    detail::setThrowOnError(true);
    try {
        runMappingChurn(Scheme::Base, {{ScenarioKind::MedContig, 1'000, 1}},
                        opts);
        ADD_FAILURE() << "a trace workload ran";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "fatal: unknown workload 'trace:/nonexistent'");
    }
    detail::setThrowOnError(false);
}

TEST(Churn, StableMappingKeepsDistance)
{
    // Same scenario kind across epochs: the controller must settle
    // after its initial selection (paper Section 5.2.3). Use a larger
    // footprint and the hysteresis threshold a real OS would: tiny
    // samples make neighbouring distances statistically tied.
    std::vector<ChurnEpoch> epochs;
    for (std::uint64_t i = 0; i < 6; ++i)
        epochs.push_back({ScenarioKind::MedContig, 10'000, 10 + i});
    ChurnOptions opts = quickOptions();
    opts.footprint_scale = 0.1;
    opts.distance_threshold = 0.25;
    const ChurnResult r = runMappingChurn(Scheme::Anchor, epochs, opts);
    EXPECT_LE(r.distance_changes, 1u);
    const std::uint64_t settled = r.epochs.back().anchor_distance;
    for (std::size_t i = 1; i < r.epochs.size(); ++i)
        EXPECT_EQ(r.epochs[i].anchor_distance, settled);
}

TEST(Churn, DrasticRemapChangesDistance)
{
    const std::vector<ChurnEpoch> epochs = {
        {ScenarioKind::LowContig, 10'000, 1},
        {ScenarioKind::LowContig, 10'000, 2},
        {ScenarioKind::MaxContig, 10'000, 3}, // OS compacted memory
        {ScenarioKind::MaxContig, 10'000, 4},
    };
    const ChurnResult r =
        runMappingChurn(Scheme::Anchor, epochs, quickOptions());
    EXPECT_GE(r.distance_changes, 2u); // initial pick + compaction
    EXPECT_LT(r.epochs[0].anchor_distance,
              r.epochs[2].anchor_distance);
    // Compaction cuts the miss rate.
    EXPECT_LT(r.epochs[3].misses, r.epochs[1].misses);
}

TEST(Churn, SweepCostReportedOnChange)
{
    const std::vector<ChurnEpoch> epochs = {
        {ScenarioKind::LowContig, 5'000, 1},
        {ScenarioKind::MaxContig, 5'000, 2},
    };
    const ChurnResult r =
        runMappingChurn(Scheme::Anchor, epochs, quickOptions());
    for (const auto &e : r.epochs)
        EXPECT_GT(e.sweep_touched, 0u);
}

TEST(Churn, AllSchemesSurviveChurn)
{
    const std::vector<ChurnEpoch> epochs = {
        {ScenarioKind::MedContig, 8'000, 1},
        {ScenarioKind::HighContig, 8'000, 2},
        {ScenarioKind::LowContig, 8'000, 3},
    };
    for (const Scheme s :
         {Scheme::Base, Scheme::Thp, Scheme::Cluster, Scheme::Cluster2MB,
          Scheme::Rmm, Scheme::Anchor}) {
        const ChurnResult r =
            runMappingChurn(s, epochs, quickOptions());
        EXPECT_EQ(r.stats.accesses, 24'000u) << schemeName(s);
    }
}

TEST(Churn, AnchorBeatsBaseAcrossChurn)
{
    std::vector<ChurnEpoch> epochs;
    for (std::uint64_t i = 0; i < 4; ++i)
        epochs.push_back({ScenarioKind::MedContig, 25'000, i + 1});
    const ChurnResult base =
        runMappingChurn(Scheme::Base, epochs, quickOptions());
    const ChurnResult anchor =
        runMappingChurn(Scheme::Anchor, epochs, quickOptions());
    EXPECT_LT(anchor.stats.page_walks, base.stats.page_walks);
}

} // namespace
} // namespace atlb
