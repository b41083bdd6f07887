/**
 * @file
 * Qualitative reproduction checks: the per-scenario scheme orderings the
 * paper's claims rest on must hold in miniature. These are the "who
 * wins, where" invariants of Figures 2 and 9:
 *
 *  - low/medium contiguity: THP and RMM ~ineffective; clustering helps;
 *    anchor at least matches clustering.
 *  - high/max contiguity: RMM nearly eliminates misses; anchor nearly
 *    matches it; plain cluster's 8-page span lags far behind.
 *  - anchor adapts: its chosen distance grows with mapping contiguity.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace atlb
{
namespace
{

class PaperShapes : public ::testing::Test
{
  protected:
    static SimOptions
    options()
    {
        SimOptions opts;
        opts.accesses = 120'000;
        opts.seed = 42;
        opts.footprint_scale = 0.05;
        return opts;
    }

    static ExperimentContext &
    ctx()
    {
        static ExperimentContext context(options());
        return context;
    }

    static double
    rel(const std::string &workload, ScenarioKind scenario, Scheme scheme)
    {
        const std::uint64_t base =
            ctx().run(workload, scenario, Scheme::Base).misses();
        return relativeMisses(
            ctx().run(workload, scenario, scheme).misses(), base);
    }
};

TEST_F(PaperShapes, ThpUselessWithoutHugeChunks)
{
    EXPECT_GE(rel("canneal", ScenarioKind::LowContig, Scheme::Thp), 0.999);
    EXPECT_GE(rel("canneal", ScenarioKind::MedContig, Scheme::Thp), 0.95);
}

TEST_F(PaperShapes, RmmUselessAtLowContiguity)
{
    EXPECT_GE(rel("canneal", ScenarioKind::LowContig, Scheme::Rmm), 0.95);
}

TEST_F(PaperShapes, RmmNearlyEliminatesMissesAtMaxContiguity)
{
    EXPECT_LE(rel("canneal", ScenarioKind::MaxContig, Scheme::Rmm), 0.05);
}

TEST_F(PaperShapes, AnchorNearlyMatchesRmmAtHighContiguity)
{
    const double anchor =
        rel("canneal", ScenarioKind::HighContig, Scheme::Anchor);
    EXPECT_LE(anchor, 0.25);
}

TEST_F(PaperShapes, ClusterSpanLimitsItAtHighContiguity)
{
    const double cluster =
        rel("canneal", ScenarioKind::HighContig, Scheme::Cluster);
    const double anchor =
        rel("canneal", ScenarioKind::HighContig, Scheme::Anchor);
    // Paper Fig. 9: cluster's benefit saturates with 8-page coverage
    // while the anchor scheme keeps scaling.
    EXPECT_GT(cluster, anchor + 0.2);
}

TEST_F(PaperShapes, ClusterHelpsAtLowContiguity)
{
    EXPECT_LE(rel("milc", ScenarioKind::LowContig, Scheme::Cluster), 0.9);
}

TEST_F(PaperShapes, AnchorBestOrTiedAtMediumContiguity)
{
    const ScenarioKind k = ScenarioKind::MedContig;
    const double anchor = rel("canneal", k, Scheme::Anchor);
    EXPECT_LE(anchor, rel("canneal", k, Scheme::Thp) + 0.02);
    EXPECT_LE(anchor, rel("canneal", k, Scheme::Cluster2MB) + 0.02);
    EXPECT_LE(anchor, rel("canneal", k, Scheme::Rmm) + 0.02);
}

TEST_F(PaperShapes, AnchorDistanceGrowsWithContiguity)
{
    const std::uint64_t low =
        ctx().pair("canneal", ScenarioKind::LowContig)->dynamicDistance();
    const std::uint64_t med =
        ctx().pair("canneal", ScenarioKind::MedContig)->dynamicDistance();
    const std::uint64_t max =
        ctx().pair("canneal", ScenarioKind::MaxContig)->dynamicDistance();
    EXPECT_LT(low, med);
    EXPECT_LT(med, max);
    EXPECT_EQ(low, 4u); // paper Table 6: every low-contig cell picks 4
}

TEST_F(PaperShapes, ThpEffectiveAtMaxContiguity)
{
    EXPECT_LE(rel("canneal", ScenarioKind::MaxContig, Scheme::Thp), 0.4);
}

TEST_F(PaperShapes, GupsResistsEverything)
{
    // Uniform random over the whole footprint: nothing except massive
    // coverage helps (paper: gups is the worst case at medium).
    const ScenarioKind k = ScenarioKind::MedContig;
    EXPECT_GE(rel("gups", k, Scheme::Cluster2MB), 0.9);
    EXPECT_GE(rel("gups", k, Scheme::Rmm), 0.9);
}

} // namespace
} // namespace atlb
