/**
 * @file
 * Tests for the simulation driver and its derived metrics.
 */

#include <gtest/gtest.h>

#include "mmu/baseline_mmu.hh"
#include "os/table_builder.hh"
#include "sim/cell_reference.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

#include "../mmu/mmu_test_util.hh"

namespace atlb
{
namespace
{

using test::baseVpn;

/** Trace that touches a fixed list of page offsets once each. */
class ListTrace : public TraceSource
{
  public:
    explicit ListTrace(std::vector<std::uint64_t> offsets)
        : offsets_(std::move(offsets))
    {
    }

    std::size_t
    fill(MemAccess *out, std::size_t max) override
    {
        std::size_t n = 0;
        for (; n < max && pos_ < offsets_.size(); ++n)
            out[n] = {vaOf(baseVpn + offsets_[pos_++]), false};
        return n;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<std::uint64_t> offsets_;
    std::size_t pos_ = 0;
};

class SimulatorTest : public ::testing::Test
{
  protected:
    SimulatorTest()
        : map_(test::makeVariedMap()), table_(buildPageTable(map_, false))
    {
    }

    MemoryMap map_;
    PageTable table_;
    MmuConfig cfg_;
};

TEST_F(SimulatorTest, CountsAndCyclesMatchHandComputation)
{
    BaselineMmu mmu(cfg_, table_);
    // page 0 walks; page 0 again hits L1; page 1 walks.
    ListTrace trace({0, 0, 1});
    const SimResult r = runSimulation(mmu, trace, 0.5);
    EXPECT_EQ(r.stats.accesses, 3u);
    EXPECT_EQ(r.stats.l1_hits, 1u);
    EXPECT_EQ(r.stats.page_walks, 2u);
    EXPECT_EQ(r.misses(), 2u);
    EXPECT_DOUBLE_EQ(r.instructions, 6.0);
    const Cycles expected = 2 * (cfg_.l2_hit_cycles + cfg_.walk_cycles);
    EXPECT_EQ(r.stats.translation_cycles, expected);
    EXPECT_DOUBLE_EQ(r.translationCpi(),
                     static_cast<double>(expected) / 6.0);
}

TEST_F(SimulatorTest, CycleBucketsSumToTotal)
{
    BaselineMmu mmu(cfg_, table_);
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t i = 0; i < 600; ++i)
        offsets.push_back(512 + (i * 7) % 1024);
    ListTrace trace(offsets);
    const SimResult r = runSimulation(mmu, trace, 0.33);
    EXPECT_EQ(r.l2_hit_cycles + r.coalesced_cycles + r.walk_cycles,
              r.stats.translation_cycles);
    EXPECT_NEAR(r.cpiL2() + r.cpiCoalesced() + r.cpiWalk(),
                r.translationCpi(), 1e-9);
}

TEST_F(SimulatorTest, FractionsOverL2Accesses)
{
    BaselineMmu mmu(cfg_, table_);
    ListTrace trace({0, 0, 1});
    const SimResult r = runSimulation(mmu, trace, 1.0);
    // Two L2-level accesses (the two walks), zero regular L2 hits.
    EXPECT_DOUBLE_EQ(r.regularHitFraction(), 0.0);
    EXPECT_DOUBLE_EQ(r.coalescedHitFraction(), 0.0);
    EXPECT_DOUBLE_EQ(r.l2MissFraction(), 1.0);
}

TEST_F(SimulatorTest, EmptyTraceYieldsZeroes)
{
    BaselineMmu mmu(cfg_, table_);
    ListTrace trace({});
    const SimResult r = runSimulation(mmu, trace, 0.5);
    EXPECT_EQ(r.stats.accesses, 0u);
    EXPECT_DOUBLE_EQ(r.translationCpi(), 0.0);
    EXPECT_DOUBLE_EQ(r.regularHitFraction(), 0.0);
}

TEST_F(SimulatorTest, PatternTraceDrivesSimulation)
{
    WorkloadSpec w;
    w.name = "mini";
    w.footprint_bytes = 8 * pageBytes; // fits chunk A exactly
    w.page_reuse = 0.0;
    PatternPhase p;
    p.kind = PatternKind::Random;
    w.phases = {p};
    PatternTrace trace(w, vaOf(baseVpn), 5000, 3);
    BaselineMmu mmu(cfg_, table_);
    const SimResult r = runSimulation(mmu, trace, w.mem_per_instr);
    EXPECT_EQ(r.stats.accesses, 5000u);
    // Eight pages fit in L1: after at most 8 walks, everything hits.
    EXPECT_LE(r.misses(), 8u);
}

TEST(SimulatorWalkLimit, BothModesStopAfterTheSameFill)
{
    // One workload stream over a Base MMU, stopped at half the full
    // run's walks. The limit is read after each 1024-access fill, so
    // both modes stop after the same one with the same counters.
    SimOptions opts;
    opts.accesses = 20'000;
    opts.footprint_scale = 0.02;
    const WorkloadSpec spec = scaledWorkloadSpec(opts, "canneal");
    const MemoryMap map = buildScenario(ScenarioKind::MedContig,
                                        scenarioParamsFor(opts, spec));
    const PageTable table = buildPageTable(map, false);
    const MmuConfig cfg;
    const auto run = [&](TranslateMode mode, std::uint64_t walk_limit) {
        BaselineMmu mmu(cfg, table);
        const std::unique_ptr<TraceSource> trace =
            makeCellTrace(opts, spec, opts.accesses);
        return runSimulation(mmu, *trace, spec.mem_per_instr, mode,
                             nullptr, walk_limit);
    };

    BaselineMmu mmu(cfg, table);
    const std::unique_ptr<TraceSource> trace =
        makeCellTrace(opts, spec, opts.accesses);
    const SimResult full = runSimulation(mmu, *trace, spec.mem_per_instr);
    ASSERT_EQ(full.stats.accesses, opts.accesses);
    // The default limit is no limit: a limit the run never reaches
    // changes nothing.
    expectSameResult(full, run(TranslateMode::Batch, full.misses() + 1));
    expectSameResult(full, run(TranslateMode::PerAccess, noWalkLimit));

    const std::uint64_t limit = full.misses() / 2;
    ASSERT_GT(limit, 0u);
    const SimResult batch = run(TranslateMode::Batch, limit);
    const SimResult per_access = run(TranslateMode::PerAccess, limit);
    expectSameResult(batch, per_access);
    EXPECT_GE(batch.misses(), limit);
    EXPECT_EQ(batch.stats.accesses % 1024, 0u);
    EXPECT_LT(batch.stats.accesses, opts.accesses);
}

} // namespace
} // namespace atlb
