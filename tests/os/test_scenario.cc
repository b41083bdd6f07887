/**
 * @file
 * Tests for the mapping-scenario engine (paper Section 5.1 / Table 4).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "os/scenario.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

ScenarioParams
params(std::uint64_t pages, std::uint64_t seed = 1)
{
    ScenarioParams p;
    p.footprint_pages = pages;
    p.seed = seed;
    return p;
}

/** Every page of the footprint must be mapped exactly once. */
void
expectFullCoverage(const MemoryMap &m, const ScenarioParams &p)
{
    EXPECT_EQ(m.mappedPages(), p.footprint_pages);
    EXPECT_TRUE(m.mapped(p.va_base));
    EXPECT_TRUE(m.mapped(p.va_base + p.footprint_pages - 1));
    EXPECT_FALSE(m.mapped(p.va_base + p.footprint_pages));
    EXPECT_FALSE(m.mapped(p.va_base - 1));
    // Chunks must tile the VA range without gaps.
    Vpn expect = p.va_base;
    for (const Chunk &c : m.chunks()) {
        EXPECT_EQ(c.vpn, expect);
        expect = c.vpnEnd();
    }
    EXPECT_EQ(expect, p.va_base + p.footprint_pages);
}

TEST(ScenarioNames, RoundTrip)
{
    for (const ScenarioKind kind : allScenarios)
        EXPECT_EQ(scenarioFromName(scenarioName(kind)), kind);
}

class AllScenariosCoverage : public ::testing::TestWithParam<ScenarioKind>
{
};

TEST_P(AllScenariosCoverage, FootprintFullyMapped)
{
    ScenarioParams p = params(3000);
    p.demand_run_pages = 64;
    p.eager_run_pages = 64;
    const MemoryMap m = buildScenario(GetParam(), p);
    expectFullCoverage(m, p);
}

TEST_P(AllScenariosCoverage, DeterministicPerSeed)
{
    ScenarioParams p = params(2000, 77);
    p.demand_run_pages = 32;
    p.eager_run_pages = 32;
    const MemoryMap a = buildScenario(GetParam(), p);
    const MemoryMap b = buildScenario(GetParam(), p);
    ASSERT_EQ(a.chunks().size(), b.chunks().size());
    for (std::size_t i = 0; i < a.chunks().size(); ++i) {
        EXPECT_EQ(a.chunks()[i].vpn, b.chunks()[i].vpn);
        EXPECT_EQ(a.chunks()[i].ppn, b.chunks()[i].ppn);
        EXPECT_EQ(a.chunks()[i].pages, b.chunks()[i].pages);
    }
}

TEST_P(AllScenariosCoverage, DifferentSeedsDiffer)
{
    // max contiguity is a single deterministic chunk; skip it.
    if (GetParam() == ScenarioKind::MaxContig)
        GTEST_SKIP();
    // Large enough that even high-contiguity runs hold several chunks.
    ScenarioParams pa = params(150000, 1);
    ScenarioParams pb = params(150000, 2);
    pa.demand_run_pages = pb.demand_run_pages = 16;
    pa.eager_run_pages = pb.eager_run_pages = 16;
    const MemoryMap a = buildScenario(GetParam(), pa);
    const MemoryMap b = buildScenario(GetParam(), pb);
    bool differs = a.chunks().size() != b.chunks().size();
    if (!differs) {
        for (std::size_t i = 0; i < a.chunks().size(); ++i)
            differs |= a.chunks()[i].ppn != b.chunks()[i].ppn ||
                       a.chunks()[i].pages != b.chunks()[i].pages;
    }
    EXPECT_TRUE(differs);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllScenariosCoverage,
                         ::testing::ValuesIn(allScenarios));

TEST(Scenario, LowContigChunkSizesInRange)
{
    const MemoryMap m =
        buildScenario(ScenarioKind::LowContig, params(20000));
    for (const Chunk &c : m.chunks()) {
        EXPECT_GE(c.pages, 1u);
        EXPECT_LE(c.pages, 16u);
    }
    EXPECT_GT(m.chunks().size(), 20000u / 16);
}

TEST(Scenario, MediumContigChunkSizesInRange)
{
    const MemoryMap m =
        buildScenario(ScenarioKind::MedContig, params(100000));
    std::uint64_t over_16 = 0;
    for (const Chunk &c : m.chunks()) {
        EXPECT_GE(c.pages, 1u);
        EXPECT_LE(c.pages, 512u);
        over_16 += c.pages > 16;
    }
    EXPECT_GT(over_16, 0u);
}

TEST(Scenario, HighContigChunkSizesInRange)
{
    const MemoryMap m =
        buildScenario(ScenarioKind::HighContig, params(300000));
    for (const Chunk &c : m.chunks()) {
        // Final chunk may be clipped by the footprint end.
        if (c.vpnEnd() != m.chunks().back().vpnEnd()) {
            EXPECT_GE(c.pages, 512u);
        }
        EXPECT_LE(c.pages, 65536u);
    }
}

TEST(Scenario, MaxContigIsSingleChunk)
{
    ScenarioParams p = params(50000);
    const MemoryMap m = buildScenario(ScenarioKind::MaxContig, p);
    ASSERT_EQ(m.chunks().size(), 1u);
    EXPECT_EQ(m.chunks()[0].pages, 50000u);
    EXPECT_TRUE(m.hugeEligible(p.va_base));
}

TEST(Scenario, HighContigMostlyHugeEligible)
{
    ScenarioParams p = params(300000);
    const MemoryMap m = buildScenario(ScenarioKind::HighContig, p);
    std::uint64_t eligible = 0, checked = 0;
    for (Vpn v = p.va_base; v < p.va_base + p.footprint_pages;
         v += hugePages) {
        ++checked;
        eligible += m.hugeEligible(v);
    }
    // Chunks of >= 512 pages are placed 2MB-congruent, so the vast
    // majority of blocks must be THP-promotable.
    EXPECT_GT(eligible * 10, checked * 9);
}

TEST(Scenario, LowContigNeverHugeEligible)
{
    ScenarioParams p = params(20000);
    const MemoryMap m = buildScenario(ScenarioKind::LowContig, p);
    for (Vpn v = p.va_base; v < p.va_base + p.footprint_pages;
         v += hugePages)
        EXPECT_FALSE(m.hugeEligible(v));
}

TEST(Scenario, EagerAtLeastAsContiguousAsDemand)
{
    ScenarioParams p = params(50000, 3);
    p.demand_run_pages = 256;
    p.eager_run_pages = 256;
    const MemoryMap d = buildScenario(ScenarioKind::Demand, p);
    const MemoryMap e = buildScenario(ScenarioKind::Eager, p);
    const auto mean = [](const MemoryMap &m) {
        return static_cast<double>(m.mappedPages()) /
               static_cast<double>(m.chunks().size());
    };
    EXPECT_GE(mean(e) * 2, mean(d));
}

TEST(Scenario, PristineDemandIsNearlyOneRun)
{
    ScenarioParams p = params(10000, 4);
    p.demand_run_pages = 0; // pristine pool
    const MemoryMap m = buildScenario(ScenarioKind::Demand, p);
    // Sequential faults on an empty buddy give one giant merged run.
    EXPECT_LE(m.chunks().size(), 3u);
}

TEST(Scenario, FragmentedDemandTracksRunTarget)
{
    ScenarioParams p = params(100000, 5);
    p.demand_run_pages = 64;
    const MemoryMap m = buildScenario(ScenarioKind::Demand, p);
    const double mean = static_cast<double>(m.mappedPages()) /
                        static_cast<double>(m.chunks().size());
    EXPECT_GT(mean, 16.0);
    EXPECT_LT(mean, 256.0);
}

TEST(Scenario, DemandChurnBreaksAdjacency)
{
    ScenarioParams quiet = params(20000, 6);
    quiet.demand_run_pages = 0;
    ScenarioParams churny = quiet;
    churny.demand_churn = 0.2;
    const MemoryMap a = buildScenario(ScenarioKind::Demand, quiet);
    const MemoryMap b = buildScenario(ScenarioKind::Demand, churny);
    EXPECT_GT(b.chunks().size(), a.chunks().size());
}

TEST(Scenario, PressureSweepIncreasesFragmentation)
{
    ScenarioParams p = params(50000, 7);
    const MemoryMap light = buildDemandWithPressure(p, 4096);
    const MemoryMap heavy = buildDemandWithPressure(p, 8);
    EXPECT_GT(heavy.chunks().size(), light.chunks().size() * 4);
}

TEST(Scenario, SyntheticTranslationsAreSane)
{
    ScenarioParams p = params(10000, 8);
    const MemoryMap m = buildScenario(ScenarioKind::MedContig, p);
    // Distinct VPNs map to distinct PPNs (no aliasing).
    for (const Chunk &a : m.chunks()) {
        for (const Chunk &b : m.chunks()) {
            if (&a == &b)
                continue;
            const bool disjoint = a.ppn + a.pages <= b.ppn ||
                                  b.ppn + b.pages <= a.ppn;
            ASSERT_TRUE(disjoint)
                << "chunks alias in physical memory";
        }
    }
}

/**
 * FNV-1a over every chunk's (vpn, ppn, pages) of the 84 catalog pairs
 * (14 paper workloads x 6 scenarios), each built the way the engine
 * builds it, at one footprint scale and seed. Each pair's own digest
 * goes to @p per_pair, one line each, so a failing pin names the pair.
 */
std::uint64_t
catalogMappingDigest(double scale, std::uint64_t seed,
                     std::string &per_pair)
{
    SimOptions options;
    options.footprint_scale = scale;
    options.seed = seed;
    std::ostringstream lines;
    Fnv1a all;
    for (const std::string &name : paperWorkloadNames()) {
        const WorkloadSpec spec = scaledWorkloadSpec(options, name);
        for (const ScenarioKind kind : allScenarios) {
            const MemoryMap m =
                buildScenario(kind, scenarioParamsFor(options, spec));
            Fnv1a pair;
            for (const Chunk &c : m.chunks())
                pair.addU64(c.vpn.raw()).addU64(c.ppn.raw()).addU64(c.pages);
            all.addU64(pair.digest());
            lines << name << '/' << scenarioName(kind) << ' ' << std::hex
                  << pair.digest() << std::dec << '\n';
        }
    }
    per_pair = lines.str();
    return all.digest();
}

TEST(Scenario, CatalogMappingsArePinned)
{
    // Every demand/eager mapping runs the buddy allocator and the
    // fragmenter, so these literals pin both byte for byte: a change to
    // either that moves one frame of one pair shows here.
    struct Pin
    {
        double scale;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {0.02, 42, 0xeca2373293d202baULL},
        {0.02, 7, 0xae46de635a00b087ULL},
        {0.1, 42, 0xc8cb39a85b471384ULL},
        {0.1, 7, 0x9585e1bae1ff2343ULL},
    };
    for (const Pin &pin : pins) {
        std::string per_pair;
        const std::uint64_t digest =
            catalogMappingDigest(pin.scale, pin.seed, per_pair);
        EXPECT_EQ(digest, pin.digest)
            << "scale " << pin.scale << " seed " << pin.seed
            << ": digest 0x" << std::hex << digest << std::dec
            << "; per pair:\n"
            << per_pair;
    }
}

} // namespace
} // namespace atlb
