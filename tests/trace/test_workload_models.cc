/**
 * @file
 * Model-regression tests: each catalog workload's page-level character
 * (measured by the profiler) must stay inside the band its TLB results
 * depend on. These tests pin the calibration described in DESIGN.md —
 * if a future edit to the generators shifts a workload's locality
 * class, the reproduction figures would silently drift; this suite
 * fails instead.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "trace/profiler.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

/** Expected page-level character band for one workload. */
struct ModelBand
{
    const char *name;
    /** same-page fraction band (intra-page locality ~ page_reuse). */
    double same_page_lo, same_page_hi;
    /** band for the fraction of reuses within the base L2 reach. */
    double l2_reach_lo, l2_reach_hi;
    /** band for the fraction of reuses within 32K pages (anchor-class
     *  coverage); this is what separates coalescing winners from gups. */
    double anchor_reach_lo, anchor_reach_hi;
};

// Bands are deliberately wide: they encode the workload's *class*
// (streaming / reuse-driven / uniform-random), not exact numbers.
const ModelBand bands[] = {
    // streaming/stencil codes: most reuse is short-range
    {"GemsFDTD", 0.80, 0.97, 0.55, 1.00, 0.90, 1.00},
    {"cactusADM", 0.75, 0.95, 0.40, 1.00, 0.80, 1.00},
    {"milc", 0.80, 0.97, 0.40, 1.00, 0.80, 1.00},
    // reuse-driven pointer codes: reuse mass between L2 and anchor reach
    {"canneal", 0.85, 0.97, 0.20, 0.80, 0.80, 1.00},
    {"mcf", 0.80, 0.95, 0.10, 0.90, 0.75, 1.00},
    {"omnetpp", 0.80, 0.97, 0.30, 0.95, 0.90, 1.00},
    {"xalancbmk", 0.80, 0.97, 0.20, 0.90, 0.80, 1.00},
    {"astar_biglake", 0.80, 0.97, 0.20, 0.90, 0.80, 1.00},
    {"soplex_pds", 0.85, 0.97, 0.30, 0.95, 0.80, 1.00},
    {"sphinx3", 0.80, 0.99, 0.50, 1.00, 0.95, 1.00},
    {"mummer", 0.70, 0.97, 0.20, 0.99, 0.80, 1.00},
    {"tigr", 0.55, 0.995, 0.20, 0.90, 0.60, 1.00},
    // uniform random: almost nothing within any reach
    {"gups", 0.00, 0.05, 0.00, 0.15, 0.00, 0.40},
};

/** Print a band as its workload name. gtest's default dumps the struct's
 *  raw bytes, whose `name` pointer changes with every load address, so
 *  each build would list the tests under different names. */
void
PrintTo(const ModelBand &band, std::ostream *os)
{
    *os << band.name;
}

class WorkloadModelBand : public ::testing::TestWithParam<ModelBand>
{
};

TEST_P(WorkloadModelBand, ProfileStaysInBand)
{
    const ModelBand &band = GetParam();
    WorkloadSpec spec = findWorkload(band.name);
    // Quarter-scale footprints keep the test fast; locality *fractions*
    // are scale-insensitive because hot regions scale with footprint.
    spec.footprint_bytes /= 4;
    PatternTrace trace(spec, vaOf(Vpn{0x7f0000000ULL}), 300'000, 17);
    TraceProfiler prof;
    prof.consume(trace);
    const TraceProfile p = prof.profile();

    EXPECT_GE(p.same_page_fraction, band.same_page_lo) << band.name;
    EXPECT_LE(p.same_page_fraction, band.same_page_hi) << band.name;
    const double l2 = p.hitFractionAtReach(1024);
    EXPECT_GE(l2, band.l2_reach_lo) << band.name;
    EXPECT_LE(l2, band.l2_reach_hi) << band.name;
    const double anchor = p.hitFractionAtReach(32768);
    EXPECT_GE(anchor, band.anchor_reach_lo) << band.name;
    EXPECT_LE(anchor, band.anchor_reach_hi) << band.name;
}

std::string
bandName(const ::testing::TestParamInfo<ModelBand> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Catalog, WorkloadModelBand,
                         ::testing::ValuesIn(bands), bandName);

TEST(WorkloadModels, Graph500IsBetweenGupsAndSpec)
{
    WorkloadSpec spec = findWorkload("graph500");
    spec.footprint_bytes /= 8;
    PatternTrace trace(spec, vaOf(Vpn{0x7f0000000ULL}), 300'000, 17);
    TraceProfiler prof;
    prof.consume(trace);
    const TraceProfile p = prof.profile();
    // BFS mixes random gathers with skewed and sequential phases: more
    // locality than gups, far less than SPEC.
    EXPECT_GT(p.hitFractionAtReach(32768), 0.1);
    EXPECT_LT(p.hitFractionAtReach(1024), 0.7);
}

} // namespace
} // namespace atlb
