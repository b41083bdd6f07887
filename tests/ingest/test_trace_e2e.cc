/**
 * @file
 * End-to-end fidelity of the ingestion pipeline: a text capture
 * imported to v1 and to v2 must drive every scheme to counter-identical
 * results, and a trace-driven cell must replay exactly the requested
 * prefix of its capture, which ClampedTraceSource cuts.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "ingest/text_importer.hh"
#include "ingest/trace_open.hh"
#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"

namespace atlb
{
namespace
{

void
expectSameCounters(const SimResult &a, const SimResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.stats.accesses, b.stats.accesses) << what;
    EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits) << what;
    EXPECT_EQ(a.stats.l2_regular_hits, b.stats.l2_regular_hits) << what;
    EXPECT_EQ(a.stats.coalesced_hits, b.stats.coalesced_hits) << what;
    EXPECT_EQ(a.stats.page_walks, b.stats.page_walks) << what;
    EXPECT_EQ(a.stats.translation_cycles, b.stats.translation_cycles)
        << what;
}

class TraceE2eTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            testing::UnitTest::GetInstance()->current_test_info();
        stem_ = testing::TempDir() + "atlb_e2e_" + info->name() + "_" +
                std::to_string(::getpid());
        text_ = stem_ + ".txt";
        v1_ = stem_ + ".atlbtrc1";
        v2_ = stem_ + ".atlbtrc2";
        detail::setThrowOnError(true);

        // A deterministic capture over 512 pages at the simulated
        // region base: sequential runs (coalescing-friendly) mixed with
        // scattered jumps, all offsets 8-aligned so v1's dropped low
        // bit cannot matter.
        std::ofstream out(text_);
        std::uint64_t x = 12345;
        const VirtAddr base = traceBaseVa();
        for (int i = 0; i < 6'000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            VirtAddr va;
            if (i % 3 != 0) {
                va = base + (static_cast<std::uint64_t>(i) % 512) *
                                pageBytes +
                     (x % 500) * 8;
            } else {
                va = base + ((x >> 32) % 512) * pageBytes + (x % 500) * 8;
            }
            out << ((x >> 16) % 4 == 0 ? "W 0x" : "R 0x") << std::hex
                << va << std::dec << "\n";
        }
        out.close();

        ImportOptions opts;
        opts.format = TextTraceFormat::Plain;
        {
            TraceWriter w(v1_);
            importTextTrace(text_, opts,
                            [&](const MemAccess &a) { w.append(a); });
        }
        {
            TraceV2Writer w(v2_, 512); // multiple blocks
            importTextTrace(text_, opts,
                            [&](const MemAccess &a) { w.append(a); });
        }
    }

    void TearDown() override
    {
        detail::setThrowOnError(false);
        std::remove(text_.c_str());
        std::remove(v1_.c_str());
        std::remove(v2_.c_str());
    }

    static SimOptions testOptions()
    {
        SimOptions opts;
        opts.accesses = 6'000;
        opts.seed = 42;
        opts.threads = 1;
        return opts;
    }

    std::string stem_, text_, v1_, v2_;
};

TEST_F(TraceE2eTest, SpecFromTraceFile)
{
    const SimOptions opts = testOptions();
    const WorkloadSpec spec1 =
        scaledWorkloadSpec(opts, "trace:" + v1_);
    const WorkloadSpec spec2 =
        scaledWorkloadSpec(opts, "trace:" + v2_);
    EXPECT_TRUE(spec1.traceDriven());
    EXPECT_EQ(spec1.trace_accesses, 6'000u);
    EXPECT_EQ(spec2.trace_accesses, 6'000u);
    // Both containers hold the same stream, so the derived footprints
    // agree (and cover the 512 touched pages).
    EXPECT_EQ(spec1.footprintPages(), spec2.footprintPages());
    EXPECT_EQ(spec1.footprintPages(), 512u);
    EXPECT_EQ(cellAccesses(opts, spec1), 6'000u);
}

TEST_F(TraceE2eTest, AllSchemesCounterIdenticalAcrossContainers)
{
    // The acceptance bar: replaying the v2 conversion is
    // counter-identical to replaying the v1 trace across all five
    // schemes (same mapping and tables; only the container differs).
    const SimOptions opts = testOptions();
    const WorkloadSpec spec1 = scaledWorkloadSpec(opts, "trace:" + v1_);
    const WorkloadSpec spec2 = scaledWorkloadSpec(opts, "trace:" + v2_);

    const MemoryMap map = buildScenario(
        ScenarioKind::MedContig, scenarioParamsFor(opts, spec1));
    const PageTable plain = buildPageTable(map, false);
    const PageTable thp = buildPageTable(map, true);
    const std::uint64_t distance =
        selectAnchorDistance(map.contiguityHistogram()).distance;
    const PageTable anchored =
        buildAnchorPageTable(map, AnchorDist::fromPages(distance));

    const struct
    {
        Scheme scheme;
        const PageTable *table;
    } cells[] = {
        {Scheme::Base, &plain},         {Scheme::Thp, &thp},
        {Scheme::Cluster, &plain},      {Scheme::Rmm, &thp},
        {Scheme::Anchor, &anchored},
    };
    for (const auto &cell : cells) {
        const std::unique_ptr<TraceSource> trace1 =
            makeCellTrace(opts, spec1, cellAccesses(opts, spec1));
        const std::unique_ptr<TraceSource> trace2 =
            makeCellTrace(opts, spec2, cellAccesses(opts, spec2));
        const SimResult r1 = runSchemeCell(opts, spec1, ScenarioKind::MedContig,
                                           map, *cell.table, cell.scheme,
                                           distance, *trace1);
        const SimResult r2 = runSchemeCell(opts, spec2, ScenarioKind::MedContig,
                                           map, *cell.table, cell.scheme,
                                           distance, *trace2);
        expectSameCounters(r1, r2, schemeName(cell.scheme));
        EXPECT_EQ(r1.stats.accesses, 6'000u) << schemeName(cell.scheme);
    }
}

TEST_F(TraceE2eTest, AccessClampAndPrefixReplay)
{
    // Asking for more accesses than the capture holds clamps to the
    // trace length; asking for fewer replays exactly that prefix.
    SimOptions opts = testOptions();
    opts.accesses = 100'000;
    const WorkloadSpec spec = scaledWorkloadSpec(opts, "trace:" + v2_);
    EXPECT_EQ(cellAccesses(opts, spec), 6'000u);

    opts.accesses = 1'000;
    EXPECT_EQ(cellAccesses(opts, spec), 1'000u);
    const MemoryMap map = buildScenario(
        ScenarioKind::MedContig, scenarioParamsFor(opts, spec));
    const PageTable thp = buildPageTable(map, true);
    const std::unique_ptr<TraceSource> trace =
        makeCellTrace(opts, spec, cellAccesses(opts, spec));
    const SimResult r = runSchemeCell(opts, spec, ScenarioKind::MedContig,
                                      map, thp, Scheme::Thp, 0, *trace);
    EXPECT_EQ(r.stats.accesses, 1'000u);
}

/** Drain @p trace alternating three next() calls with one fill(). */
std::vector<MemAccess>
drainMixed(TraceSource &trace)
{
    std::vector<MemAccess> out;
    MemAccess buffer[100];
    for (;;) {
        bool progressed = false;
        for (int i = 0; i < 3 && trace.next(buffer[0]); ++i) {
            out.push_back(buffer[0]);
            progressed = true;
        }
        const std::size_t n = trace.fill(buffer, 100);
        out.insert(out.end(), buffer, buffer + n);
        if (!progressed && n == 0)
            return out;
    }
}

TEST(ClampedTraceSource, ClampsBelowAndAboveItsInnerLength)
{
    // The grid replays a capture's first `limit` accesses: a limit
    // below the inner length cuts the stream there, one at or above it
    // passes the whole stream, and reset() replays the same clamp,
    // also from mid-stream.
    constexpr std::uint64_t inner = 1'000;
    const WorkloadSpec &spec = findWorkload("mcf");
    const auto source = [&] {
        return std::make_unique<PatternTrace>(spec, traceBaseVa(), inner,
                                              7);
    };
    const std::vector<MemAccess> full = drainMixed(*source());
    ASSERT_EQ(full.size(), inner);

    for (const std::uint64_t limit :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{500},
          inner - 1, inner, inner + 1, 5 * inner}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        ClampedTraceSource clamped(source(), limit);
        EXPECT_EQ(clamped.length(), limit);
        const std::size_t expect =
            static_cast<std::size_t>(std::min(limit, inner));

        MemAccess a;
        MemAccess buffer[16];
        if (clamped.next(a))
            clamped.fill(buffer, 16);
        clamped.reset();
        for (int pass = 0; pass < 2; ++pass) {
            const std::vector<MemAccess> got = drainMixed(clamped);
            ASSERT_EQ(got.size(), expect);
            for (std::size_t i = 0; i < expect; ++i) {
                ASSERT_EQ(got[i].vaddr, full[i].vaddr) << "access " << i;
                ASSERT_EQ(got[i].write, full[i].write) << "access " << i;
            }
            EXPECT_FALSE(clamped.next(a));
            EXPECT_EQ(clamped.fill(buffer, 16), 0u);
            clamped.reset();
        }
    }
}

TEST_F(TraceE2eTest, UnrebasedTraceIsRejected)
{
    // A capture below the simulated region base must be refused with
    // the re-import hint rather than simulated against unmapped VAs.
    const std::string low = stem_ + "_low.atlbtrc1";
    {
        TraceWriter w(low);
        w.append({VirtAddr{0x1000}, false});
    }
    const SimOptions opts = testOptions();
    EXPECT_THROW(scaledWorkloadSpec(opts, "trace:" + low),
                 std::runtime_error);
    std::remove(low.c_str());
}

} // namespace
} // namespace atlb
