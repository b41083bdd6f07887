/**
 * @file
 * Batch translate kernel equivalence suite.
 *
 * The contract under test (mmu.hh translateBatch): the batch entry
 * point is counter-identical to calling translate() on every element,
 * for every scheme, every trace source the grid can replay (synthetic
 * pattern, v1 mmap, v2 block codec) and a source that fills short
 * chunks, with the L0 same-page filter engaged, through whichever
 * kernel instantiation the MMU chose at construction (the vector one,
 * or the scalar one under a forced scalar level). The per-access
 * pipeline is always the reference; nothing here encodes expected
 * absolute counts.
 *
 * Also covered: the L0 filter invalidation contract (flushAll /
 * invalidatePage / switchProcess / interleaved per-access probes must
 * drop the carried VPN rather than serve stale short-circuits), batch
 * accounting in BatchStats, and — in checked builds — that each of the
 * kernel's verification sites (carried page, L1 hit, L1 miss) catches
 * planted corruption.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/simd_test_util.hh"
#include "ingest/trace_open.hh"
#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/colt_mmu.hh"
#include "mmu/mmu_test_util.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/region_partitioner.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

using test::baseVpn;

void
expectStatsEqual(const MmuStats &a, const MmuStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.accesses, b.accesses) << what;
    EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
    EXPECT_EQ(a.l2_regular_hits, b.l2_regular_hits) << what;
    EXPECT_EQ(a.coalesced_hits, b.coalesced_hits) << what;
    EXPECT_EQ(a.page_walks, b.page_walks) << what;
    EXPECT_EQ(a.translation_cycles, b.translation_cycles) << what;
}

void
expectResultsEqual(const SimResult &a, const SimResult &b,
                   const std::string &what)
{
    expectStatsEqual(a.stats, b.stats, what);
    EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles) << what;
    EXPECT_EQ(a.coalesced_cycles, b.coalesced_cycles) << what;
    EXPECT_EQ(a.walk_cycles, b.walk_cycles) << what;
    EXPECT_DOUBLE_EQ(a.instructions, b.instructions) << what;
}

SimOptions
quickOptions()
{
    SimOptions opts;
    opts.accesses = 15'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02;
    opts.threads = 1;
    return opts;
}

/** The experiment-grid schemes the equivalence bar names. */
const std::vector<Scheme> &
gridSchemes()
{
    static const std::vector<Scheme> schemes = {
        Scheme::Base, Scheme::Thp, Scheme::Cluster, Scheme::Rmm,
        Scheme::Anchor,
    };
    return schemes;
}

/** Cell inputs for one scheme, mirroring runSchemeCell's contract. */
struct CellFixture
{
    WorkloadSpec spec;
    MemoryMap map;
    PageTable table;
    std::uint64_t distance = 0;

    CellFixture(const SimOptions &options, const std::string &workload,
                ScenarioKind scenario, Scheme scheme)
        : spec(scaledWorkloadSpec(options, workload)),
          map(buildScenario(scenario, scenarioParamsFor(options, spec)))
    {
        switch (scheme) {
          case Scheme::Base:
          case Scheme::Cluster:
            table = buildPageTable(map, false);
            break;
          case Scheme::Thp:
          case Scheme::Cluster2MB:
          case Scheme::Rmm:
            table = buildPageTable(map, true);
            break;
          case Scheme::Anchor:
          case Scheme::AnchorIdeal:
            distance =
                selectAnchorDistance(map.contiguityHistogram()).distance;
            table = buildAnchorPageTable(map, AnchorDist::fromPages(distance));
            break;
        }
    }
};

/** Run one cell in the given translate mode. */
SimResult
runCellIn(TranslateMode mode, const SimOptions &base,
          const CellFixture &cell, ScenarioKind scenario, Scheme scheme)
{
    SimOptions opts = base;
    opts.translate_mode = mode;
    const std::unique_ptr<TraceSource> trace =
        makeCellTrace(opts, cell.spec, cellAccesses(opts, cell.spec));
    return runSchemeCell(opts, cell.spec, scenario, cell.map, cell.table,
                         scheme, cell.distance, *trace);
}

// --- serial grid equivalence: synthetic source --------------------------

TEST(BatchEquivalence, SyntheticCellsMatchPerAccess)
{
    const SimOptions opts = quickOptions();
    for (const Scheme scheme : gridSchemes()) {
        for (const ScenarioKind scenario :
             {ScenarioKind::MedContig, ScenarioKind::Demand}) {
            const std::string what = std::string(schemeName(scheme)) +
                                     "/" + scenarioName(scenario);
            SCOPED_TRACE(what);
            const CellFixture cell(opts, "canneal", scenario, scheme);
            const SimResult batch =
                runCellIn(TranslateMode::Batch, opts, cell, scenario,
                          scheme);
            const SimResult ref =
                runCellIn(TranslateMode::PerAccess, opts, cell, scenario,
                          scheme);
            expectResultsEqual(batch, ref, what);
            EXPECT_EQ(batch.stats.accesses, opts.accesses) << what;
        }
    }
}

TEST(BatchEquivalence, Sphinx3CellsMatchPerAccess)
{
    // A second workload's locality mix through one scheme of each
    // family (flat, range, anchor).
    const SimOptions opts = quickOptions();
    for (const Scheme scheme :
         {Scheme::Base, Scheme::Rmm, Scheme::Anchor}) {
        const std::string what = schemeName(scheme);
        SCOPED_TRACE(what);
        const CellFixture cell(opts, "sphinx3", ScenarioKind::MedContig,
                               scheme);
        const SimResult batch = runCellIn(
            TranslateMode::Batch, opts, cell, ScenarioKind::MedContig, scheme);
        const SimResult ref =
            runCellIn(TranslateMode::PerAccess, opts, cell,
                      ScenarioKind::MedContig, scheme);
        expectResultsEqual(batch, ref, what);
        EXPECT_EQ(batch.stats.accesses, opts.accesses) << what;
    }
}

// --- serial grid equivalence: on-disk containers ------------------------

class BatchTraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            testing::UnitTest::GetInstance()->current_test_info();
        stem_ = testing::TempDir() + "atlb_batch_" + info->name() + "_" +
                std::to_string(::getpid());
        v1_ = stem_ + ".atlbtrc1";
        v2_ = stem_ + ".atlbtrc2";
        detail::setThrowOnError(true);

        // Deterministic capture over 512 pages at the simulated region
        // base: page-local runs (so the L0 filter engages) mixed with
        // scattered jumps (so the miss pipeline runs too).
        std::uint64_t x = 999;
        const VirtAddr base = traceBaseVa();
        std::vector<MemAccess> stream;
        stream.reserve(6'000);
        while (stream.size() < 6'000) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const VirtAddr page =
                base + ((x >> 24) % 512) * pageBytes;
            const std::uint64_t run = 1 + (x % 5);
            for (std::uint64_t i = 0;
                 i < run && stream.size() < 6'000; ++i)
                stream.push_back(
                    {page + ((x >> 8) + i * 64) % pageBytes,
                     (x & 1) != 0});
        }
        {
            TraceWriter w(v1_);
            for (const MemAccess &a : stream)
                w.append(a);
        }
        {
            TraceV2Writer w(v2_, 512); // force multiple blocks
            for (const MemAccess &a : stream)
                w.append(a);
            w.close();
        }
    }

    void TearDown() override
    {
        detail::setThrowOnError(false);
        std::remove(v1_.c_str());
        std::remove(v2_.c_str());
    }

    std::string stem_, v1_, v2_;
};

TEST_F(BatchTraceTest, ContainerCellsMatchPerAccess)
{
    // The grid replays v1 through the mmap reader and v2 through the
    // block decoder (openTraceFile); both must be batch/per-access
    // equivalent for every scheme.
    const SimOptions opts = quickOptions();
    for (const std::string &path : {v1_, v2_}) {
        for (const Scheme scheme : gridSchemes()) {
            const std::string what =
                std::string(schemeName(scheme)) +
                (path == v1_ ? "/v1-mmap" : "/v2");
            SCOPED_TRACE(what);
            const CellFixture cell(opts, "trace:" + path,
                                   ScenarioKind::MedContig, scheme);
            const SimResult batch =
                runCellIn(TranslateMode::Batch, opts, cell,
                          ScenarioKind::MedContig, scheme);
            const SimResult ref =
                runCellIn(TranslateMode::PerAccess, opts, cell,
                          ScenarioKind::MedContig, scheme);
            expectResultsEqual(batch, ref, what);
            EXPECT_EQ(batch.stats.accesses, 6'000u) << what;
        }
    }
}

/** Hands back 1 to 7 accesses per fill(), however many were asked. */
class ShortFillSource final : public TraceSource
{
  public:
    explicit ShortFillSource(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    std::size_t fill(MemAccess *out, std::size_t max) override
    {
        chunk_ = chunk_ % 7 + 1;
        return inner_->fill(out, std::min(max, chunk_));
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::size_t chunk_ = 0;
};

TEST_F(BatchTraceTest, ShortFillSourceMatchesPerAccess)
{
    // runSimulation must be mode-agnostic for any TraceSource, one
    // whose fill() returns short chunks included. Drive it directly for
    // a hit-heavy and a coalescing scheme.
    const SimOptions opts = quickOptions();
    const CellFixture base_cell(opts, "trace:" + v1_,
                                ScenarioKind::MedContig, Scheme::Base);
    const CellFixture anchor_cell(opts, "trace:" + v1_,
                                  ScenarioKind::MedContig, Scheme::Anchor);

    struct Case
    {
        const CellFixture *cell;
        Scheme scheme;
    } cases[] = {{&base_cell, Scheme::Base},
                 {&anchor_cell, Scheme::Anchor}};
    for (const Case &c : cases) {
        SCOPED_TRACE(schemeName(c.scheme));
        const std::unique_ptr<Mmu> batch_mmu = buildSchemeMmu(
            opts.mmu, c.cell->table, c.cell->map, c.scheme,
            c.cell->distance);
        const std::unique_ptr<Mmu> ref_mmu = buildSchemeMmu(
            opts.mmu, c.cell->table, c.cell->map, c.scheme,
            c.cell->distance);

        ShortFillSource batch_src(openTraceFile(v1_));
        const SimResult batch =
            runSimulation(*batch_mmu, batch_src,
                          c.cell->spec.mem_per_instr,
                          TranslateMode::Batch);
        ShortFillSource ref_src(openTraceFile(v1_));
        const SimResult ref =
            runSimulation(*ref_mmu, ref_src, c.cell->spec.mem_per_instr,
                          TranslateMode::PerAccess);
        expectResultsEqual(batch, ref, schemeName(c.scheme));
        EXPECT_EQ(batch.stats.accesses, 6'000u);
    }
}

// --- randomized differential against the per-access reference -----------

/**
 * Every concrete scheme over the varied test map. Region-anchor and
 * COLT ride along here even though the grid bar doesn't name them —
 * the shared batch kernels run their translateL2 pipelines too.
 */
struct SchemePair
{
    std::string name;
    std::unique_ptr<Mmu> batch;
    std::unique_ptr<Mmu> ref;
};

struct DifferentialRig
{
    MemoryMap map = test::makeVariedMap();
    PageTable plain, thp, anchored, region;
    RegionPartition partition;
    std::vector<SchemePair> pairs;

    DifferentialRig()
        : plain(buildPageTable(map, false)),
          thp(buildPageTable(map, true)),
          anchored(buildAnchorPageTable(map, AnchorDist::fromPages(32))),
          partition(partitionAnchorRegions(map))
    {
        region = buildRegionAnchorPageTable(map, partition);
        MmuConfig cfg;
        add<BaselineMmu>("base", cfg, plain);
        add<ColtMmu>("colt", cfg, plain);
        add<ClusterMmu>("cluster", cfg, plain, false);
        add<RmmMmu>("rmm", cfg, thp, map);
        add<AnchorMmu>("anchor", cfg, anchored, AnchorDist::fromPages(32));
        add<AnchorMmu>("region-anchor", cfg, region, partition);
    }

    template <class M, class... Args>
    void add(const std::string &name, const MmuConfig &cfg,
             Args &&...args)
    {
        pairs.push_back({name, std::make_unique<M>(cfg, args...),
                         std::make_unique<M>(cfg, args...)});
    }
};

/**
 * Random batch size: mostly 0..64 (empty and size-1 batches
 * included), and one draw in four 0..1100, so batches span the vector
 * kernel's 512-access chunks and carry the L0 filter across a chunk
 * boundary at arbitrary offsets.
 */
std::size_t
randomBatchSize(Rng &rng)
{
    const std::uint64_t bound = rng.nextBounded(4) == 0 ? 1101 : 65;
    return static_cast<std::size_t>(rng.nextBounded(bound));
}

/** Random stream over the varied map: page-local runs plus jumps. */
std::vector<MemAccess>
randomMappedStream(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t offsets[] = {0, 512, 4096, 8192};
    const std::uint64_t lens[] = {8, 1024, 100, 3};
    std::vector<MemAccess> out;
    out.reserve(n);
    while (out.size() < n) {
        const unsigned c = static_cast<unsigned>(rng.nextBounded(4));
        const Vpn vpn =
            baseVpn + offsets[c] + rng.nextBounded(lens[c]);
        // Dwell on the page 1-6 accesses so the L0 filter engages.
        const std::uint64_t run = 1 + rng.nextBounded(6);
        for (std::uint64_t i = 0; i < run && out.size() < n; ++i)
            out.push_back({vaOf(vpn) + rng.nextBounded(pageBytes),
                           rng.nextBounded(4) == 0});
    }
    return out;
}

TEST(BatchEquivalence, RandomizedDifferentialAllSchemes)
{
    // Feed the same random stream to a batch-driven and a per-access
    // MMU of every scheme, comparing full stats at every (randomly
    // sized, see randomBatchSize) batch boundary.
    for (const std::uint64_t seed : {7ull, 21ull, 63ull}) {
        DifferentialRig rig;
        const std::vector<MemAccess> stream =
            randomMappedStream(20'000, seed);
        Rng chunks(seed * 31 + 1);
        for (SchemePair &p : rig.pairs) {
            SCOPED_TRACE(p.name + "/seed " + std::to_string(seed));
            BatchStats bs;
            std::size_t i = 0;
            while (i < stream.size()) {
                const std::size_t take =
                    std::min(randomBatchSize(chunks), stream.size() - i);
                p.batch->translateBatch(stream.data() + i, take, bs);
                for (std::size_t j = 0; j < take; ++j)
                    p.ref->translate(stream[i + j].vaddr);
                i += take;
                expectStatsEqual(p.batch->stats(), p.ref->stats(),
                                 p.name + " at access " +
                                     std::to_string(i));
                if (HasFailure())
                    return; // one divergence floods the log otherwise
            }
            // BatchStats mirrors the MmuStats the kernel accumulated.
            EXPECT_EQ(bs.accesses, p.batch->stats().accesses);
            EXPECT_EQ(bs.l1_hits, p.batch->stats().l1_hits);
            EXPECT_LE(bs.l0_filtered, bs.l1_hits);
            // The stream dwells on pages, so the filter must actually
            // engage (the speedup the kernel exists for), in every
            // build.
            EXPECT_GT(bs.l0_filtered, 0u) << p.name;
        }
    }
}

// --- L0 filter invalidation ---------------------------------------------

/**
 * Drive the same access/event script through a batch MMU and a
 * per-access MMU; any stale L0 short-circuit shows up as a counter
 * divergence (the reference re-probes every time).
 */
struct FilterProbe
{
    MemoryMap map = test::makeVariedMap();
    PageTable table;
    MmuConfig cfg;
    BaselineMmu batch_mmu;
    BaselineMmu ref_mmu;
    BatchStats bs;

    FilterProbe()
        : table(buildPageTable(map, false)),
          batch_mmu(cfg, table),
          ref_mmu(cfg, table, "ref")
    {
    }

    void run(const std::vector<MemAccess> &accs)
    {
        batch_mmu.translateBatch(accs.data(), accs.size(), bs);
        for (const MemAccess &a : accs)
            ref_mmu.translate(a.vaddr);
    }

    void expectInSync(const std::string &what)
    {
        expectStatsEqual(batch_mmu.stats(), ref_mmu.stats(), what);
    }
};

std::vector<MemAccess>
sameVpnBurst(Vpn vpn, std::size_t n)
{
    std::vector<MemAccess> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({vaOf(vpn) + i * 8, false});
    return out;
}

TEST(BatchL0Filter, FlushAllDropsTheCarriedVpn)
{
    FilterProbe probe;
    const Vpn vpn = baseVpn + 600;
    probe.run(sameVpnBurst(vpn, 4));
    probe.expectInSync("before flush");

    probe.batch_mmu.flushAll();
    probe.ref_mmu.flushAll();
    // After the flush the first access must miss again; a stale filter
    // would count it as an L1 hit and skip the refill.
    probe.run(sameVpnBurst(vpn, 4));
    probe.expectInSync("after flush");
    EXPECT_GE(probe.batch_mmu.stats().page_walks, 2u);
}

TEST(BatchL0Filter, InvalidatePageAfterRemapIsNotServedStale)
{
    FilterProbe probe;
    const Vpn vpn = baseVpn + 700;
    probe.run(sameVpnBurst(vpn, 3));
    probe.expectInSync("before remap");

    // OS migrates the page and shoots down the TLBs. The next batch
    // must re-walk and pick up the new frame.
    probe.table.remap4K(vpn, Ppn{0x4444});
    probe.batch_mmu.invalidatePage(vpn);
    probe.ref_mmu.invalidatePage(vpn);
    probe.run(sameVpnBurst(vpn, 3));
    probe.expectInSync("after remap+invalidate");
    // The refilled L1 entry carries the migrated frame, not the stale
    // one — observable through the per-access path.
    EXPECT_EQ(probe.batch_mmu.translate(vaOf(vpn)).ppn, Ppn{0x4444});
}

TEST(BatchL0Filter, SwitchProcessDropsTheCarriedVpn)
{
    FilterProbe probe;
    const Vpn vpn = baseVpn + 2;
    probe.run(sameVpnBurst(vpn, 3));
    probe.expectInSync("process A");

    // Same VA, different address space: the other process maps it to a
    // different frame.
    PageTable other = buildPageTable(probe.map, false);
    other.remap4K(vpn, Ppn{0x9999});
    ProcessContext ctx;
    ctx.table = &other;
    probe.batch_mmu.switchProcess(ctx);
    probe.ref_mmu.switchProcess(ctx);

    probe.run(sameVpnBurst(vpn, 3));
    probe.expectInSync("process B");
    EXPECT_EQ(probe.batch_mmu.translate(vaOf(vpn)).ppn, Ppn{0x9999});
}

TEST(BatchL0Filter, InterleavedPerAccessProbesInvalidateTheCarry)
{
    // A per-access translate() between two batches advances the L1
    // lookup counters; the next batch must notice and re-probe instead
    // of trusting the carried VPN (the probed page may have evicted
    // it). The reference MMU sees the identical interleaving.
    FilterProbe probe;
    const Vpn hot = baseVpn + 512;
    probe.run(sameVpnBurst(hot, 2));

    // Thrash the hot page's set via per-access calls: congruent pages
    // 512 + k*64 share a 64-entry 4-way set's index stride.
    for (const Vpn v : {baseVpn + 512 + 64, baseVpn + 512 + 128,
                        baseVpn + 512 + 192, baseVpn + 512 + 256}) {
        probe.batch_mmu.translate(vaOf(v));
        probe.ref_mmu.translate(vaOf(v));
    }
    probe.run(sameVpnBurst(hot, 2));
    probe.expectInSync("after interleaved probes");
}

// --- scalar vs SIMD dispatch levels -------------------------------------

TEST(BatchSimdLevels, GridCellsMatchAcrossLevels)
{
    // The vector instantiation of the batch kernel (VPN/eq pre-pass +
    // set-probe kernel) must land on results byte-identical to the
    // scalar one AND the per-access reference, cell by cell. The MMU
    // captures its kernels at construction, so forcing the level
    // around the whole cell run pins the flavour.
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    const SimOptions opts = quickOptions();
    for (const Scheme scheme : gridSchemes()) {
        const std::string what = schemeName(scheme);
        SCOPED_TRACE(what);
        const CellFixture cell(opts, "canneal", ScenarioKind::MedContig,
                               scheme);
        const SimResult vec = runCellIn(
            TranslateMode::Batch, opts, cell, ScenarioKind::MedContig,
            scheme);
        SimResult scalar;
        SimResult scalar_ref;
        {
            test::ScopedSimdLevel forced(SimdLevel::Scalar);
            scalar = runCellIn(TranslateMode::Batch, opts, cell,
                               ScenarioKind::MedContig, scheme);
            scalar_ref = runCellIn(TranslateMode::PerAccess, opts, cell,
                                   ScenarioKind::MedContig, scheme);
        }
        expectResultsEqual(vec, scalar, what + " vec-batch vs scalar-batch");
        expectResultsEqual(vec, scalar_ref,
                           what + " vec-batch vs per-access");
    }
}

TEST(BatchSimdLevels, RandomizedDifferentialScalarVsSimd)
{
    // Same random batch sizes as the per-access differential, but
    // the reference is now the scalar instantiation of the kernel:
    // both rigs take the batch path, only the Isa policy differs. Any
    // pre-pass mistake (eq bit off by one, prev-VPN carry across a
    // 512-access chunk, stats accounting) diverges the counters at
    // some batch boundary.
    if (detectedSimdLevel() == SimdLevel::Scalar)
        GTEST_SKIP() << "no vector level on this host";
    for (const std::uint64_t seed : {7ull, 21ull}) {
        DifferentialRig vec_rig;
        std::unique_ptr<DifferentialRig> scalar_rig;
        {
            test::ScopedSimdLevel forced(SimdLevel::Scalar);
            scalar_rig = std::make_unique<DifferentialRig>();
        }
        const std::vector<MemAccess> stream =
            randomMappedStream(20'000, seed);
        Rng chunks(seed * 77 + 5);
        ASSERT_EQ(vec_rig.pairs.size(), scalar_rig->pairs.size());
        for (std::size_t p = 0; p < vec_rig.pairs.size(); ++p) {
            Mmu &vec = *vec_rig.pairs[p].batch;
            Mmu &ref = *scalar_rig->pairs[p].batch;
            const std::string &name = vec_rig.pairs[p].name;
            SCOPED_TRACE(name + "/seed " + std::to_string(seed));
            BatchStats vec_bs;
            BatchStats ref_bs;
            std::size_t i = 0;
            while (i < stream.size()) {
                const std::size_t take =
                    std::min(randomBatchSize(chunks), stream.size() - i);
                vec.translateBatch(stream.data() + i, take, vec_bs);
                ref.translateBatch(stream.data() + i, take, ref_bs);
                i += take;
                expectStatsEqual(vec.stats(), ref.stats(),
                                 name + " at access " +
                                     std::to_string(i));
                if (HasFailure())
                    return; // one divergence floods the log otherwise
            }
            // The L0 filter must fire identically, not just the MMU
            // counters: the eq-bitset pre-pass IS the filter.
            EXPECT_EQ(vec_bs.accesses, ref_bs.accesses) << name;
            EXPECT_EQ(vec_bs.l1_hits, ref_bs.l1_hits) << name;
            EXPECT_EQ(vec_bs.l0_filtered, ref_bs.l0_filtered) << name;
        }
    }
}

// --- checked-build verification ----------------------------------------

#ifdef ANCHORTLB_CHECKED
TEST(BatchCheckedBuild, OracleSeesEveryBatchAccess)
{
    // Plant the classic stale-TLB corruption (migration without
    // shootdown). The oracle must catch it on the *batch* call. The
    // stale page is the carried L0 VPN, so the batch filters it
    // without a probe: only the carried-page check sees it.
    detail::setThrowOnError(true);
    MemoryMap map = test::makeVariedMap();
    PageTable table = buildPageTable(map, false);
    MmuConfig cfg;
    BaselineMmu mmu(cfg, table);

    BatchStats bs;
    const std::vector<MemAccess> warm = sameVpnBurst(baseVpn + 2, 2);
    mmu.translateBatch(warm.data(), warm.size(), bs); // caches the page
    table.remap4K(baseVpn + 2, Ppn{0x4444}); // no shootdown: stale TLB

    const std::vector<MemAccess> again = sameVpnBurst(baseVpn + 2, 1);
    EXPECT_THROW(mmu.translateBatch(again.data(), again.size(), bs),
                 std::logic_error); // ANCHOR_CHECK panics throw this
    detail::setThrowOnError(false);
}

TEST(BatchCheckedBuild, OracleSeesAProbedStaleL1Entry)
{
    // The batch [X+1, X] leaves the carried page first, so X is
    // probed, not filtered: its stale L1 hit reaches the L1-hit check.
    detail::setThrowOnError(true);
    FilterProbe probe;
    const Vpn x = baseVpn + 2;
    probe.run(sameVpnBurst(x, 1));
    probe.table.remap4K(x, Ppn{0x4444}); // no shootdown: stale TLB

    const std::vector<MemAccess> batch = {{vaOf(x + 1), false},
                                          {vaOf(x), false}};
    EXPECT_THROW(
        probe.batch_mmu.translateBatch(batch.data(), batch.size(), probe.bs),
        std::logic_error);
    detail::setThrowOnError(false);
}

TEST(BatchCheckedBuild, OracleSeesAStaleL2HitAfterL1Eviction)
{
    // Evict stale X from its 4-way L1 set (16 sets: X+16k shares it)
    // while its L2 entry survives; translating X again is an L1 miss
    // that hits the stale L2 entry, so only the miss check sees it.
    detail::setThrowOnError(true);
    FilterProbe probe;
    const Vpn x = baseVpn + 514;
    probe.run(sameVpnBurst(x, 1));
    probe.table.remap4K(x, Ppn{0x4444}); // no shootdown: stale TLB

    std::vector<MemAccess> batch;
    for (std::uint64_t k = 1; k <= 4; ++k)
        batch.push_back({vaOf(x + 16 * k), false});
    batch.push_back({vaOf(x), false});
    EXPECT_THROW(
        probe.batch_mmu.translateBatch(batch.data(), batch.size(), probe.bs),
        std::logic_error);
    detail::setThrowOnError(false);
}
#endif // ANCHORTLB_CHECKED

} // namespace
} // namespace atlb
