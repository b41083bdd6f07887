/**
 * @file
 * Tests for the experiment context (cell runner + caching).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace atlb
{
namespace
{

SimOptions
quickOptions()
{
    SimOptions opts;
    opts.accesses = 30'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02; // shrink footprints for test speed
    return opts;
}

TEST(Experiment, RunProducesLabelledResult)
{
    ExperimentContext ctx(quickOptions());
    const SimResult r =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(r.workload, "canneal");
    EXPECT_EQ(r.scenario, "medium");
    EXPECT_EQ(r.scheme, "Base");
    EXPECT_EQ(r.stats.accesses, 30'000u);
    EXPECT_EQ(r.anchor_distance, 0u);
}

TEST(Experiment, AnchorRunRecordsDistance)
{
    ExperimentContext ctx(quickOptions());
    const SimResult r =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::Anchor);
    EXPECT_GT(r.anchor_distance, 0u);
    EXPECT_EQ(r.anchor_distance,
              ctx.dynamicDistance("canneal", ScenarioKind::MedContig));
}

TEST(Experiment, DistanceOverrideHonoured)
{
    ExperimentContext ctx(quickOptions());
    const SimResult r =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::Anchor, 64);
    EXPECT_EQ(r.anchor_distance, 64u);
}

TEST(Experiment, RunsAreReproducible)
{
    ExperimentContext a(quickOptions());
    ExperimentContext b(quickOptions());
    const SimResult ra =
        a.run("milc", ScenarioKind::LowContig, Scheme::Cluster);
    const SimResult rb =
        b.run("milc", ScenarioKind::LowContig, Scheme::Cluster);
    EXPECT_EQ(ra.misses(), rb.misses());
    EXPECT_EQ(ra.stats.translation_cycles, rb.stats.translation_cycles);
}

TEST(Experiment, CacheSurvivesSchemeSwitches)
{
    ExperimentContext ctx(quickOptions());
    const auto &m1 = ctx.mapping("milc", ScenarioKind::LowContig);
    ctx.run("milc", ScenarioKind::LowContig, Scheme::Base);
    ctx.run("milc", ScenarioKind::LowContig, Scheme::Thp);
    const auto &m2 = ctx.mapping("milc", ScenarioKind::LowContig);
    EXPECT_EQ(&m1, &m2) << "mapping must be cached across schemes";
}

TEST(Experiment, ClearCacheRebuilds)
{
    ExperimentContext ctx(quickOptions());
    ctx.mapping("milc", ScenarioKind::LowContig);
    ctx.clearCache();
    // Must not crash and must rebuild deterministically.
    const auto &m = ctx.mapping("milc", ScenarioKind::LowContig);
    EXPECT_GT(m.mappedPages(), 0u);
}

TEST(Experiment, IdealAnchorAtLeastAsGoodAsDynamic)
{
    ExperimentContext ctx(quickOptions());
    const SimResult dyn =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::Anchor);
    const SimResult ideal =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::AnchorIdeal);
    EXPECT_LE(ideal.misses(), dyn.misses());
}

TEST(Experiment, BaseAndThpIdenticalWithoutHugeChunks)
{
    // The low-contiguity mapping has no huge-eligible blocks, so THP
    // degenerates to the baseline (paper Fig. 9, low columns).
    ExperimentContext ctx(quickOptions());
    const SimResult base =
        ctx.run("astar_biglake", ScenarioKind::LowContig, Scheme::Base);
    const SimResult thp =
        ctx.run("astar_biglake", ScenarioKind::LowContig, Scheme::Thp);
    EXPECT_EQ(base.misses(), thp.misses());
}

TEST(Experiment, RelativeMissesHelper)
{
    EXPECT_DOUBLE_EQ(relativeMisses(50, 100), 0.5);
    EXPECT_DOUBLE_EQ(relativeMisses(100, 100), 1.0);
    EXPECT_DOUBLE_EQ(relativeMisses(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(relativeMisses(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(relativeMisses(5, 0), 1.0);
}

TEST(Experiment, OptionsFromEnvDefaults)
{
    const SimOptions opts = SimOptions::fromEnv();
    EXPECT_GT(opts.accesses, 0u);
    EXPECT_GT(opts.footprint_scale, 0.0);
    EXPECT_LE(opts.footprint_scale, 1.0);
    EXPECT_GE(opts.threads, 1u);
    EXPECT_GE(opts.cache_pairs, 1u);
}

TEST(Experiment, OptionsFromEnvReadsCachePairs)
{
    ::setenv("ANCHORTLB_CACHE_PAIRS", "7", 1);
    const SimOptions opts = SimOptions::fromEnv();
    EXPECT_EQ(opts.cache_pairs, 7u);
    EXPECT_TRUE(opts.cache_pairs_from_env);
    ::unsetenv("ANCHORTLB_CACHE_PAIRS");
    EXPECT_FALSE(SimOptions::fromEnv().cache_pairs_from_env);
}

TEST(ExperimentDeath, OptionsFromEnvRejectsNanScale)
{
    // NaN fails every comparison, so a range check written as
    // "reject if scale <= 0 or scale > 1" lets it through.
    ::setenv("ANCHORTLB_SCALE", "nan", 1);
    EXPECT_DEATH(SimOptions::fromEnv(), "ANCHORTLB_SCALE must be in");
    ::unsetenv("ANCHORTLB_SCALE");
}

TEST(Experiment, SizeCacheForPairsGrowsToRunShape)
{
    SimOptions opts = quickOptions();
    opts.cache_pairs = 2; // built-in default
    ExperimentContext ctx(opts);
    EXPECT_EQ(ctx.cacheCapacity(), 2u);

    ctx.sizeCacheForPairs(6);
    EXPECT_EQ(ctx.cacheCapacity(), 6u);

    // Never shrinks below a larger current capacity or the default.
    ctx.sizeCacheForPairs(3);
    EXPECT_EQ(ctx.cacheCapacity(), 6u);
    ctx.sizeCacheForPairs(0);
    EXPECT_EQ(ctx.cacheCapacity(), 6u);
}

TEST(Experiment, SizeCacheForPairsRespectsEnvClamp)
{
    // An explicit ANCHORTLB_CACHE_PAIRS is a memory budget: run-shape
    // sizing may shrink-to-fit below it but never exceed it.
    SimOptions opts = quickOptions();
    opts.cache_pairs = 3;
    opts.cache_pairs_from_env = true;
    ExperimentContext ctx(opts);

    ctx.sizeCacheForPairs(10);
    EXPECT_EQ(ctx.cacheCapacity(), 3u);
    ctx.sizeCacheForPairs(2);
    EXPECT_EQ(ctx.cacheCapacity(), 2u);
    ctx.sizeCacheForPairs(0);
    EXPECT_EQ(ctx.cacheCapacity(), 1u); // capacity floor is one pair
}

TEST(Experiment, CacheCountersTrackHitsAndMisses)
{
    ExperimentContext ctx(quickOptions());
    EXPECT_EQ(ctx.cacheCounters().lookups, 0u);

    ctx.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(ctx.cacheCounters().lookups, 1u);
    EXPECT_EQ(ctx.cacheCounters().hits, 0u);

    ctx.run("canneal", ScenarioKind::MedContig, Scheme::Thp);
    EXPECT_EQ(ctx.cacheCounters().lookups, 2u);
    EXPECT_EQ(ctx.cacheCounters().hits, 1u);
    EXPECT_DOUBLE_EQ(ctx.cacheCounters().hitRate(), 0.5);

    ctx.clearCache();
    ctx.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(ctx.cacheCounters().lookups, 3u);
    EXPECT_EQ(ctx.cacheCounters().hits, 1u); // cleared cache = miss
}

TEST(Experiment, CacheEvictionDoesNotChangeResults)
{
    // Thrash pattern: alternate pairs so a capacity-1 cache evicts and
    // rebuilds every call. Rebuilt state must reproduce cached state.
    SimOptions small = quickOptions();
    small.cache_pairs = 1;
    SimOptions big = quickOptions();
    big.cache_pairs = 8;

    ExperimentContext thrash(small);
    ExperimentContext warm(big);

    const std::vector<std::pair<std::string, ScenarioKind>> pairs = {
        {"canneal", ScenarioKind::Demand},
        {"canneal", ScenarioKind::MedContig},
        {"sphinx3", ScenarioKind::Demand},
        {"canneal", ScenarioKind::Demand}, // revisit after eviction
    };
    for (const auto &[workload, scenario] : pairs) {
        for (const Scheme scheme : {Scheme::Base, Scheme::Anchor}) {
            const SimResult a = thrash.run(workload, scenario, scheme);
            const SimResult b = warm.run(workload, scenario, scheme);
            EXPECT_EQ(a.stats.page_walks, b.stats.page_walks);
            EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
            EXPECT_EQ(a.anchor_distance, b.anchor_distance);
        }
    }
}

TEST(Experiment, CellKeyIsStableAndCanonical)
{
    const SimOptions opts = quickOptions();
    const CellSpec spec{"canneal", ScenarioKind::MedContig, Scheme::Base,
                        {}};
    EXPECT_EQ(cellKeyFor(opts, spec), cellKeyFor(opts, spec))
        << "the content address must be deterministic";

    // A stray distance override on a non-Anchor scheme is ignored by
    // run(), so it must not split the cell into two addresses.
    CellSpec stray = spec;
    stray.distance_override = 64;
    EXPECT_EQ(cellKeyFor(opts, stray), cellKeyFor(opts, spec));

    // On Anchor the override shapes the result and must be folded in.
    CellSpec anchor = spec;
    anchor.scheme = Scheme::Anchor;
    CellSpec anchor_d = anchor;
    anchor_d.distance_override = 64;
    EXPECT_NE(cellKeyFor(opts, anchor), cellKeyFor(opts, anchor_d));
}

TEST(Experiment, CellKeyCoversEveryResultShapingInput)
{
    const SimOptions base = quickOptions();
    const CellSpec spec{"canneal", ScenarioKind::MedContig, Scheme::Base,
                        {}};
    const CellKey key = cellKeyFor(base, spec);

    CellSpec other = spec;
    other.workload = "sphinx3";
    EXPECT_NE(cellKeyFor(base, other), key);
    other = spec;
    other.scenario = ScenarioKind::Demand;
    EXPECT_NE(cellKeyFor(base, other), key);
    other = spec;
    other.scheme = Scheme::Thp;
    EXPECT_NE(cellKeyFor(base, other), key);

    // Every sweep knob that shapes the stream changes the address.
    SimOptions opts = base;
    opts.accesses += 1;
    EXPECT_NE(cellKeyFor(opts, spec), key);
    opts = base;
    opts.seed += 1;
    EXPECT_NE(cellKeyFor(opts, spec), key);
    opts = base;
    opts.footprint_scale = 0.03;
    EXPECT_NE(cellKeyFor(opts, spec), key);

    // Hardware parameters too (spot checks across MmuConfig).
    opts = base;
    opts.mmu.l2_entries *= 2;
    EXPECT_NE(cellKeyFor(opts, spec), key);
    opts = base;
    opts.mmu.cluster_span += 1;
    EXPECT_NE(cellKeyFor(opts, spec), key);
    opts = base;
    opts.mmu.walk_cycles += 1;
    EXPECT_NE(cellKeyFor(opts, spec), key);
    opts = base;
    opts.mmu.pwc_enabled = !opts.mmu.pwc_enabled;
    EXPECT_NE(cellKeyFor(opts, spec), key);

    // A different trace content hash is a different cell.
    EXPECT_NE(cellKeyFor(base, spec, 0x1234), key);
}

TEST(Experiment, CellKeyExcludesExecutionModeKnobs)
{
    // These knobs are pinned byte-identical by the test suite, so two
    // runs differing only in them must share one content address.
    const SimOptions base = quickOptions();
    const CellSpec spec{"canneal", ScenarioKind::MedContig, Scheme::Base,
                        {}};
    const CellKey key = cellKeyFor(base, spec);

    SimOptions opts = base;
    opts.threads = 8;
    EXPECT_EQ(cellKeyFor(opts, spec), key);
    opts = base;
    opts.cache_pairs = 16;
    EXPECT_EQ(cellKeyFor(opts, spec), key);
    opts = base;
    opts.translate_mode = TranslateMode::PerAccess;
    EXPECT_EQ(cellKeyFor(opts, spec), key);
}

TEST(Experiment, CellKeyFormatIsPinned)
{
    // The literal format-2 key of one fixed cell under default options.
    // Any change to cellKeyFor's field sequence changes it; such a
    // change must also bump the format version, so that stores written
    // by older builds miss and recompute instead of serving a record
    // under a key whose meaning moved.
    const CellSpec spec{"canneal", ScenarioKind::MedContig, Scheme::Base,
                        {}};
    EXPECT_EQ(cellKeyFor(SimOptions{}, spec).raw(), 0x88d017ca2870357dULL);
}

TEST(Experiment, SyntheticWorkloadsHaveNoTraceContentHash)
{
    EXPECT_EQ(traceContentHash("canneal"), 0u);
    EXPECT_EQ(traceContentHash("milc"), 0u);
}

/** In-memory ResultCache for the hook tests. */
class MapResultCache final : public ResultCache
{
  public:
    std::optional<SimResult> lookup(CellKey key) override
    {
        const auto it = cells_.find(key.raw());
        if (it == cells_.end())
            return std::nullopt;
        return it->second;
    }

    void store(CellKey key, const SimResult &result) override
    {
        cells_[key.raw()] = result;
    }

    std::size_t size() const { return cells_.size(); }

  private:
    std::unordered_map<std::uint64_t, SimResult> cells_;
};

TEST(Experiment, ResultCacheAnswersRepeatRunsWithoutSimulating)
{
    MapResultCache cache;
    ExperimentContext ctx(quickOptions());
    ctx.setResultCache(&cache);

    const SimResult first =
        ctx.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(ctx.cacheCounters().result_lookups, 1u);
    EXPECT_EQ(ctx.cacheCounters().result_hits, 0u);

    // A fresh context with the same options must answer from the cache
    // (no pair state is ever built for a cached cell).
    ExperimentContext warm(quickOptions());
    warm.setResultCache(&cache);
    const SimResult cached =
        warm.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(warm.cacheCounters().result_hits, 1u);
    EXPECT_EQ(warm.cacheCounters().lookups, 0u)
        << "a result-cache hit must not touch pair state";
    EXPECT_EQ(cached.stats.page_walks, first.stats.page_walks);
    EXPECT_EQ(cached.stats.translation_cycles,
              first.stats.translation_cycles);

    // Detaching goes back to plain simulation.
    warm.setResultCache(nullptr);
    const SimResult direct =
        warm.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    EXPECT_EQ(warm.cacheCounters().result_lookups, 1u); // unchanged
    EXPECT_EQ(direct.stats.page_walks, first.stats.page_walks);
}

TEST(Experiment, ContextCellKeyMatchesFreeFunction)
{
    ExperimentContext ctx(quickOptions());
    const CellKey via_ctx =
        ctx.cellKey("canneal", ScenarioKind::MedContig, Scheme::Anchor,
                    64);
    const CellKey via_free = cellKeyFor(
        ctx.options(), CellSpec{"canneal", ScenarioKind::MedContig,
                                Scheme::Anchor, 64});
    EXPECT_EQ(via_ctx, via_free);
}

TEST(Experiment, RevisitedPairSurvivesLruSweep)
{
    // With capacity 2, touching A, B, A, C must keep A alive (LRU
    // evicts B); the revisit must still return consistent state.
    SimOptions opts = quickOptions();
    opts.cache_pairs = 2;
    ExperimentContext ctx(opts);

    const std::uint64_t first =
        ctx.dynamicDistance("canneal", ScenarioKind::MedContig);
    ctx.dynamicDistance("sphinx3", ScenarioKind::MedContig);
    ctx.dynamicDistance("canneal", ScenarioKind::MedContig);
    ctx.dynamicDistance("omnetpp", ScenarioKind::MedContig);
    EXPECT_EQ(ctx.dynamicDistance("canneal", ScenarioKind::MedContig),
              first);
}

} // namespace
} // namespace atlb
