/**
 * @file
 * Tests for the experiment context (the facade over the cell engine),
 * its pair-state and result caching, and the cell key.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/cell_reference.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"

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
              ctx.pair("canneal", ScenarioKind::MedContig)
                  ->dynamicDistance());
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
    const std::shared_ptr<const CellPairState> p1 =
        ctx.pair("milc", ScenarioKind::LowContig);
    ctx.run("milc", ScenarioKind::LowContig, Scheme::Base);
    ctx.run("milc", ScenarioKind::LowContig, Scheme::Thp);
    EXPECT_EQ(ctx.pair("milc", ScenarioKind::LowContig), p1)
        << "pair state must be cached across schemes";
    EXPECT_EQ(ctx.scheduler().stats().pair_builds, 1u);
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

TEST(SchemeTable, EverySpellingNamesItsScheme)
{
    // Legend names are the wire's only spelling; the CLI also takes
    // these names and "dynamic".
    const std::pair<const char *, Scheme> cli_spellings[] = {
        {"base", Scheme::Base},          {"thp", Scheme::Thp},
        {"cluster", Scheme::Cluster},    {"cluster-2mb", Scheme::Cluster2MB},
        {"rmm", Scheme::Rmm},            {"anchor", Scheme::Anchor},
        {"dynamic", Scheme::Anchor},     {"ideal", Scheme::AnchorIdeal},
    };
    for (const Scheme scheme : allSchemes) {
        EXPECT_EQ(findScheme(schemeName(scheme), false), scheme);
        EXPECT_EQ(findScheme(schemeName(scheme), true), scheme);
    }
    for (const auto &[name, scheme] : cli_spellings) {
        EXPECT_EQ(findScheme(name, true), scheme) << name;
        EXPECT_FALSE(findScheme(name, false).has_value()) << name;
    }
    EXPECT_FALSE(findScheme("nope", true).has_value());
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
}

TEST(ExperimentDeath, OptionsFromEnvRejectsNanScale)
{
    // NaN fails every comparison, so a range check written as
    // "reject if scale <= 0 or scale > 1" lets it through.
    ::setenv("ANCHORTLB_SCALE", "nan", 1);
    EXPECT_DEATH(SimOptions::fromEnv(), "ANCHORTLB_SCALE must be in");
    ::unsetenv("ANCHORTLB_SCALE");
}

TEST(ExperimentDeath, OptionsFromEnvRejectsMalformedNumbers)
{
    // Each value once parsed to a prefix: "20k" simulated 20 accesses,
    // "-1" wrapped to 2^64 - 1 and "0.5x" read as 0.5.
    const struct
    {
        const char *name;
        const char *value;
    } cases[] = {
        {"ANCHORTLB_ACCESSES", "20k"}, {"ANCHORTLB_ACCESSES", "-1"},
        {"ANCHORTLB_ACCESSES", " 5"},  {"ANCHORTLB_SEED", "0x2a"},
        {"ANCHORTLB_SCALE", "0.5x"},   {"ANCHORTLB_SCALE", ""},
        {"ANCHORTLB_THREADS", "4 "},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.name) + "='" + c.value + "'");
        ::setenv(c.name, c.value, 1);
        EXPECT_DEATH(SimOptions::fromEnv(),
                     std::string(c.name) + " must be an? [a-z ]+, got '");
        ::unsetenv(c.name);
    }
}

TEST(Experiment, CacheCountersTrackHitsAndMisses)
{
    ExperimentContext ctx(quickOptions());
    EXPECT_EQ(ctx.scheduler().stats().pair_builds, 0u);

    ctx.run("canneal", ScenarioKind::MedContig, Scheme::Base);
    CellScheduler::Stats stats = ctx.scheduler().stats();
    EXPECT_EQ(stats.pair_builds, 1u);
    EXPECT_EQ(stats.pair_reuses, 0u);

    ctx.run("canneal", ScenarioKind::MedContig, Scheme::Thp);
    stats = ctx.scheduler().stats();
    EXPECT_EQ(stats.pair_builds, 1u);
    EXPECT_EQ(stats.pair_reuses, 1u);

    ctx.run("sphinx3", ScenarioKind::MedContig, Scheme::Base);
    stats = ctx.scheduler().stats();
    EXPECT_EQ(stats.pair_builds, 2u);
    EXPECT_EQ(stats.pair_reuses, 1u);
    EXPECT_EQ(stats.pairs_cached, 2u);
    EXPECT_EQ(ctx.cacheCounters().result_lookups, 0u)
        << "no result cache is attached";
}

/** defaultPairBudget + 2 distinct pairs, so a sweep over them evicts. */
std::vector<std::pair<std::string, ScenarioKind>>
moreDistinctPairsThanTheBudget()
{
    std::vector<std::pair<std::string, ScenarioKind>> pairs;
    for (const char *workload :
         {"canneal", "sphinx3", "omnetpp", "milc", "mcf"}) {
        for (const ScenarioKind scenario :
             {ScenarioKind::Demand, ScenarioKind::MedContig})
            pairs.emplace_back(workload, scenario);
    }
    EXPECT_EQ(pairs.size(), defaultPairBudget + 2);
    return pairs;
}

TEST(Experiment, CacheEvictionDoesNotChangeResults)
{
    // Sweep more pairs than the budget, then revisit the first, which
    // the LRU evicted: rebuilt state must reproduce the reference.
    const SimOptions opts = quickOptions();
    ExperimentContext ctx(opts);
    auto pairs = moreDistinctPairsThanTheBudget();
    pairs.push_back(pairs.front());
    for (const auto &[workload, scenario] : pairs) {
        for (const Scheme scheme : {Scheme::Base, Scheme::Anchor}) {
            const CellJob job{workload, scenario, scheme, {}};
            expectSameResult(ctx.run(workload, scenario, scheme),
                             freshCellResult(opts, job));
        }
    }
    EXPECT_EQ(ctx.scheduler().stats().pair_builds, pairs.size())
        << "the revisited pair must have been evicted and rebuilt";
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
    EXPECT_EQ(warm.scheduler().stats().pair_builds, 0u)
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

TEST(Experiment, ResultCacheAnswersParallelGrid)
{
    // A batch across four workers fills an attached cache, and a fresh
    // context answers the same batch from it without building any pair.
    SimOptions opts = quickOptions();
    opts.threads = 4;
    std::vector<CellSpec> grid;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (const Scheme scheme :
             {Scheme::Base, Scheme::Thp, Scheme::Anchor})
            grid.push_back({workload, ScenarioKind::MedContig, scheme, {}});
    }
    grid.push_back(
        {"canneal", ScenarioKind::MedContig, Scheme::AnchorIdeal, {}});

    MapResultCache cache;
    ExperimentContext cold(opts);
    cold.setResultCache(&cache);
    const std::vector<SimResult> computed = cold.runCells(grid);
    EXPECT_EQ(cache.size(), grid.size());
    EXPECT_EQ(cold.cacheCounters().result_lookups, grid.size());
    EXPECT_EQ(cold.cacheCounters().result_hits, 0u);

    ExperimentContext warm(opts);
    warm.setResultCache(&cache);
    const std::vector<SimResult> answered = warm.runCells(grid);
    EXPECT_EQ(warm.cacheCounters().result_hits, grid.size());
    EXPECT_EQ(warm.scheduler().stats().pair_builds, 0u);
    ASSERT_EQ(answered.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        expectSameResult(answered[i], computed[i]);
        expectSameResult(computed[i], freshCellResult(opts, grid[i]));
    }
}

TEST(Experiment, RevisitedPairSurvivesLruSweep)
{
    // Fill the budget, revisit the first pair, then add one more: the
    // LRU must evict the coldest pair, not the revisited one.
    ExperimentContext ctx(quickOptions());
    const auto pairs = moreDistinctPairsThanTheBudget();
    const auto &[workload, scenario] = pairs.front();
    const std::shared_ptr<const CellPairState> first =
        ctx.pair(workload, scenario);
    for (std::size_t i = 1; i < defaultPairBudget; ++i)
        ctx.pair(pairs[i].first, pairs[i].second);
    EXPECT_EQ(ctx.pair(workload, scenario), first);
    ctx.pair(pairs[defaultPairBudget].first,
             pairs[defaultPairBudget].second);

    EXPECT_EQ(ctx.pair(workload, scenario), first)
        << "the revisited pair was evicted";
    const CellScheduler::Stats stats = ctx.scheduler().stats();
    EXPECT_EQ(stats.pair_builds, defaultPairBudget + 1);
    EXPECT_EQ(stats.pairs_cached, defaultPairBudget);
}

} // namespace
} // namespace atlb
