/**
 * @file
 * Translate-kernel hot-path bench: per-access loop vs batch kernel.
 *
 * Measures the translation inner loop in isolation: the access stream
 * is materialised once (untimed), then driven through a fresh MMU per
 * measurement twice — once via the per-access translate() reference
 * loop, once via Mmu::translateBatch (the batch kernel the SIMD level
 * selects) in 1024-access batches. Every concrete scheme class is covered,
 * including the two configurations outside the experiment grid (COLT,
 * the anchor MMU with a region table). The two modes must land on
 * byte-identical MmuStats (fatal check, same contract the golden
 * harness pins); the interesting number is the speedup ratio.
 *
 * Each cell's batch kernel is additionally timed under the forced
 * scalar SIMD level (fresh MMU, same stream, forceSimdLevel), so the
 * report carries a per-cell `simd_vs_scalar` ratio — the speedup of
 * the process's detected vector level (AVX2/NEON) over the scalar
 * reference, with fatally-checked identical MmuStats. On hardware
 * with no vector level the double measurement is skipped and the
 * ratios record 1.0.
 *
 * Results go to BENCH_hotpath.json (or argv[1]). The CI gates are
 * machine-independent: `"batched_at_least_serial": true` requires
 * ratio >= 1.0 for every scheme, `"simd_at_least_scalar": true` the
 * same per-scheme aggregate for the vector kernel, and two floors
 * that pin the tentpole speedup whenever a vector level is present:
 * `"simd_gups_speedup_ok"` (>= 1.3 on gups/base, where every access
 * probes and the vector pre-pass + prefetch dominate; measured
 * 1.7-2.0x on the reference 1-hw-thread container) and
 * `"simd_mcf_speedup_ok"` (>= 1.05 on mcf/base and mcf/anchor, where
 * 94% of accesses are L0-filtered and the residual probes are
 * walk-bound; measured 1.1-1.3x on the same container, floored
 * conservatively because scheduler noise on a single hardware thread
 * swings per-cell ratios by ~15%). Absolute seconds are recorded
 * honestly per host and vary.
 *
 * Budget knobs: ANCHORTLB_ACCESSES (default 1M), ANCHORTLB_SCALE,
 * ANCHORTLB_SEED, ANCHORTLB_HOTPATH_REPS (default 3; min-of-reps
 * damps scheduler noise).
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/colt_mmu.hh"
#include "os/distance_selector.hh"
#include "os/region_partitioner.hh"
#include "os/scenario.hh"
#include "os/table_builder.hh"
#include "stats/json_writer.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;
using namespace atlb::bench;

/** The fig9-shaped cells measured: typical reuse plus scattered gups. */
const std::vector<std::string> &
hotpathWorkloads()
{
    static const std::vector<std::string> names = {"mcf", "gups"};
    return names;
}

struct CellTimes
{
    std::string workload;
    std::string scheme;
    double serial_seconds = 0.0;
    double batched_seconds = 0.0;
    double batched_scalar_seconds = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t l0_filtered = 0;

    double ratio() const { return serial_seconds / batched_seconds; }
    double simdRatio() const
    {
        return batched_scalar_seconds / batched_seconds;
    }
};

bool
statsEqual(const MmuStats &a, const MmuStats &b)
{
    return a.accesses == b.accesses && a.l1_hits == b.l1_hits &&
           a.l2_regular_hits == b.l2_regular_hits &&
           a.coalesced_hits == b.coalesced_hits &&
           a.page_walks == b.page_walks &&
           a.translation_cycles == b.translation_cycles;
}

double
secondsOf(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * One cell's worth of state: the materialised stream plus everything
 * needed to build a fresh MMU of each scheme over it.
 */
struct CellState
{
    std::vector<MemAccess> stream;
    MemoryMap map;
    PageTable plain_table;
    PageTable thp_table;
    PageTable anchor_table;
    PageTable region_table;
    RegionPartition partition;
    std::uint64_t anchor_distance = 0;

    CellState(const SimOptions &opts, const std::string &workload)
        : map(buildScenario(ScenarioKind::MedContig,
                            scenarioParamsFor(
                                opts, scaledWorkloadSpec(opts, workload)))),
          plain_table(buildPageTable(map, false)),
          thp_table(buildPageTable(map, true)),
          anchor_table(buildPageTable(map, true)),
          region_table(buildPageTable(map, false)),
          partition(partitionAnchorRegions(map))
    {
        const WorkloadSpec spec = scaledWorkloadSpec(opts, workload);
        anchor_distance =
            selectAnchorDistance(map.contiguityHistogram()).distance;
        anchor_table.sweepAnchors(map,
                                  AnchorDist::fromPages(anchor_distance));
        region_table = buildRegionAnchorPageTable(map, partition);

        stream.resize(static_cast<std::size_t>(opts.accesses));
        const std::unique_ptr<TraceSource> trace =
            makeCellTrace(opts, spec, opts.accesses);
        std::size_t filled = 0;
        while (filled < stream.size()) {
            const std::size_t n = trace->fill(stream.data() + filled,
                                              stream.size() - filled);
            ATLB_ASSERT(n > 0, "trace ended early");
            filled += n;
        }
    }

    /** A fresh MMU; a paper scheme by its CLI name, via its row. */
    std::unique_ptr<Mmu> makeMmu(const std::string &scheme,
                                 const MmuConfig &cfg) const
    {
        if (scheme == "colt")
            return std::make_unique<ColtMmu>(cfg, plain_table);
        if (scheme == "region-anchor")
            return std::make_unique<AnchorMmu>(cfg, region_table,
                                               partition);
        const std::optional<Scheme> s = findScheme(scheme, true);
        if (!s)
            ATLB_FATAL("unknown hotpath scheme '{}'", scheme);
        const TableLayout layout = schemeRow(*s).layout;
        const PageTable &table = layout == TableLayout::Plain ? plain_table
                                 : layout == TableLayout::Thp ? thp_table
                                                              : anchor_table;
        return buildSchemeMmu(cfg, table, map, *s, anchor_distance);
    }
};

const std::vector<std::string> &
hotpathSchemes()
{
    static const std::vector<std::string> names = {
        "base", "thp",    "colt",   "cluster",
        "rmm",  "anchor", "region-anchor", "cluster-2mb",
    };
    return names;
}

/**
 * Time both loop flavours over one cell, min over @p reps runs each.
 * Each run drives a fresh MMU so TLB warmth never leaks between
 * measurements; both flavours must produce identical MmuStats. When
 * the process's SIMD level is a vector one, the batch kernel is timed
 * a third time with the scalar level forced (the MMU captures the
 * level at construction, so forcing around makeMmu is sufficient);
 * the scalar run must also land on identical stats.
 */
CellTimes
measureCell(const std::string &workload, const CellState &cell,
            const std::string &scheme, const MmuConfig &cfg,
            unsigned reps)
{
    const SimdLevel active = simdLevel();
    CellTimes t;
    t.workload = workload;
    t.scheme = scheme;
    t.serial_seconds = std::numeric_limits<double>::infinity();
    t.batched_seconds = std::numeric_limits<double>::infinity();
    t.batched_scalar_seconds = std::numeric_limits<double>::infinity();

    for (unsigned rep = 0; rep < reps; ++rep) {
        MmuStats serial_stats;
        {
            const std::unique_ptr<Mmu> mmu = cell.makeMmu(scheme, cfg);
            const auto start = std::chrono::steady_clock::now();
            for (const MemAccess &a : cell.stream)
                mmu->translate(a.vaddr);
            t.serial_seconds =
                std::min(t.serial_seconds, secondsOf(start));
            serial_stats = mmu->stats();
        }

        BatchStats bs;
        {
            const std::unique_ptr<Mmu> mmu = cell.makeMmu(scheme, cfg);
            const auto start = std::chrono::steady_clock::now();
            constexpr std::size_t batch = 1024;
            for (std::size_t i = 0; i < cell.stream.size(); i += batch) {
                mmu->translateBatch(
                    cell.stream.data() + i,
                    std::min(batch, cell.stream.size() - i), bs);
            }
            t.batched_seconds =
                std::min(t.batched_seconds, secondsOf(start));
            if (!statsEqual(mmu->stats(), serial_stats))
                ATLB_FATAL("{}/{}: batch kernel diverged from the "
                           "per-access loop",
                           workload, scheme);
        }

        if (active != SimdLevel::Scalar) {
            forceSimdLevel(SimdLevel::Scalar);
            const std::unique_ptr<Mmu> mmu = cell.makeMmu(scheme, cfg);
            forceSimdLevel(active);
            BatchStats sbs;
            const auto start = std::chrono::steady_clock::now();
            constexpr std::size_t batch = 1024;
            for (std::size_t i = 0; i < cell.stream.size(); i += batch) {
                mmu->translateBatch(
                    cell.stream.data() + i,
                    std::min(batch, cell.stream.size() - i), sbs);
            }
            t.batched_scalar_seconds =
                std::min(t.batched_scalar_seconds, secondsOf(start));
            if (!statsEqual(mmu->stats(), serial_stats))
                ATLB_FATAL("{}/{}: scalar batch kernel diverged from "
                           "the per-access loop",
                           workload, scheme);
        } else {
            // No vector level on this host: record a neutral 1.0 ratio
            // rather than timing the same kernel twice.
            t.batched_scalar_seconds = t.batched_seconds;
        }

        if (rep == 0) {
            t.accesses = serial_stats.accesses;
            t.l0_filtered = bs.l0_filtered;
        }
    }
    if (active == SimdLevel::Scalar)
        t.batched_scalar_seconds = t.batched_seconds;
    return t;
}

void
emitJson(const std::string &path, const SimOptions &opts,
         const std::vector<CellTimes> &times)
{
    std::ofstream out(path);
    if (!out)
        ATLB_FATAL("cannot write '{}'", path);
    // CI greps for '"batched_at_least_serial": true' — JsonWriter's
    // `"key": value` layout is part of that contract.
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "bench_hotpath");
    json.field("accesses_per_cell", opts.accesses);
    json.field("footprint_scale", opts.footprint_scale);
    const bool vector = simdLevel() != SimdLevel::Scalar;
    json.field("simd_level", simdLevelName(simdLevel()));
    double min_cell_ratio = std::numeric_limits<double>::infinity();
    json.key("cells");
    json.beginObject();
    for (const CellTimes &t : times) {
        min_cell_ratio = std::min(min_cell_ratio, t.ratio());
        json.key(t.workload + "/" + t.scheme);
        json.beginObject();
        json.field("serial_seconds", t.serial_seconds);
        json.field("batched_seconds", t.batched_seconds);
        json.field("batched_scalar_seconds", t.batched_scalar_seconds);
        json.field("ratio", t.ratio());
        json.field("simd_vs_scalar", t.simdRatio());
        json.field("batched_accesses_per_sec",
                   static_cast<double>(t.accesses) / t.batched_seconds);
        json.field("l0_filtered_fraction",
                   static_cast<double>(t.l0_filtered) /
                       static_cast<double>(t.accesses));
        json.endObject();
    }
    json.endObject();

    // The gate aggregates each scheme over its workloads: per-cell
    // ratios on miss-dominated cells (gups) sit near 1.0 and jitter
    // across reps, while the scheme aggregate keeps mcf's batch margin
    // as a cushion — stable enough to enforce >= 1.0 in CI.
    double min_scheme_ratio = std::numeric_limits<double>::infinity();
    double min_scheme_simd = std::numeric_limits<double>::infinity();
    json.key("schemes");
    json.beginObject();
    for (const std::string &scheme : hotpathSchemes()) {
        double serial = 0.0;
        double batched = 0.0;
        double batched_scalar = 0.0;
        for (const CellTimes &t : times) {
            if (t.scheme != scheme)
                continue;
            serial += t.serial_seconds;
            batched += t.batched_seconds;
            batched_scalar += t.batched_scalar_seconds;
        }
        const double ratio = serial / batched;
        const double simd_ratio = batched_scalar / batched;
        min_scheme_ratio = std::min(min_scheme_ratio, ratio);
        min_scheme_simd = std::min(min_scheme_simd, simd_ratio);
        json.key(scheme);
        json.beginObject();
        json.field("serial_seconds", serial);
        json.field("batched_seconds", batched);
        json.field("batched_scalar_seconds", batched_scalar);
        json.field("ratio", ratio);
        json.field("simd_vs_scalar", simd_ratio);
        json.endObject();
    }
    json.endObject();
    json.field("min_cell_ratio", min_cell_ratio);
    json.field("min_scheme_ratio", min_scheme_ratio);
    json.field("min_scheme_simd_vs_scalar", min_scheme_simd);
    json.field("batched_at_least_serial", min_scheme_ratio >= 1.0);
    // Same aggregation rationale as batched_at_least_serial: per-cell
    // simd ratios on walk-dominated cells (gups) hover near 1.0, the
    // scheme aggregate keeps mcf's vector-filter margin as cushion.
    json.field("simd_at_least_scalar", min_scheme_simd >= 1.0);
    // The tentpole numbers (trivially true on scalar-only hosts,
    // which have nothing to compare):
    //  - gups/base probes on ~every access, so the vector pre-pass,
    //    inline probes and miss-path prefetch all show: measured
    //    1.7-2.0x on the reference container, gated at 1.3.
    //  - mcf cells are 94% L0-filtered; the filter itself is cheap in
    //    either kernel, so the residual walk-bound probes cap the
    //    vector win: measured 1.1-1.3x, gated at 1.05 — a floor a
    //    ~15% single-hardware-thread scheduler swing cannot flake.
    double gups_floor = std::numeric_limits<double>::infinity();
    double mcf_floor = std::numeric_limits<double>::infinity();
    for (const CellTimes &t : times) {
        if (t.workload == "gups" && t.scheme == "base")
            gups_floor = std::min(gups_floor, t.simdRatio());
        if (t.workload == "mcf" &&
            (t.scheme == "base" || t.scheme == "anchor"))
            mcf_floor = std::min(mcf_floor, t.simdRatio());
    }
    json.field("gups_simd_vs_scalar_floor", gups_floor);
    json.field("simd_gups_speedup_ok", !vector || gups_floor >= 1.3);
    json.field("mcf_simd_vs_scalar_floor", mcf_floor);
    json.field("simd_mcf_speedup_ok", !vector || mcf_floor >= 1.05);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = figureOptions();
    const unsigned reps = static_cast<unsigned>(
        envU64("ANCHORTLB_HOTPATH_REPS", 3));
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_hotpath.json";

    printHeader("Translate hot path: per-access loop vs batch kernel");
    std::cout << "simd level: " << simdLevelName(simdLevel()) << "\n";
    std::cout << "cells: " << hotpathWorkloads().size()
              << " workloads (MedContig) x " << hotpathSchemes().size()
              << " schemes, " << opts.accesses
              << " accesses/cell, min of " << reps << " reps\n";

    std::vector<CellTimes> times;
    for (const std::string &w : hotpathWorkloads()) {
        const CellState cell(opts, w);
        for (const std::string &scheme : hotpathSchemes()) {
            times.push_back(
                measureCell(w, cell, scheme, opts.mmu, reps));
            const CellTimes &t = times.back();
            std::cout << t.workload << "/" << t.scheme << ": serial "
                      << t.serial_seconds << " s, batched "
                      << t.batched_seconds << " s, ratio " << t.ratio()
                      << "x, simd vs scalar " << t.simdRatio()
                      << "x (L0 filtered "
                      << 100.0 * static_cast<double>(t.l0_filtered) /
                             static_cast<double>(t.accesses)
                      << "%)\n";
        }
    }

    emitJson(json_path, opts, times);
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
