/**
 * @file
 * anchortlb — command-line driver for the simulator.
 *
 * Subcommands:
 *   list                        catalog workloads, scenarios, schemes
 *   run                         one (workload, scenario, scheme) cell
 *   sweep-distance              anchor misses across every distance
 *   gen-trace                   write a synthetic trace to a file
 *   replay                      drive a trace file through a scheme
 *   trace import|convert|info|replay
 *                               text-trace ingestion, codec conversion,
 *                               metadata and grid-path replay
 *   serve / submit / query      sweep service over a unix socket with a
 *                               content-addressed persistent result store
 *   store info|gc               result-store inspection and compaction
 *

 * Run `anchortlb help` for the full usage text. Output is an ASCII
 * table by default; pass --csv for machine-readable output.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "ingest/text_importer.hh"
#include "ingest/trace_open.hh"
#include "ingest/trace_v2.hh"
#include "ingest/workload_profile.hh"
#include "os/mapping_io.hh"
#include "trace/profiler.hh"
#include "os/distance_selector.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/multiprocess.hh"
#include "sim/parallel_runner.hh"
#include "stats/histogram.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;

/** Minimal --key=value / --flag parser. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                positional_.push_back(std::move(arg));
                continue;
            }
            arg = arg.substr(2);
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                named_[arg] = "true";
            else
                named_[arg.substr(0, eq)] = arg.substr(eq + 1);
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = named_.find(key);
        return it == named_.end() ? fallback : it->second;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t fallback) const
    {
        const auto it = named_.find(key);
        if (it == named_.end())
            return fallback;
        const std::optional<std::uint64_t> value = parseU64(it->second);
        if (!value)
            ATLB_FATAL("--{} must be an unsigned decimal integer, got '{}'",
                       key, it->second);
        return *value;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const auto it = named_.find(key);
        if (it == named_.end())
            return fallback;
        const std::optional<double> value = parseDouble(it->second);
        if (!value)
            ATLB_FATAL("--{} must be a number, got '{}'", key, it->second);
        return *value;
    }

    bool has(const std::string &key) const { return named_.count(key); }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> named_;
    std::vector<std::string> positional_;
};

/** A legend name or a CLI spelling (schemeRows); fatal otherwise. */
Scheme
schemeFromName(const std::string &name)
{
    if (const std::optional<Scheme> scheme = findScheme(name, true))
        return *scheme;
    ATLB_FATAL("unknown scheme '{}' (try: base thp cluster cluster-2mb "
               "rmm anchor ideal)", name);
}

void
emit(const Table &table, bool csv)
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.printAscii(std::cout);
}

SimOptions
optionsFrom(const Args &args)
{
    SimOptions opts = SimOptions::fromEnv();
    opts.accesses = args.getU64("accesses", opts.accesses);
    opts.seed = args.getU64("seed", opts.seed);
    opts.footprint_scale = args.getDouble("scale", opts.footprint_scale);
    if (!validFootprintScale(opts.footprint_scale))
        ATLB_FATAL("--scale must be in (0, 1]");
    return opts;
}

int
cmdList(const Args &args)
{
    const bool csv = args.has("csv");
    Table workloads("workloads",
                    {"name", "footprint MB", "mem/instr",
                     "demand run pages", "eager run pages"});
    for (const WorkloadSpec &w : workloadCatalog()) {
        workloads.beginRow();
        workloads.cell(w.name);
        workloads.cell(w.footprint_bytes >> 20);
        workloads.cell(w.mem_per_instr, 2);
        workloads.cell(w.demand_run_pages);
        workloads.cell(w.eager_run_pages);
    }
    emit(workloads, csv);

    Table scenarios("scenarios", {"name", "description"});
    const char *descriptions[] = {
        "demand paging, THP on, fragmented pool",
        "eager paging, THP on",
        "synthetic chunks uniform 1-16 pages",
        "synthetic chunks uniform 1-512 pages",
        "synthetic chunks uniform 512-65536 pages",
        "one maximal chunk",
    };
    int i = 0;
    for (const ScenarioKind k : allScenarios) {
        scenarios.beginRow();
        scenarios.cell(std::string(scenarioName(k)));
        scenarios.cell(std::string(descriptions[i++]));
    }
    emit(scenarios, csv);

    Table schemes("schemes", {"name"});
    for (const Scheme s : allSchemes) {
        schemes.beginRow();
        schemes.cell(std::string(schemeName(s)));
    }
    emit(schemes, csv);
    return 0;
}

/**
 * The --scheme cells (default: every scheme) of one pair, --distance
 * applied to a scheme that takes one, run as one batch behind a
 * leading Base cell: front() is the Base denominator, the rest follow
 * the scheme order.
 */
std::vector<SimResult>
runSchemeBatch(ExperimentContext &ctx, const Args &args,
               const std::string &workload, ScenarioKind scenario)
{
    std::vector<Scheme> schemes;
    if (args.has("scheme"))
        schemes.push_back(schemeFromName(args.get("scheme", "")));
    else
        schemes.assign(std::begin(allSchemes), std::end(allSchemes));

    std::vector<CellSpec> cells = {{workload, scenario, Scheme::Base, {}}};
    for (const Scheme s : schemes) {
        std::optional<std::uint64_t> dist;
        if (args.has("distance") && schemeRow(s).takesDistance())
            dist = args.getU64("distance", 0);
        cells.push_back({workload, scenario, s, dist});
    }
    return ctx.runCells(cells);
}

int
cmdRun(const Args &args)
{
    const std::string workload = args.get("workload", "canneal");
    const ScenarioKind scenario =
        scenarioFromName(args.get("scenario", "medium"));
    const bool csv = args.has("csv");

    ExperimentContext ctx(optionsFrom(args));
    const std::vector<SimResult> results =
        runSchemeBatch(ctx, args, workload, scenario);
    const SimResult &base = results.front();

    Table table(workload + " / " + scenarioName(scenario),
                {"scheme", "walks", "relative%", "L1 hit%", "L2 reg hit%",
                 "coalesced%", "CPI", "anchor dist"});
    for (std::size_t i = 1; i < results.size(); ++i) {
        const SimResult &r = results[i];
        table.beginRow();
        table.cell(r.scheme);
        table.cell(r.misses());
        table.cellPercent(relativeMisses(r.misses(), base.misses()));
        table.cellPercent(
            r.stats.accesses
                ? static_cast<double>(r.stats.l1_hits) /
                      static_cast<double>(r.stats.accesses)
                : 0.0);
        table.cellPercent(r.regularHitFraction());
        table.cellPercent(r.coalescedHitFraction());
        table.cell(r.translationCpi(), 4);
        table.cell(r.anchor_distance
                       ? std::to_string(r.anchor_distance)
                       : std::string("-"));
    }
    emit(table, csv);
    return 0;
}

int
cmdSweepDistance(const Args &args)
{
    const std::string workload = args.get("workload", "canneal");
    const ScenarioKind scenario =
        scenarioFromName(args.get("scenario", "medium"));
    const bool csv = args.has("csv");

    // One batch: the Base denominator, then Anchor at every distance.
    ExperimentContext ctx(optionsFrom(args));
    const std::vector<std::uint64_t> distances = candidateDistances();
    std::vector<CellSpec> cells = {{workload, scenario, Scheme::Base, {}}};
    for (const std::uint64_t d : distances)
        cells.push_back({workload, scenario, Scheme::Anchor, d});
    const std::vector<SimResult> results = ctx.runCells(cells);
    const std::uint64_t base = results.front().misses();
    const std::uint64_t dynamic_d =
        ctx.pair(workload, scenario)->dynamicDistance();

    Table table("anchor distance sweep: " + workload + " / " +
                    scenarioName(scenario),
                {"distance", "walks", "relative%", "dynamic pick"});
    for (std::size_t i = 0; i < distances.size(); ++i) {
        const std::uint64_t d = distances[i];
        const SimResult &r = results[i + 1];
        table.beginRow();
        table.cell(d);
        table.cell(r.misses());
        table.cellPercent(relativeMisses(r.misses(), base));
        table.cell(std::string(d == dynamic_d ? "<==" : ""));
    }
    emit(table, csv);
    return 0;
}

int
cmdGenTrace(const Args &args)
{
    const std::string workload = args.get("workload", "canneal");
    const std::string path = args.get("out", workload + ".trace");
    const SimOptions opts = optionsFrom(args);

    WorkloadSpec spec = findWorkload(workload);
    spec.footprint_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.footprint_bytes) * opts.footprint_scale);
    PatternTrace source(spec, vaOf(Vpn{0x7f0000000ULL}), opts.accesses,
                        opts.seed);
    TraceWriter writer(path);
    MemAccess a;
    while (source.next(a))
        writer.append(a);
    writer.close();
    std::cout << "wrote " << writer.written() << " accesses to " << path
              << "\n";
    return 0;
}

int
cmdReplay(const Args &args)
{
    if (args.positional().empty())
        ATLB_FATAL("replay needs a trace file argument");
    const std::string path = args.positional()[0];
    const SimOptions opts = optionsFrom(args);

    // One cell of the pair whose simulations replay the whole file
    // (ATLBTRC1 or ATLBTRC2) instead of the pair's stream.
    CellJob job;
    job.workload = args.get("workload", "canneal");
    job.scenario = scenarioFromName(args.get("scenario", "medium"));
    job.scheme = schemeFromName(args.get("scheme", "anchor"));
    if (args.has("distance") && schemeRow(job.scheme).takesDistance())
        job.distance_override = args.getU64("distance", 0);
    const CellPairState pair(opts, job.workload, job.scenario);
    const SimResult r = runCellJob(opts, pair, job,
                                   [&path] { return openTraceFile(path); });

    Table out("replay of " + path, {"metric", "value"});
    out.beginRow();
    out.cell(std::string("accesses"));
    out.cell(r.stats.accesses);
    out.beginRow();
    out.cell(std::string("page walks"));
    out.cell(r.misses());
    out.beginRow();
    out.cell(std::string("translation CPI"));
    out.cell(r.translationCpi(), 4);
    emit(out, args.has("csv"));
    return 0;
}

int
cmdProfile(const Args &args)
{
    const bool csv = args.has("csv");
    const SimOptions opts = optionsFrom(args);
    std::unique_ptr<TraceSource> source;
    std::string what;
    if (!args.positional().empty()) {
        what = args.positional()[0];
        source = openTraceFile(what);
    } else {
        const std::string workload = args.get("workload", "canneal");
        WorkloadSpec spec = findWorkload(workload);
        spec.footprint_bytes = static_cast<std::uint64_t>(
            static_cast<double>(spec.footprint_bytes) *
            opts.footprint_scale);
        source = std::make_unique<PatternTrace>(
            spec, vaOf(Vpn{0x7f0000000ULL}), opts.accesses, opts.seed);
        what = workload + " (synthetic)";
    }
    if (args.has("json")) {
        WorkloadProfiler profiler;
        profiler.consume(*source);
        writeWorkloadProfileJson(std::cout, profiler.profile());
        return 0;
    }
    TraceProfiler profiler;
    profiler.consume(*source);
    const TraceProfile p = profiler.profile();

    Table table("page-level profile of " + what, {"metric", "value"});
    const auto row = [&table](const std::string &k,
                              const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };
    row("accesses", std::to_string(p.accesses));
    row("writes", std::to_string(p.writes));
    row("unique 4KB pages", std::to_string(p.unique_pages));
    row("same-page fraction",
        std::to_string(p.same_page_fraction));
    row("sequential fraction",
        std::to_string(p.sequential_fraction));
    row("cold accesses", std::to_string(p.cold_accesses));
    row("hot set for 50% of reuses",
        std::to_string(p.hotSetPages(0.5)) + " pages");
    row("hot set for 90% of reuses",
        std::to_string(p.hotSetPages(0.9)) + " pages");
    row("reuses within L2 reach (1K pages)",
        std::to_string(p.hitFractionAtReach(1024)));
    emit(table, csv);
    return 0;
}

int
cmdExportMap(const Args &args)
{
    const std::string workload = args.get("workload", "canneal");
    const ScenarioKind scenario =
        scenarioFromName(args.get("scenario", "medium"));
    const std::string path = args.get(
        "out", workload + "." + scenarioName(scenario) + ".map");

    // The mapping every cell of this pair simulates.
    ExperimentContext ctx(optionsFrom(args));
    const std::shared_ptr<const CellPairState> pair =
        ctx.pair(workload, scenario);
    const MemoryMap &map = pair->map();
    saveMapping(path, map);
    std::cout << "wrote " << map.chunks().size() << " chunks ("
              << map.mappedPages() << " pages) to " << path << "\n";
    return 0;
}

int
cmdInspectMap(const Args &args)
{
    if (args.positional().empty())
        ATLB_FATAL("inspect-map needs a mapping file argument");
    const MemoryMap map = loadMapping(args.positional()[0]);
    const Histogram hist = map.contiguityHistogram();
    const DistanceSelection sel = selectAnchorDistance(hist);

    Table table("mapping " + args.positional()[0],
                {"metric", "value"});
    const auto row = [&table](const std::string &k,
                              const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };
    row("chunks", std::to_string(map.chunks().size()));
    row("mapped pages", std::to_string(map.mappedPages()));
    row("smallest chunk", std::to_string(hist.minKey()) + " pages");
    row("largest chunk", std::to_string(hist.maxKey()) + " pages");
    row("median chunk (by pages)",
        std::to_string(hist.weightedQuantile(0.5)) + " pages");
    row("Algorithm 1 anchor distance", std::to_string(sel.distance));
    emit(table, args.has("csv"));
    return 0;
}

std::string
baseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string
hexAddr(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** Parse an address option accepting 0x-prefixed hex or decimal. */
std::uint64_t
addrArg(const Args &args, const std::string &key, std::uint64_t fallback)
{
    const std::string raw = args.get(key, "");
    if (raw.empty())
        return fallback;
    const bool hex = raw.rfind("0x", 0) == 0 || raw.rfind("0X", 0) == 0;
    const std::optional<std::uint64_t> value =
        hex ? parseU64(std::string_view(raw).substr(2), 16) : parseU64(raw);
    if (!value)
        ATLB_FATAL("--{} must be a decimal or 0x-prefixed hex address, "
                   "got '{}'",
                   key, raw);
    return *value;
}

int
cmdTraceImport(const Args &args)
{
    if (args.positional().size() < 3)
        ATLB_FATAL("usage: anchortlb trace import IN OUT "
                   "[--format=auto|plain|lackey|champsim] [--v1] "
                   "[--no-rebase] [--rebase-to=ADDR] "
                   "[--block-capacity=N]");
    const std::string in = args.positional()[1];
    const std::string out = args.positional()[2];

    ImportOptions opts;
    opts.format = parseTextTraceFormat(args.get("format", "auto"));
    // Rebase by default: the grid maps trace-driven footprints at
    // traceBaseVa(), and raw capture addresses rarely land there.
    opts.rebase = !args.has("no-rebase");
    opts.rebase_to = addrArg(args, "rebase-to", traceBaseVa().raw());

    ImportResult result;
    std::uint64_t out_bytes = 0;
    if (args.has("v1")) {
        TraceWriter writer(out);
        result = importTextTrace(in, opts, [&](const MemAccess &a) {
            writer.append(a);
        });
        writer.close();
        out_bytes = 16 + writer.written() * 8;
    } else {
        TraceV2Writer writer(out, args.getU64("block-capacity",
                                              traceV2DefaultBlockCapacity));
        result = importTextTrace(in, opts, [&](const MemAccess &a) {
            writer.append(a);
        });
        writer.close();
        out_bytes = 0; // read back below (index + trailer included)
    }
    if (out_bytes == 0)
        out_bytes = inspectTraceFile(out).file_bytes;

    Table table("import of " + baseName(in), {"metric", "value"});
    const auto row = [&table](const std::string &k, const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };
    row("format", textTraceFormatName(result.format));
    row("accesses", std::to_string(result.accesses));
    row("skipped lines", std::to_string(result.skipped));
    row("rebase shift", std::to_string(result.rebase_shift));
    row("min vaddr", hexAddr(result.min_vaddr));
    row("max vaddr", hexAddr(result.max_vaddr));
    row("output", baseName(out));
    row("output bytes", std::to_string(out_bytes));
    emit(table, args.has("csv"));
    return 0;
}

int
cmdTraceConvert(const Args &args)
{
    if (args.positional().size() < 3)
        ATLB_FATAL("usage: anchortlb trace convert IN OUT [--to=v1|v2] "
                   "[--block-capacity=N]");
    const std::string in = args.positional()[1];
    const std::string out = args.positional()[2];

    const TraceKind in_kind = sniffTraceKind(in);
    std::string to = args.get("to", in_kind == TraceKind::V1 ? "v2"
                                                             : "v1");
    if (to != "v1" && to != "v2")
        ATLB_FATAL("--to must be v1 or v2, not '{}'", to);

    const std::unique_ptr<TraceSource> source = openTraceFile(in);
    std::uint64_t count = 0;
    MemAccess batch[1024];
    std::size_t got;
    if (to == "v2") {
        TraceV2Writer writer(out, args.getU64("block-capacity",
                                              traceV2DefaultBlockCapacity));
        while ((got = source->fill(batch, 1024)) > 0)
            for (std::size_t i = 0; i < got; ++i)
                writer.append(batch[i]);
        writer.close();
        count = writer.written();
    } else {
        TraceWriter writer(out);
        while ((got = source->fill(batch, 1024)) > 0)
            for (std::size_t i = 0; i < got; ++i)
                writer.append(batch[i]);
        writer.close();
        count = writer.written();
    }
    const TraceFileInfo in_info = inspectTraceFile(in);
    const TraceFileInfo out_info = inspectTraceFile(out);
    std::cout << "converted " << count << " accesses: "
              << traceKindName(in_info.kind) << " (" << in_info.file_bytes
              << " bytes) -> " << traceKindName(out_info.kind) << " ("
              << out_info.file_bytes << " bytes)\n";
    return 0;
}

int
cmdTraceInfo(const Args &args)
{
    if (args.positional().size() < 2)
        ATLB_FATAL("usage: anchortlb trace info FILE [--profile|--json]");
    const std::string path = args.positional()[1];
    const TraceFileInfo info = inspectTraceFile(path);

    if (args.has("json")) {
        WorkloadProfiler profiler;
        const std::unique_ptr<TraceSource> source = openTraceFile(path);
        profiler.consume(*source);
        writeWorkloadProfileJson(std::cout, profiler.profile());
        return 0;
    }

    // Only the basename appears in the output so the golden harness can
    // pin it regardless of where the tree is checked out.
    Table table("trace " + baseName(path), {"metric", "value"});
    const auto row = [&table](const std::string &k, const std::string &v) {
        table.beginRow();
        table.cell(k);
        table.cell(v);
    };
    row("format", traceKindName(info.kind));
    row("file bytes", std::to_string(info.file_bytes));
    row("accesses", std::to_string(info.accesses));
    row("bytes/access",
        info.accesses
            ? std::to_string(static_cast<double>(info.file_bytes) /
                             static_cast<double>(info.accesses))
            : std::string("-"));
    row("min vaddr", hexAddr(info.min_vaddr));
    row("max vaddr", hexAddr(info.max_vaddr));
    row("footprint pages",
        std::to_string(info.accesses
                           ? vpnOf(VirtAddr{info.max_vaddr}).raw() -
                                 vpnOf(VirtAddr{info.min_vaddr}).raw() + 1
                           : 0));
    if (info.kind == TraceKind::V2) {
        row("blocks", std::to_string(info.blocks));
        row("block capacity", std::to_string(info.block_capacity));
        // Per-block encoding report: which encoding the writer picked
        // per block, and how many bits each block spends per access
        // (payload bytes including the tag byte over its access
        // count). The histogram is power-of-two bucketed; only
        // occupied buckets print.
        TraceV2Source v2(path);
        std::uint64_t varint_blocks = 0;
        std::uint64_t packed_blocks = 0;
        std::uint64_t payload_bytes = 0;
        Log2Histogram bits_per_access(8);
        for (std::size_t b = 0; b < v2.blockCount(); ++b) {
            const TraceV2BlockStats s = v2.blockStats(b);
            if (s.encoding == traceV2EncodingPacked)
                ++packed_blocks;
            else
                ++varint_blocks;
            payload_bytes += s.bytes;
            bits_per_access.add(8 * s.bytes / s.count);
        }
        row("varint blocks", std::to_string(varint_blocks));
        row("bit-packed blocks", std::to_string(packed_blocks));
        if (info.accesses > 0) {
            row("payload bits/access",
                std::to_string(static_cast<double>(8 * payload_bytes) /
                               static_cast<double>(info.accesses)));
        }
        for (unsigned i = 0; i < bits_per_access.numBuckets(); ++i) {
            if (bits_per_access.bucket(i) == 0)
                continue;
            const std::uint64_t lo = i == 0 ? 0 : (1ULL << i);
            // The top bucket also absorbs clamped outliers.
            const std::string hi =
                i + 1 == bits_per_access.numBuckets()
                    ? "inf"
                    : std::to_string(1ULL << (i + 1));
            row("blocks at [" + std::to_string(lo) + ", " + hi +
                    ") bits/access",
                std::to_string(bits_per_access.bucket(i)));
        }
    }
    if (args.has("profile")) {
        WorkloadProfiler profiler;
        const std::unique_ptr<TraceSource> source = openTraceFile(path);
        profiler.consume(*source);
        const WorkloadProfile p = profiler.profile();
        row("unique pages", std::to_string(p.footprint_pages));
        row("same-page fraction",
            std::to_string(p.pages.same_page_fraction));
        row("contiguity chunks", std::to_string(p.contiguity.samples()));
        row("largest chunk",
            std::to_string(p.contiguity.maxKey()) + " pages");
        row("Algorithm 1 distance",
            std::to_string(p.anchor_distance.distance));
    }
    emit(table, args.has("csv"));
    return 0;
}

int
cmdTraceReplay(const Args &args)
{
    if (args.positional().size() < 2)
        ATLB_FATAL("usage: anchortlb trace replay FILE [--scenario=NAME] "
                   "[--scheme=NAME] [--distance=N]");
    const std::string workload = "trace:" + args.positional()[1];
    const ScenarioKind scenario =
        scenarioFromName(args.get("scenario", "medium"));

    // Route through ExperimentContext so a replayed capture exercises
    // the exact grid path (mapping, page tables) a trace-driven
    // experiment cell uses.
    ExperimentContext ctx(optionsFrom(args));
    const std::vector<SimResult> results =
        runSchemeBatch(ctx, args, workload, scenario);
    const SimResult &base = results.front();

    Table table("trace replay " + baseName(args.positional()[1]) + " / " +
                    scenarioName(scenario),
                {"scheme", "accesses", "walks", "relative%", "CPI",
                 "anchor dist"});
    for (std::size_t i = 1; i < results.size(); ++i) {
        const SimResult &r = results[i];
        table.beginRow();
        table.cell(r.scheme);
        table.cell(r.stats.accesses);
        table.cell(r.misses());
        table.cellPercent(relativeMisses(r.misses(), base.misses()));
        table.cell(r.translationCpi(), 4);
        table.cell(r.anchor_distance
                       ? std::to_string(r.anchor_distance)
                       : std::string("-"));
    }
    emit(table, args.has("csv"));
    return 0;
}

int
cmdMultiProcess(const Args &args)
{
    const ScenarioKind scenario =
        scenarioFromName(args.get("scenario", "medium"));
    const bool csv = args.has("csv");

    // Comma-separated workload list; each becomes one process.
    std::vector<ProcessSpec> procs;
    std::stringstream names(args.get("workloads", "canneal,milc"));
    for (std::string name; std::getline(names, name, ',');)
        if (!name.empty())
            procs.push_back({name, scenario});
    if (procs.empty())
        ATLB_FATAL("--workloads produced no processes");

    MultiProcessOptions opts;
    opts.total_accesses = args.getU64("accesses", opts.total_accesses);
    opts.quantum_accesses = args.getU64("quantum", opts.quantum_accesses);
    opts.seed = args.getU64("seed", opts.seed);
    opts.footprint_scale = args.getDouble("scale", opts.footprint_scale);
    opts.remap_every_quanta =
        args.getU64("remap-every", opts.remap_every_quanta);
    opts.shared_cores = static_cast<unsigned>(
        args.getU64("shared-cores", opts.shared_cores));
    const std::string policy = args.get("policy", "flush");
    if (policy == "asid")
        opts.policy = SwitchPolicy::Asid;
    else if (policy != "flush")
        ATLB_FATAL("unknown switch policy '{}' (try: flush asid)", policy);
    if (args.has("weights")) {
        const std::string list = args.get("weights", "");
        std::stringstream ws(list);
        for (std::string w; std::getline(ws, w, ',');) {
            if (w.empty())
                continue;
            const std::optional<std::uint64_t> weight = parseU64(w);
            if (!weight || *weight > std::numeric_limits<unsigned>::max())
                ATLB_FATAL("--weights must be a comma-separated list of "
                           "unsigned integers, got '{}'",
                           list);
            opts.weights.push_back(static_cast<unsigned>(*weight));
        }
    }

    std::vector<Scheme> schemes;
    if (args.has("scheme"))
        schemes.push_back(schemeFromName(args.get("scheme", "")));
    else
        schemes.assign(std::begin(allSchemes), std::end(allSchemes));

    Table table("multi-process / " + std::string(scenarioName(scenario)) +
                    " / " + policy,
                {"scheme", "walks", "hit%", "switches", "remaps",
                 "shootdown kcyc", "charged CPI"});
    for (const Scheme s : schemes) {
        if (schemeRow(s).layout == TableLayout::AnchorSweep)
            continue; // the oracle sweep has no multi-process analogue
        const MultiProcessResult r = runMultiProcess(s, procs, opts);
        table.beginRow();
        table.cell(std::string(schemeName(s)));
        table.cell(r.stats.page_walks);
        table.cellPercent(r.hitRate());
        table.cell(r.context_switches);
        table.cell(r.remap_epochs);
        table.cell(r.stats.shootdown_cycles / 1000);
        table.cell(r.chargedCpi(), 4);
    }
    emit(table, csv);
    return 0;
}

int
cmdTrace(const Args &args)
{
    if (args.positional().empty())
        ATLB_FATAL("usage: anchortlb trace import|convert|info|replay ...");
    const std::string &sub = args.positional()[0];
    if (sub == "import")
        return cmdTraceImport(args);
    if (sub == "convert")
        return cmdTraceConvert(args);
    if (sub == "info")
        return cmdTraceInfo(args);
    if (sub == "replay")
        return cmdTraceReplay(args);
    ATLB_FATAL("unknown trace subcommand '{}' (try: import convert info "
               "replay)",
               sub);
}

constexpr const char *defaultServeSocket = "/tmp/anchortlb.sock";
constexpr const char *defaultStorePath = "anchortlb.results";

/** Set by SIGINT/SIGTERM; polled by the serve loop. */
volatile std::sig_atomic_t g_serve_stop = 0;

void
serveSignalHandler(int)
{
    g_serve_stop = 1;
}

void
printCounters(const std::string &title,
              const std::vector<std::pair<std::string, std::uint64_t>>
                  &counters,
              bool csv)
{
    Table table(title, {"counter", "value"});
    for (const auto &[name, value] : counters) {
        table.beginRow();
        table.cell(name);
        table.cell(value);
    }
    emit(table, csv);
}

/** Append @p hist's summary + nonzero buckets as "<name>_*" rows. */
void
appendHistogramCounters(
    std::vector<std::pair<std::string, std::uint64_t>> &rows,
    const std::string &name, const Log2Histogram &hist)
{
    rows.emplace_back(name + "_count", hist.samples());
    rows.emplace_back(name + "_sum", hist.sum());
    rows.emplace_back(name + "_p50", hist.quantile(0.5));
    rows.emplace_back(name + "_p99", hist.quantile(0.99));
    rows.emplace_back(name + "_max", hist.maxValue());
    for (unsigned i = 0; i < hist.numBuckets(); ++i) {
        if (hist.bucket(i) == 0)
            continue;
        rows.emplace_back(name + "_le_" +
                              std::to_string(hist.bucketUpperBound(i)),
                          hist.bucket(i));
    }
}

std::vector<std::pair<std::string, std::uint64_t>>
serveSummaryCounters(const SweepServer &server)
{
    const ServerCounters c = server.counters();
    const CellScheduler::Stats ss = server.schedulerStats();
    const ResultStore::Counters sc = server.storeCounters();
    const ResultStore::Info si = server.storeInfo();
    std::vector<std::pair<std::string, std::uint64_t>> rows = {
        {"connections", c.connections},
        {"requests", c.requests},
        {"bad_requests", c.bad_requests},
        {"cells", c.cells},
        {"hits", c.hits},
        {"dedups", c.dedups},
        {"simulations", c.simulations},
        {"cell_errors", c.cell_errors},
        {"queue_peak", c.queue_peak},
        {"admission_stalls", c.admission_stalls},
        {"sched_jobs", ss.enqueued},
        {"sched_pair_builds", ss.pair_builds},
        {"sched_pair_reuses", ss.pair_reuses},
        {"sched_pairs_cached", ss.pairs_cached},
        {"store_lookups", sc.lookups},
        {"store_hits", sc.hits},
        {"store_appends", sc.appends},
        {"store_corrupt_dropped", sc.corrupt_dropped},
        {"store_live_cells", si.live_cells},
        {"store_records", si.records},
        {"store_file_bytes", si.file_bytes},
    };
    appendHistogramCounters(rows, "request_wall_us", c.request_wall_us);
    appendHistogramCounters(rows, "queue_wait_us", c.queue_wait_us);
    return rows;
}

int
cmdServeStop(const Args &args)
{
    const std::string socket = args.get("socket", defaultServeSocket);
    ServeClient client;
    std::string error;
    if (!client.connect(socket, &error))
        ATLB_FATAL("serve stop: {}", error);
    SweepRequest request;
    request.op = WireOp::Shutdown;
    SweepResponse response;
    if (!client.roundTrip(request, response, &error))
        ATLB_FATAL("serve stop: {}", error);
    printCounters("server shut down; final counters", response.counters,
                  args.has("csv"));
    return response.ok ? 0 : 1;
}

int
cmdServe(const Args &args)
{
    if (!args.positional().empty()) {
        if (args.positional()[0] == "stop")
            return cmdServeStop(args);
        ATLB_FATAL("unknown serve subcommand '{}' (try: serve, "
                   "serve stop)",
                   args.positional()[0]);
    }

    ServeOptions options;
    options.socket_path = args.get("socket", defaultServeSocket);
    options.store_path = args.get("store", defaultStorePath);
    options.base = optionsFrom(args);
    options.max_queue_cells = static_cast<std::size_t>(
        args.getU64("queue", options.max_queue_cells));
    options.max_pairs = static_cast<std::size_t>(
        args.getU64("pairs", options.max_pairs));

    SweepServer server(options);
    std::string error;
    if (!server.start(&error))
        ATLB_FATAL("serve: {}", error);

    // ^C / SIGTERM stop the accept loop; the handler may only write a
    // sig_atomic_t, so the server polls the flag.
    server.watchStopFlag(&g_serve_stop);
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    std::cout << "anchortlb serve: listening on " << options.socket_path
              << ", store " << options.store_path << "\n"
              << std::flush;
    server.run();
    printCounters("serve summary", serveSummaryCounters(server),
                  args.has("csv"));
    return 0;
}

/** Comma-separated list option -> vector (empty for absent). */
std::vector<std::string>
listArg(const Args &args, const std::string &key,
        const std::string &fallback)
{
    std::vector<std::string> out;
    std::stringstream ss(args.get(key, fallback));
    for (std::string item; std::getline(ss, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
cmdSubmit(const Args &args, WireOp op)
{
    const std::string socket = args.get("socket", defaultServeSocket);
    const bool csv = args.has("csv");

    SweepRequest request;
    request.op = op;
    // Knob overrides travel only when given explicitly, so by default
    // a client addresses the server's own option set.
    if (args.has("accesses"))
        request.accesses = args.getU64("accesses", 0);
    if (args.has("seed"))
        request.seed = args.getU64("seed", 0);
    if (args.has("scale"))
        request.scale = args.getDouble("scale", 1.0);

    std::vector<Scheme> schemes;
    if (args.has("schemes")) {
        for (const std::string &name : listArg(args, "schemes", ""))
            schemes.push_back(schemeFromName(name));
    } else {
        schemes.assign(std::begin(allSchemes), std::end(allSchemes));
    }
    for (const std::string &workload :
         listArg(args, "workloads", "canneal")) {
        for (const std::string &scenario :
             listArg(args, "scenarios", "medium")) {
            for (const Scheme scheme : schemes) {
                CellRequest cell;
                cell.workload = workload;
                cell.scenario = scenarioFromName(scenario);
                cell.scheme = scheme;
                if (args.has("distance") &&
                    schemeRow(scheme).takesDistance())
                    cell.distance = args.getU64("distance", 0);
                request.cells.push_back(std::move(cell));
            }
        }
    }

    ServeClient client;
    std::string error;
    if (!client.connect(socket, &error))
        ATLB_FATAL("{}: {}", wireOpName(op), error);
    SweepResponse response;
    if (!client.roundTrip(request, response, &error))
        ATLB_FATAL("{}: {}", wireOpName(op), error);
    if (!response.ok)
        ATLB_FATAL("{}: server refused: {}", wireOpName(op),
                   response.error);
    if (response.cells.size() != request.cells.size())
        ATLB_FATAL("{}: server answered {} cells for {} requested",
                   wireOpName(op), response.cells.size(),
                   request.cells.size());

    Table table(std::string(wireOpName(op)) + " via " + socket,
                {"workload", "scenario", "scheme", "status", "walks",
                 "CPI", "anchor dist"});
    for (std::size_t i = 0; i < response.cells.size(); ++i) {
        const CellReply &reply = response.cells[i];
        const CellRequest &cell = request.cells[i];
        table.beginRow();
        table.cell(cell.workload);
        table.cell(std::string(scenarioName(cell.scenario)));
        table.cell(std::string(schemeName(cell.scheme)));
        table.cell(reply.error.empty()
                       ? std::string(cellStatusName(reply.status))
                       : cellStatusName(reply.status) +
                             (": " + reply.error));
        if (reply.status == CellStatus::Miss ||
            reply.status == CellStatus::Error) {
            table.cell(std::string("-"));
            table.cell(std::string("-"));
            table.cell(std::string("-"));
            continue;
        }
        table.cell(reply.result.misses());
        table.cell(reply.result.translationCpi(), 4);
        table.cell(reply.result.anchor_distance
                       ? std::to_string(reply.result.anchor_distance)
                       : std::string("-"));
    }
    emit(table, csv);
    printCounters("server counters", response.counters, csv);

    int exit_code = 0;
    for (const CellReply &reply : response.cells)
        if (reply.status == CellStatus::Error)
            exit_code = 1;
    return exit_code;
}

int
cmdStore(const Args &args)
{
    if (args.positional().empty())
        ATLB_FATAL("usage: anchortlb store info|gc [FILE]");
    const std::string &sub = args.positional()[0];
    const std::string path = args.positional().size() > 1
                                 ? args.positional()[1]
                                 : std::string(defaultStorePath);
    if (sub == "info") {
        ResultStore store(path);
        const ResultStore::Info info = store.info();
        const ResultStore::Counters counters = store.counters();
        printCounters("store " + path,
                      {{"file_bytes", info.file_bytes},
                       {"live_cells", info.live_cells},
                       {"records", info.records},
                       {"corrupt_dropped", counters.corrupt_dropped}},
                      args.has("csv"));
        return 0;
    }
    if (sub == "gc") {
        ResultStore store(path);
        const std::uint64_t evicted = store.gc();
        const ResultStore::Info info = store.info();
        printCounters("store gc " + path,
                      {{"evicted_records", evicted},
                       {"live_cells", info.live_cells},
                       {"file_bytes", info.file_bytes}},
                      args.has("csv"));
        return 0;
    }
    ATLB_FATAL("unknown store subcommand '{}' (try: info gc)", sub);
}

int
cmdHelp()
{
    std::cout <<
        R"(anchortlb - hybrid TLB coalescing simulator (ISCA'17 reproduction)

usage: anchortlb <command> [options]

commands:
  list                 show catalog workloads, scenarios and schemes
  run                  simulate one workload/scenario across schemes
      --workload=NAME --scenario=NAME [--scheme=NAME] [--distance=N]
  sweep-distance       anchor misses at every candidate distance
      --workload=NAME --scenario=NAME
  gen-trace            write a synthetic access trace
      --workload=NAME [--out=FILE]
  replay FILE          drive a trace file (ATLBTRC1 or ATLBTRC2) through
                       one scheme; ideal sweeps every distance
      --workload=NAME --scenario=NAME --scheme=NAME [--distance=N]
  profile [FILE]       page-level profile of a trace file or a
                       synthetic workload (--workload=NAME); --json
                       emits the full workload profile as JSON
  trace import IN OUT  import a text trace (ChampSim / valgrind lackey /
                       plain "R|W addr" lines, auto-detected) to the
                       compressed ATLBTRC2 format (--v1 for ATLBTRC1);
                       rebases to the simulated region base by default
                       (--no-rebase / --rebase-to=ADDR)
      [--format=auto|plain|lackey|champsim] [--block-capacity=N]
  trace convert IN OUT convert between ATLBTRC1 and ATLBTRC2
      [--to=v1|v2] [--block-capacity=N]
  trace info FILE      metadata of a binary trace file; --profile adds
                       footprint/contiguity stats, --json the profile
  trace replay FILE    replay a binary trace through the experiment
                       grid (same path as trace-driven cells)
      [--scenario=NAME] [--scheme=NAME] [--distance=N]
  multiprocess         weighted round-robin multi-process run; compares
                       schemes under a context-switch policy
      --workloads=A,B[,C...] [--scenario=NAME] [--scheme=NAME]
      [--policy=flush|asid] [--quantum=N] [--weights=1,2,...]
      [--remap-every=Q] [--shared-cores=N]
  export-map           write a scenario's VA->PA mapping to a text file
      --workload=NAME --scenario=NAME [--out=FILE]
  inspect-map FILE     chunk statistics + Algorithm 1 pick for a mapping
  serve                sweep service: answer submit/query requests over
                       a unix socket, backed by a content-addressed
                       persistent result store (^C or `serve stop` for
                       a clean shutdown with a counter summary)
      [--socket=PATH] [--store=FILE] [--queue=N] [--pairs=N]
                       (--queue bounds cells admitted across requests;
                       --pairs sizes the shared pair-state cache)
  serve stop           ask a running server to shut down
      [--socket=PATH]
  submit               resolve a cell grid via the service, simulating
                       store misses on the server
      --workloads=A[,B...] [--scenarios=X[,Y...]] [--schemes=S[,T...]]
      [--socket=PATH] [--distance=N] (+ common sweep options below)
  query                like submit, but never simulates: store misses
                       report status "miss"
  store info [FILE]    result-store shape (cells, records, bytes)
  store gc [FILE]      compact the store, dropping superseded records
  help                 this text

common options:
  --accesses=N         trace length (default 2000000 or $ANCHORTLB_ACCESSES)
  --seed=N             RNG seed (default 42)
  --scale=F            footprint scale in (0,1]
  --csv                CSV output instead of ASCII tables

scheme names: base thp cluster cluster-2mb rmm anchor ideal
scenario names: demand eager low medium high max
)";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp();
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "list")
        return cmdList(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep-distance")
        return cmdSweepDistance(args);
    if (cmd == "gen-trace")
        return cmdGenTrace(args);
    if (cmd == "replay")
        return cmdReplay(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "trace")
        return cmdTrace(args);
    if (cmd == "multiprocess")
        return cmdMultiProcess(args);
    if (cmd == "export-map")
        return cmdExportMap(args);
    if (cmd == "inspect-map")
        return cmdInspectMap(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "submit")
        return cmdSubmit(args, WireOp::Submit);
    if (cmd == "query")
        return cmdSubmit(args, WireOp::Query);
    if (cmd == "store")
        return cmdStore(args);
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return cmdHelp();
    std::cerr << "unknown command '" << cmd << "'\n";
    cmdHelp();
    return 1;
}
