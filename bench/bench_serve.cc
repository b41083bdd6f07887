/**
 * @file
 * Sweep-service bench: cold vs warm store sweeps, plus the shared cell
 * scheduler under multiple clients.
 *
 * Phase 1 (store): runs one small grid (3 workloads x {Base, Dynamic}
 * x medium) twice as an ExperimentContext::runCells batch with a
 * persistent ResultStore attached: the cold pass simulates every cell
 * and appends it to the store, the warm pass reopens the store in a
 * fresh context and must answer every cell without simulating. Gates:
 * warm results byte-identical to cold, all warm cells answered from the
 * store, warm at least 5x faster than cold.
 *
 * Phase 2 (scheduler): N clients submit disjoint grids to a live
 * SweepServer, first one-at-a-time (the serial-admission baseline the
 * old per-request sim mutex enforced), then all at once through the
 * shared cell scheduler. Gate concurrent_no_worse_than_serial: the
 * concurrent pass must reach at least 0.95x the serial throughput —
 * the honest floor on a 1-hardware-thread container, where round-robin
 * interleaving can add bookkeeping but no parallel speedup (with more
 * workers the ratio should exceed 1).
 *
 * Phase 3 (fairness): while one client's 24-cell grid is in flight, a
 * 1-cell request from a second client must not queue behind it. Gate
 * small_latency_decoupled: the small request's wall time is at most
 * half the large grid's — round-robin bounds it near two cells' work,
 * while FIFO-behind-the-grid would push it to the full grid time.
 *
 * Results go to stdout as tables and to BENCH_serve.json (or argv[1]).
 *
 * Budget knobs: ANCHORTLB_ACCESSES (default 200k here), ANCHORTLB_SCALE.
 */

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "stats/json_writer.hh"

namespace
{

using namespace atlb;
using namespace atlb::bench;

constexpr const char *kWorkloads[] = {"canneal", "sphinx3", "milc"};
constexpr Scheme kSchemes[] = {Scheme::Base, Scheme::Anchor};
constexpr ScenarioKind kScenario = ScenarioKind::MedContig;

struct Pass
{
    double seconds = 0.0;
    std::uint64_t result_lookups = 0;
    std::uint64_t result_hits = 0;
    std::vector<SimResult> results;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Pass
runGrid(const SimOptions &opts, ResultStore &store)
{
    std::vector<CellSpec> cells;
    for (const char *workload : kWorkloads) {
        for (const Scheme scheme : kSchemes)
            cells.push_back({workload, kScenario, scheme, {}});
    }
    ExperimentContext ctx(opts);
    ctx.setResultCache(&store);
    Pass pass;
    const auto start = std::chrono::steady_clock::now();
    pass.results = ctx.runCells(cells);
    pass.seconds = secondsSince(start);
    pass.result_lookups = ctx.cacheCounters().result_lookups;
    pass.result_hits = ctx.cacheCounters().result_hits;
    return pass;
}

/** A live SweepServer on private socket/store paths. */
struct BenchServer
{
    ServeOptions opts;
    std::unique_ptr<SweepServer> server;
    std::thread thread;

    BenchServer(const std::string &name, const SimOptions &base)
    {
        const auto tmp = std::filesystem::temp_directory_path();
        opts.socket_path = (tmp / ("bench_" + name + ".sock")).string();
        opts.store_path = (tmp / ("bench_" + name + ".results")).string();
        std::filesystem::remove(opts.socket_path);
        std::filesystem::remove(opts.store_path);
        std::filesystem::remove(opts.store_path + ".lock");
        opts.base = base;
        server = std::make_unique<SweepServer>(opts);
        std::string error;
        if (!server->start(&error))
            ATLB_FATAL("bench server start failed: {}", error);
        thread = std::thread([this] { server->run(); });
    }

    ~BenchServer()
    {
        server->requestStop();
        thread.join();
        std::filesystem::remove(opts.store_path);
        std::filesystem::remove(opts.store_path + ".lock");
    }
};

/** Round-trip @p req, fatal on any transport error. */
SweepResponse
roundTrip(const BenchServer &bs, const SweepRequest &req)
{
    ServeClient client;
    std::string error;
    if (!client.connect(bs.opts.socket_path, &error))
        ATLB_FATAL("bench client connect failed: {}", error);
    SweepResponse resp;
    if (!client.roundTrip(req, resp, &error))
        ATLB_FATAL("bench round trip failed: {}", error);
    if (!resp.ok)
        ATLB_FATAL("bench request refused: {}", resp.error);
    return resp;
}

std::uint64_t
counterValue(const SweepResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/**
 * Disjoint per-client grids: every client gets its own slice of the
 * (workload x anchor-distance) product, so total work is additive and
 * no phase can hide behind store hits.
 */
std::vector<SweepRequest>
makeClientGrids(std::size_t clients, std::size_t cells_per_client)
{
    std::vector<CellRequest> cells;
    for (const char *workload : kWorkloads) {
        for (std::uint64_t d = 2; d <= (1u << 16); d <<= 1) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = kScenario;
            cell.scheme = Scheme::Anchor;
            cell.distance = d;
            cells.push_back(cell);
        }
    }
    ATLB_ASSERT(clients * cells_per_client <= cells.size(),
                "bench grid slice exceeds the cell product");
    std::vector<SweepRequest> grids(clients);
    for (std::size_t i = 0; i < clients; ++i) {
        grids[i].op = WireOp::Submit;
        grids[i].cells.assign(
            cells.begin() +
                static_cast<std::ptrdiff_t>(i * cells_per_client),
            cells.begin() +
                static_cast<std::ptrdiff_t>((i + 1) * cells_per_client));
    }
    return grids;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    return a.workload == b.workload && a.scenario == b.scenario &&
           a.scheme == b.scheme &&
           a.anchor_distance == b.anchor_distance &&
           a.stats.accesses == b.stats.accesses &&
           a.stats.l1_hits == b.stats.l1_hits &&
           a.stats.l2_regular_hits == b.stats.l2_regular_hits &&
           a.stats.coalesced_hits == b.stats.coalesced_hits &&
           a.stats.page_walks == b.stats.page_walks &&
           a.stats.translation_cycles == b.stats.translation_cycles &&
           a.stats.shootdowns == b.stats.shootdowns &&
           a.stats.shootdown_cycles == b.stats.shootdown_cycles &&
           std::bit_cast<std::uint64_t>(a.instructions) ==
               std::bit_cast<std::uint64_t>(b.instructions) &&
           a.l2_hit_cycles == b.l2_hit_cycles &&
           a.coalesced_cycles == b.coalesced_cycles &&
           a.walk_cycles == b.walk_cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        opts.accesses = 200'000;

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_serve.json";
    const std::string store_path =
        (std::filesystem::temp_directory_path() / "bench_serve.results")
            .string();
    std::filesystem::remove(store_path);

    printHeader("Result store: cold sweep vs warm (content-addressed)");
    std::cout << opts.accesses << " accesses/cell, scenario "
              << scenarioName(kScenario) << ", store " << store_path
              << "\n\n";

    Pass cold, warm;
    std::uint64_t live_cells = 0, file_bytes = 0, appends = 0;
    {
        ResultStore store(store_path);
        cold = runGrid(opts, store);
    }
    {
        // A fresh context over the reopened store: everything the cold
        // pass computed must come back without simulation.
        ResultStore store(store_path);
        warm = runGrid(opts, store);
        const ResultStore::Info info = store.info();
        live_cells = info.live_cells;
        file_bytes = info.file_bytes;
        appends = store.counters().appends;
    }
    std::filesystem::remove(store_path);

    bool identical = cold.results.size() == warm.results.size();
    for (std::size_t i = 0; identical && i < cold.results.size(); ++i)
        identical = sameResult(cold.results[i], warm.results[i]);

    const std::uint64_t cells = cold.results.size();
    const bool warm_all_hits = warm.result_hits == cells;
    const bool cold_all_misses = cold.result_hits == 0;
    const bool warm_faster = warm.seconds * 5.0 <= cold.seconds;

    Table table("Cold vs warm sweep",
                {"pass", "seconds", "result lookups", "store hits",
                 "simulated"});
    table.beginRow();
    table.cell("cold");
    table.cell(cold.seconds, 3);
    table.cell(cold.result_lookups);
    table.cell(cold.result_hits);
    table.cell(cells - cold.result_hits);
    table.beginRow();
    table.cell("warm");
    table.cell(warm.seconds, 3);
    table.cell(warm.result_lookups);
    table.cell(warm.result_hits);
    table.cell(cells - warm.result_hits);
    table.printAscii(std::cout);
    std::cout << "\nwarm speedup "
              << (warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0)
              << "x, warm hits " << warm.result_hits << "/" << cells
              << ", results identical " << (identical ? "yes" : "no")
              << "\n";

    // ---- Phase 2: serial-admission baseline vs concurrent clients.
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kCellsPerClient = 6;
    const std::vector<SweepRequest> grids =
        makeClientGrids(kClients, kCellsPerClient);

    printHeader("Cell scheduler: serial vs concurrent clients");
    std::cout << kClients << " clients x " << kCellsPerClient
              << " disjoint cells, " << opts.threads
              << " scheduler worker(s)\n\n";

    double serial_seconds = 0.0;
    {
        BenchServer server("serve_serial", opts);
        const auto start = std::chrono::steady_clock::now();
        for (const SweepRequest &grid : grids)
            roundTrip(server, grid);
        serial_seconds = secondsSince(start);
    }

    double concurrent_seconds = 0.0;
    std::uint64_t queue_wait_p99 = 0, queue_peak = 0, admission_stalls = 0;
    {
        BenchServer server("serve_conc", opts);
        std::vector<std::thread> threads;
        threads.reserve(kClients);
        const auto start = std::chrono::steady_clock::now();
        for (const SweepRequest &grid : grids) {
            threads.emplace_back(
                [&server, &grid] { roundTrip(server, grid); });
        }
        for (std::thread &t : threads)
            t.join();
        concurrent_seconds = secondsSince(start);

        SweepRequest stats;
        stats.op = WireOp::Stats;
        const SweepResponse s = roundTrip(server, stats);
        queue_wait_p99 = counterValue(s, "queue_wait_us_p99");
        queue_peak = counterValue(s, "queue_peak");
        admission_stalls = counterValue(s, "admission_stalls");
    }

    const double total_cells =
        static_cast<double>(kClients * kCellsPerClient);
    const double serial_cps =
        serial_seconds > 0.0 ? total_cells / serial_seconds : 0.0;
    const double concurrent_cps =
        concurrent_seconds > 0.0 ? total_cells / concurrent_seconds : 0.0;
    // Floor 0.95x: on one hardware thread the scheduler can only match
    // serial admission (plus noise); with real cores it should win.
    const bool concurrent_no_worse =
        concurrent_cps >= 0.95 * serial_cps;

    Table sched_table("Admission modes",
                      {"mode", "seconds", "cells/s"});
    sched_table.beginRow();
    sched_table.cell("serial");
    sched_table.cell(serial_seconds, 3);
    sched_table.cell(serial_cps, 1);
    sched_table.beginRow();
    sched_table.cell("concurrent");
    sched_table.cell(concurrent_seconds, 3);
    sched_table.cell(concurrent_cps, 1);
    sched_table.printAscii(std::cout);
    std::cout << "\nconcurrent/serial throughput "
              << (serial_cps > 0.0 ? concurrent_cps / serial_cps : 0.0)
              << "x, queue peak " << queue_peak << ", queue wait p99 "
              << queue_wait_p99 << "us, admission stalls "
              << admission_stalls << "\n";

    // ---- Phase 3: a 1-cell request against an in-flight 24-cell grid.
    printHeader("Fairness: small request vs in-flight grid");
    // Two distinct 1-cell requests of comparable cost: one timed on an
    // idle server as the reference, one timed mid-grid. Distinct cells,
    // so both simulate (no store hit can fake the latency).
    const auto one_cell = [](const char *workload) {
        SweepRequest req;
        req.op = WireOp::Submit;
        CellRequest cell;
        cell.workload = workload;
        cell.scenario = ScenarioKind::HighContig;
        cell.scheme = Scheme::Base;
        req.cells = {cell};
        return req;
    };
    const SweepRequest small_idle = one_cell("milc");
    const SweepRequest small = one_cell("canneal");
    SweepRequest large;
    large.op = WireOp::Submit;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (std::uint64_t d = 2; d <= (1u << 12); d <<= 1) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = kScenario;
            cell.scheme = Scheme::Anchor;
            cell.distance = d;
            large.cells.push_back(cell);
        }
    }

    double small_idle_seconds = 0.0;
    double small_during_seconds = 0.0;
    double large_seconds = 0.0;
    {
        BenchServer server("serve_fair", opts);
        {
            const auto start = std::chrono::steady_clock::now();
            roundTrip(server, small_idle);
            small_idle_seconds = secondsSince(start);
        }

        double large_elapsed = 0.0;
        std::thread big([&server, &large, &large_elapsed] {
            const auto start = std::chrono::steady_clock::now();
            roundTrip(server, large);
            large_elapsed = secondsSince(start);
        });

        // Wait until the grid occupies the scheduler.
        SweepRequest stats;
        stats.op = WireOp::Stats;
        for (int i = 0; i < 1000; ++i) {
            const SweepResponse s = roundTrip(server, stats);
            if (counterValue(s, "sched_depth") +
                    counterValue(s, "sched_running") >
                0)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        const auto start = std::chrono::steady_clock::now();
        roundTrip(server, small);
        small_during_seconds = secondsSince(start);
        big.join();
        large_seconds = large_elapsed;
    }
    // Round-robin bounds the small request near two cells of the
    // grid's work; queueing behind all 24 cells would cost the full
    // grid time. Half the grid time separates the two regimes with
    // plenty of slack either way.
    const bool small_decoupled =
        small_during_seconds <= 0.5 * large_seconds;

    std::cout << "small idle " << small_idle_seconds << "s, during grid "
              << small_during_seconds << "s, grid " << large_seconds
              << "s, decoupled " << (small_decoupled ? "yes" : "no")
              << "\n";

    std::ofstream out(json_path);
    if (!out)
        ATLB_FATAL("cannot write '{}'", json_path);
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "bench_serve");
    json.field("scenario", scenarioName(kScenario));
    json.field("accesses_per_cell", opts.accesses);
    json.field("footprint_scale", opts.footprint_scale);
    json.field("cells", cells);
    json.field("cold_seconds", cold.seconds);
    json.field("warm_seconds", warm.seconds);
    json.field("cold_store_hits", cold.result_hits);
    json.field("warm_store_hits", warm.result_hits);
    json.field("store_live_cells", live_cells);
    json.field("store_file_bytes", file_bytes);
    json.field("store_appends_during_warm", appends);
    json.field("cold_all_misses", cold_all_misses);
    json.field("warm_all_hits", warm_all_hits);
    json.field("results_identical", identical);
    json.field("warm_store_faster_than_cold", warm_faster);
    json.field("clients", static_cast<std::uint64_t>(kClients));
    json.field("cells_per_client",
               static_cast<std::uint64_t>(kCellsPerClient));
    json.field("scheduler_threads",
               static_cast<std::uint64_t>(opts.threads));
    json.field("serial_seconds", serial_seconds);
    json.field("concurrent_seconds", concurrent_seconds);
    json.field("serial_cells_per_sec", serial_cps);
    json.field("concurrent_cells_per_sec", concurrent_cps);
    json.field("queue_peak", queue_peak);
    json.field("queue_wait_us_p99", queue_wait_p99);
    json.field("admission_stalls", admission_stalls);
    json.field("large_grid_seconds", large_seconds);
    json.field("small_idle_seconds", small_idle_seconds);
    json.field("small_during_grid_seconds", small_during_seconds);
    json.field("concurrent_no_worse_than_serial", concurrent_no_worse);
    json.field("small_latency_decoupled", small_decoupled);
    json.endObject();
    std::cout << "wrote " << json_path << "\n";

    if (!warm_all_hits || !cold_all_misses || !identical) {
        std::cerr << "bench_serve: store round-trip property violated\n";
        return 1;
    }
    if (!concurrent_no_worse) {
        std::cerr << "bench_serve: concurrent admission lost throughput "
                     "vs serial\n";
        return 1;
    }
    if (!small_decoupled) {
        std::cerr << "bench_serve: 1-cell request queued behind the "
                     "large grid\n";
        return 1;
    }
    return 0;
}
