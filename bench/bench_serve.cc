/**
 * @file
 * Sweep-service bench: cold vs warm store sweeps, plus the shared cell
 * scheduler under multiple clients.
 *
 * Phase 1 (store): submits one small grid (3 workloads x {Base,
 * Dynamic} x medium) twice to a live SweepServer. The cold server
 * simulates every cell and appends it to its store; it is then
 * destroyed, which releases the store's lock, and a fresh server over
 * the same store file must answer every cell without simulating. Hits
 * come from the replies' cell statuses and the store's shape from the
 * warm reply's counters. Gates: warm results byte-identical to cold
 * (their encodeSimResult bytes), all warm cells answered from the
 * store, no cold cell answered from it, warm at least 5x faster than
 * cold.
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
 * Phases 2 and 3 time a few milliseconds of work each, so one
 * descheduled worker can decide a single pass. Each runs kRepeats
 * times, every repeat on a fresh server over a fresh store (so every
 * cell still simulates), and both gates read the medians. The JSON
 * holds the medians under the phases' field names and each repeat's
 * seconds in the *_runs arrays.
 *
 * Results go to stdout as tables and to BENCH_serve.json (or argv[1]).
 *
 * Budget knobs: ANCHORTLB_ACCESSES (default 200k here), ANCHORTLB_SCALE.
 */

#include <algorithm>
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

/** Timed repeats of phases 2 and 3; their gates read the medians. */
constexpr int kRepeats = 5;

/** Median of @p values (the upper one of an even count). */
template <typename T>
T
median(std::vector<T> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
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
        start();
    }

    ~BenchServer()
    {
        stop();
        std::filesystem::remove(opts.store_path);
        std::filesystem::remove(opts.store_path + ".lock");
    }

    /**
     * Destroy the server, which releases its store's lock, and start a
     * fresh one that replays the same store file.
     */
    void restart()
    {
        stop();
        start();
    }

  private:
    void start()
    {
        server = std::make_unique<SweepServer>(opts);
        std::string error;
        if (!server->start(&error))
            ATLB_FATAL("bench server start failed: {}", error);
        thread = std::thread([this] { server->run(); });
    }

    void stop()
    {
        server->requestStop();
        thread.join();
        server.reset();
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

/** One submit of the phase-1 grid, timed from connect to reply. */
struct Pass
{
    double seconds = 0.0;
    std::uint64_t store_hits = 0; //!< reply cells marked Hit
    std::uint64_t computed = 0;   //!< reply cells marked Computed
    SweepResponse reply;
};

Pass
runGrid(const BenchServer &bs)
{
    SweepRequest req;
    req.op = WireOp::Submit;
    for (const char *workload : kWorkloads) {
        for (const Scheme scheme : kSchemes)
            req.cells.push_back(CellRequest{workload, kScenario, scheme, {}});
    }
    Pass pass;
    const auto start = std::chrono::steady_clock::now();
    pass.reply = roundTrip(bs, req);
    pass.seconds = secondsSince(start);
    for (const CellReply &cell : pass.reply.cells) {
        pass.store_hits += cell.status == CellStatus::Hit ? 1 : 0;
        pass.computed += cell.status == CellStatus::Computed ? 1 : 0;
    }
    return pass;
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

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        opts.accesses = 200'000;

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_serve.json";

    printHeader("Result store: cold sweep vs warm (content-addressed)");
    Pass cold, warm;
    {
        BenchServer server("serve_store", opts);
        std::cout << opts.accesses << " accesses/cell, scenario "
                  << scenarioName(kScenario) << ", store "
                  << server.opts.store_path << "\n\n";
        cold = runGrid(server);
        // A fresh server over the reopened store: everything the cold
        // pass computed must come back without simulation.
        server.restart();
        warm = runGrid(server);
    }

    const std::vector<CellReply> &cold_cells = cold.reply.cells;
    const std::vector<CellReply> &warm_cells = warm.reply.cells;
    bool identical = cold_cells.size() == warm_cells.size();
    for (std::size_t i = 0; identical && i < cold_cells.size(); ++i) {
        identical = encodeSimResult(cold_cells[i].result) ==
                    encodeSimResult(warm_cells[i].result);
    }

    const std::uint64_t cells = cold_cells.size();
    const bool warm_all_hits = warm.store_hits == cells;
    const bool cold_all_misses = cold.store_hits == 0;
    const bool warm_faster = warm.seconds * 5.0 <= cold.seconds;

    Table table("Cold vs warm sweep",
                {"pass", "seconds", "store hits", "computed"});
    table.beginRow();
    table.cell("cold");
    table.cell(cold.seconds, 3);
    table.cell(cold.store_hits);
    table.cell(cold.computed);
    table.beginRow();
    table.cell("warm");
    table.cell(warm.seconds, 3);
    table.cell(warm.store_hits);
    table.cell(warm.computed);
    table.printAscii(std::cout);
    std::cout << "\nwarm speedup "
              << (warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0)
              << "x, warm hits " << warm.store_hits << "/" << cells
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

    std::vector<double> serial_runs, concurrent_runs;
    std::vector<std::uint64_t> queue_wait_p99_runs, queue_peak_runs,
        admission_stall_runs;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
        {
            BenchServer server("serve_serial", opts);
            const auto start = std::chrono::steady_clock::now();
            for (const SweepRequest &grid : grids)
                roundTrip(server, grid);
            serial_runs.push_back(secondsSince(start));
        }

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
        concurrent_runs.push_back(secondsSince(start));

        SweepRequest stats;
        stats.op = WireOp::Stats;
        const SweepResponse s = roundTrip(server, stats);
        queue_wait_p99_runs.push_back(counterValue(s, "queue_wait_us_p99"));
        queue_peak_runs.push_back(counterValue(s, "queue_peak"));
        admission_stall_runs.push_back(counterValue(s, "admission_stalls"));
    }
    const double serial_seconds = median(serial_runs);
    const double concurrent_seconds = median(concurrent_runs);
    const std::uint64_t queue_wait_p99 = median(queue_wait_p99_runs);
    const std::uint64_t queue_peak = median(queue_peak_runs);
    const std::uint64_t admission_stalls = median(admission_stall_runs);

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
    std::cout << "\nmedians of " << kRepeats
              << " repeats; concurrent/serial throughput "
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

    std::vector<double> small_idle_runs, small_during_runs, large_runs;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
        BenchServer server("serve_fair", opts);
        {
            const auto start = std::chrono::steady_clock::now();
            roundTrip(server, small_idle);
            small_idle_runs.push_back(secondsSince(start));
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
        small_during_runs.push_back(secondsSince(start));
        big.join();
        large_runs.push_back(large_elapsed);
    }
    const double small_idle_seconds = median(small_idle_runs);
    const double small_during_seconds = median(small_during_runs);
    const double large_seconds = median(large_runs);
    // Round-robin bounds the small request near two cells of the
    // grid's work; queueing behind all 24 cells would cost the full
    // grid time. Half the grid time separates the two regimes with
    // plenty of slack either way.
    const bool small_decoupled =
        small_during_seconds <= 0.5 * large_seconds;

    std::cout << "medians of " << kRepeats << " repeats: small idle "
              << small_idle_seconds << "s, during grid "
              << small_during_seconds << "s, grid " << large_seconds
              << "s, decoupled " << (small_decoupled ? "yes" : "no")
              << "\n";

    std::ofstream out(json_path);
    if (!out)
        ATLB_FATAL("cannot write '{}'", json_path);
    JsonWriter json(out);
    const auto runs = [&json](const std::string &name,
                              const std::vector<double> &seconds) {
        json.key(name);
        json.beginArray();
        for (const double s : seconds)
            json.value(s);
        json.endArray();
    };
    json.beginObject();
    json.field("bench", "bench_serve");
    json.field("scenario", scenarioName(kScenario));
    json.field("accesses_per_cell", opts.accesses);
    json.field("footprint_scale", opts.footprint_scale);
    json.field("cells", cells);
    json.field("cold_seconds", cold.seconds);
    json.field("warm_seconds", warm.seconds);
    json.field("cold_store_hits", cold.store_hits);
    json.field("warm_store_hits", warm.store_hits);
    json.field("store_live_cells",
               counterValue(warm.reply, "store_live_cells"));
    json.field("store_file_bytes",
               counterValue(warm.reply, "store_file_bytes"));
    json.field("store_appends_during_warm",
               counterValue(warm.reply, "store_appends"));
    json.field("cold_all_misses", cold_all_misses);
    json.field("warm_all_hits", warm_all_hits);
    json.field("results_identical", identical);
    json.field("warm_store_faster_than_cold", warm_faster);
    json.field("clients", static_cast<std::uint64_t>(kClients));
    json.field("cells_per_client",
               static_cast<std::uint64_t>(kCellsPerClient));
    json.field("scheduler_threads",
               static_cast<std::uint64_t>(opts.threads));
    json.field("repeats", static_cast<std::uint64_t>(kRepeats));
    json.field("serial_seconds", serial_seconds);
    json.field("concurrent_seconds", concurrent_seconds);
    runs("serial_seconds_runs", serial_runs);
    runs("concurrent_seconds_runs", concurrent_runs);
    json.field("serial_cells_per_sec", serial_cps);
    json.field("concurrent_cells_per_sec", concurrent_cps);
    json.field("queue_peak", queue_peak);
    json.field("queue_wait_us_p99", queue_wait_p99);
    json.field("admission_stalls", admission_stalls);
    json.field("large_grid_seconds", large_seconds);
    json.field("small_idle_seconds", small_idle_seconds);
    json.field("small_during_grid_seconds", small_during_seconds);
    runs("large_grid_seconds_runs", large_runs);
    runs("small_idle_seconds_runs", small_idle_runs);
    runs("small_during_grid_seconds_runs", small_during_runs);
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
