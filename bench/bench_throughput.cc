/**
 * @file
 * Cell-engine throughput bench: one worker vs ANCHORTLB_THREADS.
 *
 * Runs one scenario's full workload x scheme grid twice through
 * ExperimentContext::runCells — once with threads = 1 and once with the
 * configured worker count — and reports wall-clock time and simulated
 * accesses per second for both, plus the speedup. A miss-count checksum
 * cross-checks that both runs produced identical results (the engine's
 * determinism guarantee). Results are written as machine-readable JSON to
 * BENCH_throughput.json in the working directory (or argv[1]).
 *
 * Budget knobs: ANCHORTLB_ACCESSES (default 200k here, small enough for
 * a CI smoke run), ANCHORTLB_SCALE, ANCHORTLB_THREADS.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "os/distance_selector.hh"
#include "sim/parallel_runner.hh"
#include "stats/json_writer.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;
using namespace atlb::bench;

struct Measurement
{
    unsigned threads = 1;
    double seconds = 0.0;
    double accesses_per_sec = 0.0;
    std::uint64_t miss_checksum = 0;
};

std::vector<CellJob>
throughputJobs(ScenarioKind scenario)
{
    std::vector<CellJob> jobs;
    for (const auto &workload : paperWorkloadNames())
        for (const Scheme s : comparedSchemes())
            jobs.push_back({workload, scenario, s, {}});
    return jobs;
}

/** Simulations actually run: an AnchorSweep cell runs every distance. */
std::uint64_t
simulatedAccesses(const std::vector<CellJob> &jobs, std::uint64_t per_cell)
{
    const std::uint64_t fanout = candidateDistances().size();
    std::uint64_t leaves = 0;
    for (const CellJob &job : jobs)
        leaves += schemeRow(job.scheme).layout == TableLayout::AnchorSweep
                      ? fanout
                      : 1;
    return leaves * per_cell;
}

Measurement
measure(SimOptions opts, unsigned threads,
        const std::vector<CellJob> &jobs)
{
    opts.threads = threads;

    // The context's lifetime is timed too: its workers, pair builds
    // and teardown are part of what a grid costs.
    const auto start = std::chrono::steady_clock::now();
    const std::vector<SimResult> results =
        ExperimentContext(opts).runCells(jobs);
    const auto stop = std::chrono::steady_clock::now();

    Measurement m;
    m.threads = threads;
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.accesses_per_sec =
        static_cast<double>(simulatedAccesses(jobs, opts.accesses)) /
        m.seconds;
    for (const SimResult &res : results)
        m.miss_checksum += res.misses();
    return m;
}

void
emitMeasurement(JsonWriter &json, const std::string &name,
                const Measurement &m)
{
    json.key(name);
    json.beginObject();
    json.field("threads", m.threads);
    json.field("seconds", m.seconds);
    json.field("accesses_per_sec", m.accesses_per_sec);
    json.endObject();
}

void
emitJson(const std::string &path, const SimOptions &opts,
         ScenarioKind scenario, std::size_t cells, const Measurement &serial,
         const Measurement &parallel)
{
    std::ofstream out(path);
    if (!out)
        ATLB_FATAL("cannot write '{}'", path);
    // CI greps this file for '"results_identical": true' — JsonWriter's
    // `"key": value` layout is part of that contract.
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "bench_throughput");
    json.field("scenario", scenarioName(scenario));
    json.field("cells", static_cast<std::uint64_t>(cells));
    json.field("accesses_per_cell", opts.accesses);
    json.field("footprint_scale", opts.footprint_scale);
    json.field("hardware_concurrency",
               static_cast<std::uint64_t>(hardwareThreadCount()));
    emitMeasurement(json, "serial", serial);
    emitMeasurement(json, "parallel", parallel);
    json.field("speedup", serial.seconds / parallel.seconds);
    json.field("results_identical",
               serial.miss_checksum == parallel.miss_checksum);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        opts.accesses = 200'000;

    const ScenarioKind scenario = ScenarioKind::MedContig;
    const std::vector<CellJob> jobs = throughputJobs(scenario);
    const unsigned threads = opts.threads;
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_throughput.json";

    printHeader("Cell-engine throughput: 1 vs " +
                std::to_string(threads) + " thread(s)");
    std::cout << "grid: " << paperWorkloadNames().size()
              << " workloads x " << comparedSchemes().size()
              << " schemes, scenario " << scenarioName(scenario) << ", "
              << opts.accesses << " accesses/cell\n";

    const Measurement serial = measure(opts, 1, jobs);
    const Measurement parallel = measure(opts, threads, jobs);

    if (serial.miss_checksum != parallel.miss_checksum) {
        ATLB_FATAL("parallel run diverged from serial run "
                   "(miss checksums differ)");
    }

    std::cout << "serial:   " << serial.seconds << " s, "
              << static_cast<std::uint64_t>(serial.accesses_per_sec)
              << " accesses/s\n"
              << "parallel: " << parallel.seconds << " s, "
              << static_cast<std::uint64_t>(parallel.accesses_per_sec)
              << " accesses/s (threads=" << parallel.threads << ")\n"
              << "speedup:  " << serial.seconds / parallel.seconds
              << "x (hardware concurrency " << hardwareThreadCount()
              << ")\n";

    emitJson(json_path, opts, scenario, jobs.size(), serial, parallel);
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
