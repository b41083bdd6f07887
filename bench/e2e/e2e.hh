/**
 * @file
 * Shared declarations of bench_e2e, the repository's end-to-end
 * benchmark (README.md in this directory).
 *
 * bench_e2e starts the real `anchortlb serve` binary as a child process
 * and drives one of four workloads through it from this process:
 *
 *   fig9-cold     the Fig. 9 grid, a fresh seed (so a cold store) per pass
 *   fig9-warm     repeated warm reads of a store prepared with 8 grids
 *   interactive   open-loop single-cell submits while a grid runs
 *   trace-replay  a grid over ATLBTRC2 trace files
 *
 * End-to-end metrics come from that untraced run. The --trace run adds
 * a serial, in-process pass over the workload's first requests that
 * times each layer through its public functions (layers.cc); nothing
 * is traced inside the program itself.
 */

#ifndef ANCHORTLB_BENCH_E2E_E2E_HH
#define ANCHORTLB_BENCH_E2E_E2E_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "serve/wire.hh"
#include "sim/experiment.hh"

namespace atlb::e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** CPU seconds the calling thread has used. */
double threadCpuSeconds();

/** Independent seed number @p k of stream @p stream under @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t k);

/** Median / nearest-rank quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

/**
 * Every knob of one benchmark budget. The full budget is what the
 * benchmark measures; the smoke budget is the golden-sized one the
 * ctest smoke runs under every build flavour.
 */
struct Budget
{
    const char *name = "full";
    /** Timed-phase length; passes repeat until it has elapsed. */
    double seconds = 15.0;
    /** Timed grid passes run at least this many times. */
    unsigned min_passes = 3;
    /** Server starts, spread over the timed phase, whose median is setup_s. */
    unsigned setup_starts = 50;

    std::uint64_t grid_accesses = 100'000; //!< fig9-cold per cell
    double grid_scale = 0.1;               //!< fig9-cold and fig9-warm

    unsigned warm_seeds = 8;
    std::uint64_t warm_accesses = 20'000;

    std::uint64_t interactive_accesses = 100'000;
    double interactive_scale = 1.0;
    double fg_rate = 50.0; //!< foreground submits per second
    unsigned fg_connections = 2;
    /** The background grid is due once per period. */
    double bg_period_s = 2.0;
    /** Foreground requests the traced pass replays. */
    unsigned fg_traced = 250;

    std::uint64_t trace_accesses = 1'000'000;
    double trace_scale = 0.25;

    /** One cell in this many is re-run in process after timing. */
    unsigned check_every = 16;
    /** One traced cell in this many is also run untraced. */
    unsigned untraced_every = 8;
};

Budget fullBudget();
Budget smokeBudget();

/** One request as the benchmark builds it: knobs plus cells. */
struct Request
{
    std::uint64_t accesses = 0;
    std::uint64_t seed = 0;
    double scale = 1.0;
    std::vector<CellRequest> cells;

    /** The SimOptions the server resolves for this request. */
    SimOptions options() const;
    SweepRequest wire() const;
};

/** A child process of the benchmark (anchortlb tool or server). */
class Child
{
  public:
    Child() = default;
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /**
     * Start @p argv[0] with @p argv. The child's environment is ours
     * minus every ANCHORTLB_* knob except ANCHORTLB_SIMD, plus
     * ANCHORTLB_THREADS = @p threads when non-zero, so inherited knobs
     * can never change what the server computes. With @p pipe_stdout
     * the child's stdout is readable through readLine(); otherwise it
     * goes to /dev/null.
     */
    bool start(const std::vector<std::string> &argv, unsigned threads,
               bool pipe_stdout, std::string *error);

    /** Next stdout line; false on EOF or after @p timeout_s. */
    bool readLine(std::string &line, double timeout_s);

    /** Wait for exit; true when it exited with status 0. */
    bool wait();

    /** SIGKILL (if still running) and reap. */
    void kill();

    pid_t pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::string buf_;
};

/** Run an anchortlb subcommand to completion; false on failure. */
bool runTool(const std::string &anchortlb,
             const std::vector<std::string> &args);

/** A running `anchortlb serve` on socket "serve.sock" in the cwd. */
class Server
{
  public:
    /**
     * Start the server over @p store with @p threads workers, listening
     * on @p socket; returns once it listens. @p setup_cpu_s receives the
     * CPU seconds the server used from spawn to listening.
     */
    bool start(const std::string &anchortlb, const std::string &store,
               unsigned threads, double &setup_cpu_s, std::string *error,
               const std::string &socket = socketPath());

    /** Peak resident set (VmHWM) of the server so far, in MB. */
    double peakRssMb() const;

    /** User plus system CPU seconds the server has used so far. */
    double cpuSeconds() const;

    /** The server's counters, from a `stats` request. */
    std::vector<std::pair<std::string, std::uint64_t>> stats();

    /** Ask the server to shut down and reap it; true on a clean stop. */
    bool stop();

    /** SIGKILL and reap. */
    void kill()
    {
        child_.kill();
        running_ = false;
    }

    /** The socket of the server under test. */
    static const char *socketPath() { return "serve.sock"; }

  private:
    Child child_;
    std::string socket_;
    bool running_ = false;
};

/** One reply cell kept for the post-timing in-process check. */
struct CellCheck
{
    SimOptions options;
    CellRequest cell;
    std::uint64_t key = 0;
    std::string bytes; //!< encodeSimResult of the reply
};

/** What one workload run measured and checked. */
struct Outcome
{
    // End-to-end, from the untraced run. They are CPU time: on a host
    // whose hypervisor steals a varying share of the CPUs, wall time
    // measures the neighbours as much as the program (README.md).
    double setup_s = 0.0;      //!< median CPU seconds, spawn to listening
    double server_cpu_s = 0.0; //!< server CPU seconds in the timed phase
    /** CPU seconds the client threads spent in timed round trips. */
    double client_cpu_s = 0.0;
    /** Simulated accesses the timed replies stand for. */
    double answered_accesses = 0.0;

    // Wall-clock readings of the same run, reported per layer (client.*)
    // without a bound.
    std::vector<double> pass_s;      //!< grid passes
    std::vector<double> request_ms;  //!< request latencies
    std::vector<double> lateness_ms; //!< open loop only
    double peak_rss_mb = 0.0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Reply digest over the workload's deterministic part. */
    std::uint64_t digest = fnv1aOffsetBasis;
    std::vector<CellCheck> checks;
    /** Server `stats` counters read at the end of the timed phase. */
    std::vector<std::pair<std::string, std::uint64_t>> server_stats;

    /** Requests the traced pass replays, and over which store. */
    std::vector<Request> traced;
    std::string traced_store;

    void fail(std::string why, std::uint64_t cells = 1);
};

/** Everything a workload run needs. */
struct Context
{
    Budget budget;
    std::uint64_t seed = 42;
    std::string anchortlb;
    unsigned server_threads = 1;
};

/** The four workloads: name, why it exists, and how it runs. */
struct Workload
{
    const char *name;
    const char *why;
    Outcome (*run)(const Context &ctx);
};

const std::vector<Workload> &workloads();

/** Named per-layer metrics of a traced pass (layers.cc). */
struct LayerReport
{
    std::vector<std::pair<std::string, double>> metrics;
    std::uint64_t mismatches = 0; //!< traced != untraced runCellJob
    std::uint64_t sampled = 0;
};

/**
 * Replay @p outcome.traced serially in process, mirroring the server's
 * per-request path and runCellJob, and time every layer. Spans go to
 * @p spans_path as JSON lines.
 */
LayerReport traceLayers(const Context &ctx, const Outcome &outcome,
                        const std::string &spans_path);

/** FNV-1a fold of one reply cell's encodeSimResult bytes. */
void digestReply(std::uint64_t &digest, const std::string &bytes);

} // namespace atlb::e2e

#endif // ANCHORTLB_BENCH_E2E_E2E_HH
