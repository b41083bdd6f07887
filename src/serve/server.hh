/**
 * @file
 * Long-lived sweep server over a unix-domain socket.
 *
 * `anchortlb serve` binds a SOCK_STREAM unix socket and answers the
 * line-delimited JSON protocol of wire.hh. Each connection gets a
 * thread; each submit request resolves its cells in three tiers:
 *
 *   1. store hit   — the persistent ResultStore already holds the
 *                    cell's content address: answered with zero
 *                    simulation work.
 *   2. in-flight   — an identical cell is being computed by another
 *      dedup         request right now: this request waits for that
 *                    result instead of recomputing it.
 *   3. computed    — the remaining misses are claimed, sorted by
 *                    (workload, scenario) for pair-state locality,
 *                    and submitted cell-by-cell to the shared
 *                    CellScheduler (sim/parallel_runner.hh); each
 *                    cell is appended to the store and published to
 *                    its Inflight waiters the moment it completes.
 *
 * There is no per-request simulation barrier: all connections share
 * one fixed worker pool (sized by SimOptions::threads) that
 * round-robins across requests, so a 1-cell request completes while a
 * 500-cell grid is in flight. Admission is bounded
 * (ServeOptions::max_queue_cells) — oversized grids block on submit
 * and admit incrementally (counted as admission stalls). Expensive
 * per-(workload, scenario) pair state is owned by the scheduler in a
 * pinned LRU shared across requests (ServeOptions::max_pairs).
 */

#ifndef ANCHORTLB_SERVE_SERVER_HH
#define ANCHORTLB_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/result_store.hh"
#include "serve/wire.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "stats/histogram.hh"

namespace atlb
{

/** Server configuration. */
struct ServeOptions
{
    std::string socket_path;
    std::string store_path;
    /** Base SimOptions; requests may override the sweep knobs. */
    SimOptions base;
    /** Admission bound: max cells queued across all requests. */
    std::size_t max_queue_cells = defaultQueueCells;
    /** Scheduler-owned (workload, scenario) pair-state cache size. */
    std::size_t max_pairs = defaultPairBudget;
};

/** Request-handling counters, reported on every reply. */
struct ServerCounters
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t cells = 0;
    std::uint64_t hits = 0;        //!< cells answered from the store
    std::uint64_t dedups = 0;      //!< cells that joined an in-flight run
    std::uint64_t simulations = 0; //!< cells actually simulated
    std::uint64_t cell_errors = 0; //!< invalid cells refused
    std::uint64_t queue_peak = 0;  //!< scheduler depth high-water mark
    /** submit() calls that blocked on the bounded admission queue. */
    std::uint64_t admission_stalls = 0;
    /** Per-request wall time, microseconds (every decoded request). */
    Log2Histogram request_wall_us{33};
    /** Per-cell queue wait, microseconds (claimed cells only). */
    Log2Histogram queue_wait_us{33};
};

/** The sweep service (one instance per `anchortlb serve`). */
class SweepServer
{
  public:
    explicit SweepServer(ServeOptions options);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Bind + listen; false with @p error on failure. */
    bool start(std::string *error);

    /**
     * Accept/serve until requestStop() (or a shutdown request).
     * Joins every connection thread and unlinks the socket before
     * returning.
     */
    void run();

    /** Ask run() to wind down. */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /**
     * Also observe @p flag as a stop request. A SIGINT/SIGTERM handler
     * can only safely write a sig_atomic_t; the CLI points the server
     * at its flag and run() polls it alongside the internal one.
     */
    void watchStopFlag(const volatile std::sig_atomic_t *flag)
    {
        stop_flag_ = flag;
    }

    ServerCounters counters() const;
    ResultStore::Counters storeCounters() const;
    ResultStore::Info storeInfo() const;
    CellScheduler::Stats schedulerStats() const;

  private:
    /** A computation another request can wait on. */
    struct Inflight
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        SimResult result;
    };

    void handleConnection(int fd);
    std::string handleLine(const std::string &line);
    SweepResponse handleRequest(const SweepRequest &request);
    void resolveCells(const SweepRequest &request, SweepResponse &resp);
    void appendCounters(SweepResponse &resp) const;

    bool stopping() const
    {
        return stop_.load(std::memory_order_relaxed) ||
               (stop_flag_ && *stop_flag_ != 0);
    }

    ServeOptions options_;
    ResultStore store_;
    /** Shared cross-request simulation pool (sim/parallel_runner.hh). */
    CellScheduler scheduler_;
    std::atomic<bool> stop_{false};
    const volatile std::sig_atomic_t *stop_flag_ = nullptr;
    int listen_fd_ = -1;

    mutable std::mutex state_m_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>>
        inflight_;
    ServerCounters counters_;

    std::mutex threads_m_;
    std::vector<std::thread> threads_;
};

} // namespace atlb

#endif // ANCHORTLB_SERVE_SERVER_HH
