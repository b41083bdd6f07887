/**
 * @file
 * The cell engine: the one way any experiment cell runs.
 *
 * The paper's evaluation is a design-space sweep of cells (workload x
 * mapping scenario x scheme). A cell is one job: runCellJob is its
 * complete body over shared per-(workload, scenario) state
 * (CellPairState), and CellScheduler is the one executor — a fixed
 * worker pool shared by every ticket that submits jobs to it.
 * ExperimentContext (experiment.hh) is a thin synchronous facade over
 * one scheduler it owns, which the benches, the examples and the CLI
 * use; `anchortlb serve` shares one scheduler across its connections.
 *
 *  - Fairness: tickets are served in FIFO admission order; workers
 *    round-robin one job at a time across the tickets that have work,
 *    so small requests interleave with (not queue behind) large grids.
 *  - Backpressure: at most max_queue_cells jobs may be queued across
 *    all tickets. submit() blocks until space frees up (counted as an
 *    admission stall), so an oversized grid admits incrementally
 *    instead of ballooning memory — and cannot deadlock, because
 *    workers only ever drain the queue.
 *  - Shared pair state: CellPairState (mapping, lazily built page
 *    tables and access stream) is owned by the scheduler in a pinned
 *    LRU cache keyed by the pair, the SimOptions fields its
 *    construction reads (seed, footprint_scale) and the trace file's
 *    content hash. Jobs from different tickets reuse one build;
 *    entries pinned by a running job are never evicted.
 *  - Latency decoupling: each job's completion callback fires the
 *    moment the cell finishes, carrying the measured queue wait, so
 *    callers publish per cell instead of per batch.
 *
 * Determinism: every source of randomness derives from per-cell seeds
 * (SimOptions::seed x workload name x scenario), never from execution
 * order, and jobs run with the ticket's options forced to threads = 1
 * (threads is excluded from the cell key). A cell's result is therefore
 * byte-identical to runCellJob on a freshly built CellPairState, the
 * reference the tests compare against, however tickets interleave and
 * whatever the worker count.
 */

#ifndef ANCHORTLB_SIM_PARALLEL_RUNNER_HH
#define ANCHORTLB_SIM_PARALLEL_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hh"

namespace atlb
{

/** One job: the coordinates of the cell it runs. */
using CellJob = CellSpec;

/** Opens a cell's access stream afresh, once per simulation. */
using CellStream = std::function<std::unique_ptr<TraceSource>()>;

/**
 * Run one cell against shared @p pair state (which must be the pair
 * @p job names, built under @p options' seed), replaying @p stream.
 * This is the complete single-cell job body, dispatched on the
 * scheme's TableLayout: Plain and Thp use the pair's tables, Anchor
 * builds a private table swept at the job's distance override or
 * Algorithm 1's pick, and AnchorSweep (the paper's static ideal)
 * builds one private THP table, re-sweeps its anchors in place for
 * each distance in candidateDistances() order and keeps the first
 * minimum-miss run. options.threads is not consulted. Safe for
 * concurrent calls sharing one @p pair.
 */
SimResult runCellJob(const SimOptions &options, const CellPairState &pair,
                     const CellJob &job, const CellStream &stream);

/** runCellJob over the pair's stream (CellPairState::cellTrace). */
SimResult runCellJob(const SimOptions &options, const CellPairState &pair,
                     const CellJob &job);

/**
 * Unpinned CellPairState entries a scheduler retains by default: the
 * ExperimentContext budget and the default of `anchortlb serve --pairs`.
 * Page tables dominate the cost, roughly tens of MB per pair at paper
 * footprints, plus at most 4 MiB of kept stream (sharedStreamAccesses).
 */
constexpr std::size_t defaultPairBudget = 8;

/** Default admission bound: jobs queued across all tickets. */
constexpr std::size_t defaultQueueCells = 4096;

/** Shared scheduler for simulation cells. */
class CellScheduler
{
  public:
    /**
     * Per-cell completion: the submitter's index for the job, its
     * result, and how long the job sat queued before a worker picked
     * it up. Runs on a worker thread, before the owning ticket's
     * wait() can return — callbacks may therefore write
     * submitter-owned slots without extra locking.
     */
    using Completion = std::function<void(
        std::size_t index, const SimResult &result,
        std::uint64_t queue_wait_us)>;

    /** Scheduler effectiveness counters (all monotonic except the
     *  instantaneous depth/running/pairs_cached). */
    struct Stats
    {
        std::uint64_t enqueued = 0;  //!< jobs ever admitted
        std::uint64_t completed = 0; //!< jobs finished (callback ran)
        /** submit() calls that had to block on a full queue. */
        std::uint64_t admission_stalls = 0;
        std::uint64_t depth = 0;      //!< queued, not yet running
        std::uint64_t depth_peak = 0; //!< high-water mark of depth
        std::uint64_t running = 0;    //!< executing right now
        std::uint64_t tickets_open = 0;
        std::uint64_t pair_builds = 0; //!< CellPairState constructions
        std::uint64_t pair_reuses = 0; //!< lookups that found one cached
        std::uint64_t pairs_cached = 0;
    };

    /**
     * One request's handle on the scheduler. submit() cells, then
     * wait(); the destructor waits too, so a ticket can never outrun
     * its jobs. Not thread-safe: one submitting thread per ticket
     * (completions run concurrently on workers).
     */
    class Ticket
    {
      public:
        ~Ticket();

        Ticket(const Ticket &) = delete;
        Ticket &operator=(const Ticket &) = delete;

        /**
         * Enqueue one cell; @p index is echoed to the completion
         * callback. @p trace_content_hash is traceContentHash of the
         * job's workload, as its cell key folds it (0 for synthetic
         * workloads): the pair cache keys on it, so a rewritten trace
         * file gets a new pair. Blocks while the scheduler-wide queue
         * is at capacity (backpressure).
         */
        void submit(std::size_t index, const CellJob &job,
                    std::uint64_t trace_content_hash = 0);

        /** Block until every submitted job's callback has run. */
        void wait();

      private:
        friend class CellScheduler;
        struct State;
        Ticket(CellScheduler &scheduler, std::shared_ptr<State> state);

        CellScheduler &scheduler_;
        std::shared_ptr<State> state_;
    };

    /**
     * @p threads workers (at least 1); at most @p max_queue_cells jobs
     * queued across all tickets; at most @p max_pairs unpinned
     * CellPairState entries retained.
     */
    CellScheduler(unsigned threads, std::size_t max_queue_cells,
                  std::size_t max_pairs);

    /** Drains every queued job, then joins the workers. */
    ~CellScheduler();

    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    /**
     * Open a ticket for one request. @p options are the request's
     * resolved knobs (threads is overridden to 1 per job — the
     * parallelism budget is the scheduler's worker pool);
     * @p on_complete fires once per submitted job.
     */
    std::unique_ptr<Ticket> open(const SimOptions &options,
                                 Completion on_complete);

    /**
     * The cached pair state for (@p workload, @p scenario) under
     * @p options, as a job submitted without a trace content hash
     * finds it: built on the calling thread when absent and counted
     * as a pair build or reuse like a job's lookup. The returned state
     * stays valid after the cache evicts it.
     */
    std::shared_ptr<const CellPairState> pair(const SimOptions &options,
                                              const std::string &workload,
                                              ScenarioKind scenario);

    Stats stats() const;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    struct PairEntry;
    struct QueuedJob;

    void workerLoop();
    void submitJob(const std::shared_ptr<Ticket::State> &ticket,
                   std::size_t index, const CellJob &job,
                   std::uint64_t trace_content_hash);
    void waitTicket(Ticket::State &ticket);
    void closeTicket(Ticket::State &ticket);
    std::shared_ptr<PairEntry> acquirePair(const SimOptions &options,
                                           const std::string &workload,
                                           ScenarioKind scenario,
                                           std::uint64_t trace_content_hash);
    void releasePair(const std::shared_ptr<PairEntry> &entry);

    std::size_t max_queue_cells_;
    std::size_t max_pairs_;

    mutable std::mutex m_;
    std::condition_variable work_cv_;  //!< signalled on submit/stop
    std::condition_variable space_cv_; //!< signalled on dequeue
    std::condition_variable done_cv_;  //!< signalled on job completion
    bool stop_ = false;
    /** Tickets with queued jobs, FIFO admission order; workers take
     *  one job from the front ticket and rotate it to the back. */
    std::deque<std::shared_ptr<Ticket::State>> ring_;
    /** Pair cache: identity string -> entry (see pairCacheKey). */
    std::unordered_map<std::string, std::shared_ptr<PairEntry>> pairs_;
    std::uint64_t lru_tick_ = 0;
    Stats stats_;

    std::vector<std::thread> workers_;
};

} // namespace atlb

#endif // ANCHORTLB_SIM_PARALLEL_RUNNER_HH
