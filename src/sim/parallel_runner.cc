#include "parallel_runner.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"

namespace atlb
{

namespace
{

std::uint64_t
elapsedSinceUs(std::chrono::steady_clock::time_point start)
{
    const auto delta = std::chrono::steady_clock::now() - start;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

/**
 * Pair-cache identity. CellPairState construction reads exactly
 * options.seed, options.footprint_scale and, for a trace-driven
 * workload, the trace file (see experiment.hh), so the key must cover
 * those two knobs, the file's content hash and the pair itself —
 * nothing else, or identical builds would be duplicated across tickets.
 */
std::string
pairCacheKey(const SimOptions &options, const std::string &workload,
             ScenarioKind scenario, std::uint64_t trace_content_hash)
{
    Fnv1a h;
    h.addU64(options.seed)
        .addDouble(options.footprint_scale)
        .addU64(trace_content_hash);
    std::string key = std::to_string(h.digest());
    key += '|';
    key += workload;
    key += '|';
    key += scenarioName(scenario);
    return key;
}

} // namespace

SimResult
runCellJob(const SimOptions &options, const CellPairState &pair,
           const CellJob &job, const CellStream &stream)
{
    const auto simulate = [&](const PageTable &table,
                              std::uint64_t distance) {
        const std::unique_ptr<TraceSource> trace = stream();
        return runSchemeCell(options, pair.spec(), pair.scenario(),
                             pair.map(), table, job.scheme, distance,
                             *trace);
    };
    const TableLayout layout = schemeRow(job.scheme).layout;
    switch (layout) {
      case TableLayout::Plain:
        return simulate(pair.plainTable(), 0);
      case TableLayout::Thp:
        return simulate(pair.thpTable(), 0);
      case TableLayout::Anchor: {
        const std::uint64_t distance = job.distance_override
                                           ? *job.distance_override
                                           : pair.dynamicDistance();
        const PageTable table = buildAnchorPageTable(
            pair.map(), AnchorDist::fromPages(distance));
        return simulate(table, distance);
      }
      case TableLayout::AnchorSweep: {
        // Exhaustive sweep over every candidate distance; the first
        // minimum in canonical candidate order wins. sweepAnchors
        // rewrites every anchor entry, so one private THP table re-swept
        // in place per candidate equals a fresh anchor table for each
        // distance, at a fraction of the build cost.
        const std::vector<std::uint64_t> distances = candidateDistances();
        ATLB_ASSERT(!distances.empty(), "no candidate anchor distances");
        PageTable table = buildPageTable(pair.map(), true);
        SimResult best;
        bool have_best = false;
        for (const std::uint64_t distance : distances) {
            table.sweepAnchors(pair.map(), AnchorDist::fromPages(distance));
            SimResult res = simulate(table, distance);
            if (!have_best || res.misses() < best.misses()) {
                best = std::move(res);
                have_best = true;
            }
        }
        return best;
      }
    }
    ATLB_FATAL("unhandled table layout in cell job");
}

SimResult
runCellJob(const SimOptions &options, const CellPairState &pair,
           const CellJob &job)
{
    return runCellJob(options, pair, job,
                      [&] { return pair.cellTrace(options); });
}

/** One admitted cell, waiting for a worker. */
struct CellScheduler::QueuedJob
{
    std::size_t index = 0;
    CellJob job;
    std::uint64_t trace_content_hash = 0;
    std::chrono::steady_clock::time_point enqueued;
};

/** Shared ticket state (scheduler mutex guards every field). */
struct CellScheduler::Ticket::State
{
    SimOptions options; //!< threads forced to 1 by open()
    Completion on_complete;
    std::deque<QueuedJob> queue;
    std::size_t outstanding = 0; //!< submitted, callback not yet run
    bool in_ring = false;
};

/**
 * One cached CellPairState. The scheduler mutex guards pins/last_use;
 * the build itself runs outside it under the once_flag so concurrent
 * users of one pair share a single construction without blocking
 * unrelated workers.
 */
struct CellScheduler::PairEntry
{
    SimOptions build_options;
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    std::once_flag once;
    std::shared_ptr<const CellPairState> state;
    std::size_t pins = 0;
    std::uint64_t last_use = 0;

    /** The pair state, built by the first caller. */
    std::shared_ptr<const CellPairState> built()
    {
        std::call_once(once, [this] {
            state = std::make_shared<const CellPairState>(
                build_options, workload, scenario);
        });
        return state;
    }
};

CellScheduler::CellScheduler(unsigned threads,
                             std::size_t max_queue_cells,
                             std::size_t max_pairs)
    : max_queue_cells_(std::max<std::size_t>(1, max_queue_cells)),
      max_pairs_(std::max<std::size_t>(1, max_pairs))
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CellScheduler::~CellScheduler()
{
    {
        const std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    // Workers drain every queued job before exiting (see workerLoop),
    // so in-flight tickets still complete.
    work_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::unique_ptr<CellScheduler::Ticket>
CellScheduler::open(const SimOptions &options, Completion on_complete)
{
    auto state = std::make_shared<Ticket::State>();
    state->options = options;
    // The parallelism budget is the scheduler's worker pool; a job must
    // never fan out its own threads. threads is excluded from the cell
    // key, so forcing it cannot change any result.
    state->options.threads = 1;
    state->on_complete = std::move(on_complete);
    {
        const std::lock_guard<std::mutex> lock(m_);
        ++stats_.tickets_open;
    }
    return std::unique_ptr<Ticket>(new Ticket(*this, std::move(state)));
}

void
CellScheduler::submitJob(const std::shared_ptr<Ticket::State> &ticket,
                         std::size_t index, const CellJob &job,
                         std::uint64_t trace_content_hash)
{
    std::unique_lock<std::mutex> lock(m_);
    if (stats_.depth >= max_queue_cells_) {
        // Backpressure: admit incrementally as workers free up slots.
        ++stats_.admission_stalls;
        space_cv_.wait(lock, [this] {
            return stats_.depth < max_queue_cells_;
        });
    }
    QueuedJob queued;
    queued.index = index;
    queued.job = job;
    queued.trace_content_hash = trace_content_hash;
    queued.enqueued = std::chrono::steady_clock::now();
    ticket->queue.push_back(std::move(queued));
    ++ticket->outstanding;
    if (!ticket->in_ring) {
        ticket->in_ring = true;
        ring_.push_back(ticket);
    }
    ++stats_.enqueued;
    ++stats_.depth;
    stats_.depth_peak = std::max(stats_.depth_peak, stats_.depth);
    work_cv_.notify_one();
}

void
CellScheduler::waitTicket(Ticket::State &ticket)
{
    std::unique_lock<std::mutex> lock(m_);
    done_cv_.wait(lock,
                  [&ticket] { return ticket.outstanding == 0; });
}

void
CellScheduler::closeTicket(Ticket::State &ticket)
{
    const std::lock_guard<std::mutex> lock(m_);
    ATLB_ASSERT(ticket.outstanding == 0 && ticket.queue.empty(),
                "ticket closed with jobs outstanding");
    --stats_.tickets_open;
}

std::shared_ptr<CellScheduler::PairEntry>
CellScheduler::acquirePair(const SimOptions &options,
                           const std::string &workload,
                           ScenarioKind scenario,
                           std::uint64_t trace_content_hash)
{
    const std::string key =
        pairCacheKey(options, workload, scenario, trace_content_hash);
    const std::lock_guard<std::mutex> lock(m_);
    auto it = pairs_.find(key);
    if (it == pairs_.end()) {
        auto entry = std::make_shared<PairEntry>();
        entry->build_options = options;
        entry->workload = workload;
        entry->scenario = scenario;
        it = pairs_.emplace(key, std::move(entry)).first;
        ++stats_.pair_builds;
    } else {
        ++stats_.pair_reuses;
    }
    ++it->second->pins;
    it->second->last_use = ++lru_tick_;
    return it->second;
}

void
CellScheduler::releasePair(const std::shared_ptr<PairEntry> &entry)
{
    const std::lock_guard<std::mutex> lock(m_);
    ATLB_ASSERT(entry->pins > 0, "pair released more often than pinned");
    --entry->pins;
    // Evict coldest unpinned entries beyond the budget. Pinned entries
    // are never evicted, so the cache may transiently overshoot when
    // more than max_pairs_ distinct pairs are executing at once.
    while (pairs_.size() > max_pairs_) {
        auto victim = pairs_.end();
        for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
            if (it->second->pins != 0)
                continue;
            if (victim == pairs_.end() ||
                it->second->last_use < victim->second->last_use)
                victim = it;
        }
        if (victim == pairs_.end())
            break;
        pairs_.erase(victim);
    }
}

std::shared_ptr<const CellPairState>
CellScheduler::pair(const SimOptions &options, const std::string &workload,
                    ScenarioKind scenario)
{
    const std::shared_ptr<PairEntry> entry =
        acquirePair(options, workload, scenario, 0);
    std::shared_ptr<const CellPairState> state = entry->built();
    releasePair(entry);
    return state;
}

void
CellScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    while (true) {
        work_cv_.wait(lock,
                      [this] { return stop_ || !ring_.empty(); });
        if (ring_.empty()) {
            if (stop_)
                return;
            continue;
        }

        // Round-robin fairness: take one job from the front ticket,
        // then rotate it behind every other ticket that has work.
        std::shared_ptr<Ticket::State> ticket = ring_.front();
        ring_.pop_front();
        QueuedJob queued = std::move(ticket->queue.front());
        ticket->queue.pop_front();
        if (ticket->queue.empty())
            ticket->in_ring = false;
        else
            ring_.push_back(ticket);
        --stats_.depth;
        ++stats_.running;
        space_cv_.notify_one();
        lock.unlock();

        const std::uint64_t wait_us = elapsedSinceUs(queued.enqueued);
        const std::shared_ptr<PairEntry> pair =
            acquirePair(ticket->options, queued.job.workload,
                        queued.job.scenario, queued.trace_content_hash);
        const SimResult result =
            runCellJob(ticket->options, *pair->built(), queued.job);
        releasePair(pair);
        // Publish before the ticket can observe completion: wait()
        // returns only after outstanding hits zero below, so callbacks
        // may write submitter-owned slots race-free.
        ticket->on_complete(queued.index, result, wait_us);

        lock.lock();
        ++stats_.completed;
        --stats_.running;
        --ticket->outstanding;
        if (ticket->outstanding == 0)
            done_cv_.notify_all();
    }
}

CellScheduler::Stats
CellScheduler::stats() const
{
    const std::lock_guard<std::mutex> lock(m_);
    Stats out = stats_;
    out.pairs_cached = pairs_.size();
    return out;
}

CellScheduler::Ticket::Ticket(CellScheduler &scheduler,
                              std::shared_ptr<State> state)
    : scheduler_(scheduler), state_(std::move(state))
{
}

CellScheduler::Ticket::~Ticket()
{
    scheduler_.waitTicket(*state_);
    scheduler_.closeTicket(*state_);
}

void
CellScheduler::Ticket::submit(std::size_t index, const CellJob &job,
                              std::uint64_t trace_content_hash)
{
    scheduler_.submitJob(state_, index, job, trace_content_hash);
}

void
CellScheduler::Ticket::wait()
{
    scheduler_.waitTicket(*state_);
}

} // namespace atlb
