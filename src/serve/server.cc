#include "server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/parallel_runner.hh"

namespace atlb
{

namespace
{

/** Accept/read poll granularity: how often the stop flag is observed. */
constexpr int pollTimeoutMs = 200;

/** Request-line cap: a grid request is KBs; beyond this is abuse. */
constexpr std::size_t maxLineBytes = 16 * 1024 * 1024;

/** Microseconds elapsed since @p start. */
std::uint64_t
elapsedUsSince(std::chrono::steady_clock::time_point start)
{
    const auto delta = std::chrono::steady_clock::now() - start;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

/**
 * Non-fatal workload validation + trace content hash: the engine's own
 * workload check (tryScaledWorkloadSpec) under the request's @p options,
 * then the hash of a trace-driven workload's file, which feeds the cell
 * key. Returns false with the reason in @p error — a request must never
 * be able to crash the server through a bad name or an unusable trace.
 */
bool
validateWorkload(const SimOptions &options, const std::string &workload,
                 std::uint64_t &trace_hash, std::string &error)
{
    trace_hash = 0;
    const std::optional<WorkloadSpec> spec =
        tryScaledWorkloadSpec(options, workload, error);
    if (!spec)
        return false;
    if (spec->traceDriven() && !fnv1a64File(spec->trace_path, trace_hash)) {
        error = "trace file '" + spec->trace_path + "' is not readable";
        return false;
    }
    return true;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

SweepServer::SweepServer(ServeOptions options)
    : options_(std::move(options)), store_(options_.store_path),
      scheduler_(options_.base.threads, options_.max_queue_cells,
                 options_.max_pairs)
{
}

SweepServer::~SweepServer()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

bool
SweepServer::start(std::string *error)
{
    const auto fail = [this, error](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return false;
    };

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error) {
            *error = "socket path '" + options_.socket_path +
                     "' is too long for AF_UNIX";
        }
        return false;
    }
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        return fail("cannot create socket");
    // A stale socket file from a dead server would make bind fail;
    // this server owns the path, so reclaim it.
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("cannot bind '" + options_.socket_path + "'");
    if (::listen(listen_fd_, 16) != 0)
        return fail("cannot listen on '" + options_.socket_path + "'");
    return true;
}

void
SweepServer::run()
{
    ATLB_ASSERT(listen_fd_ >= 0, "run() before start()");

    while (!stopping()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, pollTimeoutMs);
        if (ready <= 0)
            continue; // timeout or EINTR: re-check the stop flag
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        {
            const std::lock_guard<std::mutex> lock(state_m_);
            ++counters_.connections;
        }
        const std::lock_guard<std::mutex> lock(threads_m_);
        threads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }

    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());

    const std::lock_guard<std::mutex> lock(threads_m_);
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
}

void
SweepServer::handleConnection(int fd)
{
    LineBuffer lines;
    std::string line;
    char chunk[LineBuffer::readBytes];

    while (!stopping()) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, pollTimeoutMs);
        if (ready < 0 && errno != EINTR)
            break;
        if (ready <= 0)
            continue;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // EOF or error: client is gone
        lines.append(chunk, static_cast<std::size_t>(n));
        while (lines.next(line)) {
            if (!sendAll(fd, handleLine(line) + "\n")) {
                ::close(fd);
                return;
            }
        }
        if (lines.pending() > maxLineBytes)
            break; // unterminated oversized line: refuse
    }
    ::close(fd);
}

std::string
SweepServer::handleLine(const std::string &line)
{
    SweepRequest request;
    std::string error;
    if (!decodeRequest(line, request, &error)) {
        {
            const std::lock_guard<std::mutex> lock(state_m_);
            ++counters_.bad_requests;
        }
        SweepResponse resp;
        resp.ok = false;
        resp.error = error.empty() ? "malformed request" : error;
        resp.counters = counterRows();
        return encodeResponse(resp);
    }
    {
        const std::lock_guard<std::mutex> lock(state_m_);
        ++counters_.requests;
    }
    return encodeResponse(handleRequest(request));
}

SweepResponse
SweepServer::handleRequest(const SweepRequest &request)
{
    const auto start = std::chrono::steady_clock::now();
    SweepResponse resp;
    switch (request.op) {
      case WireOp::Stats:
        resp.ok = true;
        break;
      case WireOp::Shutdown:
        resp.ok = true;
        requestStop();
        break;
      case WireOp::Submit:
      case WireOp::Query:
        resolveCells(request, resp);
        break;
    }
    {
        // Recorded before the counters are attached, so every reply's
        // wall-time summary includes the request it answers.
        const std::lock_guard<std::mutex> lock(state_m_);
        counters_.request_wall_us.add(elapsedUsSince(start));
    }
    resp.counters = counterRows();
    return resp;
}

void
SweepServer::resolveCells(const SweepRequest &request,
                          SweepResponse &resp)
{
    SimOptions opts = options_.base;
    if (request.accesses)
        opts.accesses = *request.accesses;
    if (request.seed)
        opts.seed = *request.seed;
    if (request.scale)
        opts.footprint_scale = *request.scale;
    if (opts.accesses == 0 || !validFootprintScale(opts.footprint_scale)) {
        resp.ok = false;
        resp.error =
            "invalid options: accesses must be positive, scale in (0, 1]";
        return;
    }

    resp.cells.resize(request.cells.size());

    // Tier 1: validate, address, and answer from the store. Cells the
    // store misses are either claimed (this request computes them) or
    // joined (an identical cell is already in flight elsewhere).
    struct PendingCell
    {
        std::size_t index = 0;
        CellKey key;
        std::shared_ptr<Inflight> entry;
        std::uint64_t trace_hash = 0; //!< in key; keys the scheduler pair
    };
    std::vector<PendingCell> owned;
    std::vector<PendingCell> joined;
    // One request checks each distinct workload (and hashes its trace
    // file) once.
    std::unordered_map<std::string, std::uint64_t> trace_hashes;

    for (std::size_t i = 0; i < request.cells.size(); ++i) {
        const CellRequest &cell = request.cells[i];
        CellReply &reply = resp.cells[i];
        {
            const std::lock_guard<std::mutex> lock(state_m_);
            ++counters_.cells;
        }

        std::uint64_t trace_hash = 0;
        const auto memo = trace_hashes.find(cell.workload);
        if (memo != trace_hashes.end()) {
            trace_hash = memo->second;
        } else {
            std::string error;
            if (!validateWorkload(opts, cell.workload, trace_hash, error)) {
                reply.status = CellStatus::Error;
                reply.error = error;
                const std::lock_guard<std::mutex> lock(state_m_);
                ++counters_.cell_errors;
                continue;
            }
            trace_hashes.emplace(cell.workload, trace_hash);
        }

        const CellKey key = cellKeyFor(
            opts,
            CellSpec{cell.workload, cell.scenario, cell.scheme,
                     cell.distance},
            trace_hash);
        reply.key = key.raw();

        if (std::optional<SimResult> cached = store_.lookup(key)) {
            reply.status = CellStatus::Hit;
            reply.result = *std::move(cached);
            const std::lock_guard<std::mutex> lock(state_m_);
            ++counters_.hits;
            continue;
        }
        if (request.op == WireOp::Query) {
            reply.status = CellStatus::Miss;
            continue;
        }

        const std::lock_guard<std::mutex> lock(state_m_);
        const auto inflight = inflight_.find(key.raw());
        if (inflight != inflight_.end()) {
            ++counters_.dedups;
            joined.push_back({i, key, inflight->second});
        } else if (std::optional<SimResult> cached = store_.lookup(key)) {
            // Published between the lookup above and this lock: a
            // publisher stores before it drops its in-flight entry, so
            // this second look is what makes each cell simulate once.
            reply.status = CellStatus::Hit;
            reply.result = *std::move(cached);
            ++counters_.hits;
        } else {
            auto entry = std::make_shared<Inflight>();
            inflight_.emplace(key.raw(), entry);
            owned.push_back({i, key, std::move(entry), trace_hash});
        }
    }

    // Tier 3: the claimed misses become individual jobs on the shared
    // scheduler, sorted by (workload, scenario) so this request's
    // consecutive cells reuse one scheduler pair-state build. Each cell
    // publishes — store append, Inflight wake-up, reply slot — the
    // moment its worker finishes, so waiters never wait on the whole
    // grid.
    if (!owned.empty()) {
        std::vector<std::size_t> order(owned.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const CellRequest &ca =
                          request.cells[owned[a].index];
                      const CellRequest &cb =
                          request.cells[owned[b].index];
                      if (ca.workload != cb.workload)
                          return ca.workload < cb.workload;
                      return ca.scenario < cb.scenario;
                  });

        // Runs on scheduler workers. Writing resp is race-free: the
        // ticket's wait() below returns only after every completion has
        // run, and this thread touches no owned slot until then.
        const auto publish = [this, &resp, &owned](
                                 std::size_t slot,
                                 const SimResult &result,
                                 std::uint64_t queue_wait_us) {
            PendingCell &pending = owned[slot];
            store_.store(pending.key, result);
            {
                const std::lock_guard<std::mutex> entry_lock(
                    pending.entry->m);
                pending.entry->done = true;
                pending.entry->result = result;
            }
            pending.entry->cv.notify_all();
            CellReply &reply = resp.cells[pending.index];
            reply.status = CellStatus::Computed;
            reply.result = result;
            const std::lock_guard<std::mutex> lock(state_m_);
            inflight_.erase(pending.key.raw());
            ++counters_.simulations;
            counters_.queue_wait_us.add(queue_wait_us);
        };

        const std::unique_ptr<CellScheduler::Ticket> ticket =
            scheduler_.open(opts, publish);
        for (const std::size_t slot : order) {
            const CellRequest &cell = request.cells[owned[slot].index];
            ticket->submit(slot,
                           CellJob{cell.workload, cell.scenario,
                                   cell.scheme, cell.distance},
                           owned[slot].trace_hash);
        }
        ticket->wait();
    }

    // Tier 2 resolution: join the in-flight computations. This comes
    // after our own batch published, so two requests can wait on each
    // other's cells without deadlock — publishes never depend on waits.
    for (PendingCell &pending : joined) {
        std::unique_lock<std::mutex> entry_lock(pending.entry->m);
        pending.entry->cv.wait(entry_lock,
                               [&] { return pending.entry->done; });
        CellReply &reply = resp.cells[pending.index];
        reply.status = CellStatus::Deduped;
        reply.result = pending.entry->result;
    }

    resp.ok = true;
}

std::vector<std::pair<std::string, std::uint64_t>>
SweepServer::counterRows() const
{
    ServerCounters c;
    {
        const std::lock_guard<std::mutex> lock(state_m_);
        c = counters_;
    }
    const CellScheduler::Stats ss = scheduler_.stats();
    const ResultStore::Counters sc = store_.counters();
    const ResultStore::Info si = store_.info();
    return {
        {"connections", c.connections},
        {"requests", c.requests},
        {"bad_requests", c.bad_requests},
        {"cells", c.cells},
        {"hits", c.hits},
        {"dedups", c.dedups},
        {"simulations", c.simulations},
        {"cell_errors", c.cell_errors},
        {"queue_peak", ss.depth_peak},
        {"admission_stalls", ss.admission_stalls},
        {"sched_depth", ss.depth},
        {"sched_running", ss.running},
        {"sched_tickets_open", ss.tickets_open},
        {"sched_pair_builds", ss.pair_builds},
        {"sched_pair_reuses", ss.pair_reuses},
        {"sched_pairs_cached", ss.pairs_cached},
        {"request_wall_us_count", c.request_wall_us.samples()},
        {"request_wall_us_p50", c.request_wall_us.quantile(0.5)},
        {"request_wall_us_p99", c.request_wall_us.quantile(0.99)},
        {"request_wall_us_max", c.request_wall_us.maxValue()},
        {"queue_wait_us_count", c.queue_wait_us.samples()},
        {"queue_wait_us_p50", c.queue_wait_us.quantile(0.5)},
        {"queue_wait_us_p99", c.queue_wait_us.quantile(0.99)},
        {"queue_wait_us_max", c.queue_wait_us.maxValue()},
        {"store_lookups", sc.lookups},
        {"store_hits", sc.hits},
        {"store_appends", sc.appends},
        {"store_corrupt_dropped", sc.corrupt_dropped},
        {"store_live_cells", si.live_cells},
        {"store_records", si.records},
        {"store_file_bytes", si.file_bytes},
    };
}

} // namespace atlb
