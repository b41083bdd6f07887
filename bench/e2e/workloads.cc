/**
 * @file
 * The four bench_e2e workloads and their correctness checks.
 *
 * Every workload starts its own `anchortlb serve` over a fresh store in
 * the run directory, drives it from this process with at most nproc
 * client threads and connections, and keeps a seeded sample of reply
 * cells that is re-run in process through runCellJob after timing.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>

#include "common/hash.hh"
#include "common/rng.hh"
#include "e2e.hh"
#include "os/distance_selector.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "trace/workload.hh"

namespace atlb::e2e
{

namespace
{

/** Seed streams: every workload and pass draws independent seeds. */
enum SeedStream : std::uint64_t
{
    kColdPass = 1,
    kWarmPrep,
    kForeground,
    kForegroundOrder,
    kBackground,
    kTraceGen,
    kTracePass,
    kSample,
    kWarmup,
};

/**
 * Open-loop foreground requests run at least this many times; the
 * digest covers exactly this prefix, so it does not depend on
 * --seconds.
 */
constexpr std::size_t kMinForeground = 40;

/** Failure diagnostics kept per workload (all are counted). */
constexpr std::size_t kKeptFailures = 20;

/** Trace-driven workloads of trace-replay (gen-trace catalog names). */
constexpr const char *kTraceWorkloads[] = {"mcf", "gups", "canneal",
                                           "graph500"};

constexpr Scheme kNonIdealSchemes[] = {
    Scheme::Base,       Scheme::Thp, Scheme::Cluster,
    Scheme::Cluster2MB, Scheme::Rmm, Scheme::Anchor,
};

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

CellRequest
cell(const std::string &workload, ScenarioKind scenario, Scheme scheme,
     std::optional<std::uint64_t> distance = {})
{
    CellRequest c;
    c.workload = workload;
    c.scenario = scenario;
    c.scheme = scheme;
    c.distance = distance;
    return c;
}

/** Fig. 9: 14 workloads x 6 scenarios x 7 schemes (588 cells). */
Request
fig9Grid(std::uint64_t accesses, double scale, std::uint64_t seed)
{
    Request req{accesses, seed, scale, {}};
    for (const std::string &workload : paperWorkloadNames())
        for (const ScenarioKind scenario : allScenarios)
            for (const Scheme scheme : allSchemes)
                req.cells.push_back(cell(workload, scenario, scheme));
    return req;
}

/** Interactive background: 14 workloads x medium x 6 schemes. */
Request
backgroundGrid(const Budget &b, std::uint64_t seed)
{
    Request req{b.interactive_accesses, seed, b.interactive_scale, {}};
    for (const std::string &workload : paperWorkloadNames())
        for (const Scheme scheme : kNonIdealSchemes)
            req.cells.push_back(
                cell(workload, ScenarioKind::MedContig, scheme));
    return req;
}

/**
 * The 1344 distinct Anchor cells (workload, scenario, distance) in a
 * seeded order. The order is stratified by workload: every run of 14
 * consecutive requests covers each workload once, so any prefix has
 * the same workload mix whatever the seed and the latency tail does
 * not hinge on how many gups or graph500 cells a seed happens to draw.
 */
std::vector<CellRequest>
anchorCellOrder(std::uint64_t seed)
{
    Rng rng(seed);
    const auto shuffle = [&rng](auto &items) {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[rng.nextBounded(i)]);
    };
    std::vector<std::vector<CellRequest>> per_workload;
    for (const std::string &workload : paperWorkloadNames()) {
        std::vector<CellRequest> cells;
        for (const ScenarioKind scenario : allScenarios)
            for (const std::uint64_t d : candidateDistances())
                cells.push_back(
                    cell(workload, scenario, Scheme::Anchor, d));
        shuffle(cells);
        per_workload.push_back(std::move(cells));
    }
    std::vector<CellRequest> order;
    std::vector<std::size_t> round(per_workload.size());
    for (std::size_t r = 0; r < per_workload.front().size(); ++r) {
        for (std::size_t w = 0; w < round.size(); ++w)
            round[w] = w;
        shuffle(round);
        for (const std::size_t w : round)
            order.push_back(per_workload[w][r]);
    }
    return order;
}

std::string
traceFile(const char *workload)
{
    return std::string(workload) + ".atlbtrc2";
}

/** trace-replay: 4 traces x 6 scenarios x 6 schemes (144 cells). */
Request
traceGrid(const Budget &b, std::uint64_t seed)
{
    Request req{b.trace_accesses, seed, b.trace_scale, {}};
    for (const char *workload : kTraceWorkloads)
        for (const ScenarioKind scenario : allScenarios)
            for (const Scheme scheme : kNonIdealSchemes)
                req.cells.push_back(
                    cell("trace:" + traceFile(workload), scenario, scheme));
    return req;
}

/** Accesses one reply cell stands for (AnchorIdeal sweeps all). */
double
answeredAccesses(const CellRequest &c, const SimResult &result)
{
    const double sims =
        c.scheme == Scheme::AnchorIdeal
            ? static_cast<double>(candidateDistances().size())
            : 1.0;
    return sims * static_cast<double>(result.stats.accesses);
}

/** Where absorb() folds a reply. */
struct Fold
{
    CellStatus expect = CellStatus::Computed;
    std::uint64_t *digest = nullptr;
    /** Request ordinal within its stream; keys the check sample. */
    std::uint64_t ordinal = 0;
    bool sample = true;
    /** False for untimed requests: their accesses are not counted. */
    bool timed = true;
};

/**
 * Validate @p resp against @p req and fold its cells into @p out: the
 * status every cell must have, the digest, the answered accesses and
 * the seeded check sample.
 */
void
absorb(const Context &ctx, Outcome &out, const Request &req,
       const SweepResponse &resp, const Fold &fold)
{
    if (!resp.ok) {
        out.fail("request refused: " + resp.error, req.cells.size());
        return;
    }
    if (resp.cells.size() != req.cells.size()) {
        out.fail("reply has " + std::to_string(resp.cells.size()) +
                     " cells for " + std::to_string(req.cells.size()),
                 req.cells.size());
        return;
    }
    for (std::size_t i = 0; i < resp.cells.size(); ++i) {
        const CellReply &reply = resp.cells[i];
        if (reply.status != fold.expect) {
            out.fail(std::string("cell ") + req.cells[i].workload +
                     " answered " + cellStatusName(reply.status) +
                     ", expected " + cellStatusName(fold.expect) +
                     (reply.error.empty() ? "" : ": " + reply.error));
            continue;
        }
        if (fold.timed)
            out.answered_accesses +=
                answeredAccesses(req.cells[i], reply.result);
        std::string bytes = encodeSimResult(reply.result);
        if (fold.digest)
            digestReply(*fold.digest, bytes);
        const std::uint64_t pick =
            deriveSeed(ctx.seed, kSample, fold.ordinal * 1'000'003 + i);
        if (fold.sample && pick % ctx.budget.check_every == 0) {
            out.checks.push_back(CellCheck{req.options(), req.cells[i],
                                           reply.key, std::move(bytes)});
        }
    }
}

/**
 * Round-trip @p req on @p client: wall seconds in @p elapsed_s, and the
 * calling thread's CPU seconds added to @p cpu_s when it is given.
 */
bool
timedRoundTrip(ServeClient &client, const Request &req,
               SweepResponse &resp, double &elapsed_s, Outcome &out,
               double *cpu_s = nullptr)
{
    const SweepRequest wire = req.wire();
    std::string error;
    const double cpu_start = threadCpuSeconds();
    const auto start = Clock::now();
    const bool ok = client.roundTrip(wire, resp, &error);
    elapsed_s = secondsSince(start);
    if (cpu_s)
        *cpu_s += threadCpuSeconds() - cpu_start;
    if (!ok)
        out.fail("round trip failed: " + error, req.cells.size());
    return ok;
}

/**
 * One untimed request, so the server's heap and caches reach their
 * steady state before timing starts: the first grid a fresh server
 * runs pays for growing its memory, and that cost varies widely from
 * one server start to the next.
 */
bool
warmUp(const Context &ctx, ServeClient &client, const Request &req,
       Outcome &out)
{
    SweepResponse resp;
    double elapsed = 0.0;
    if (!timedRoundTrip(client, req, resp, elapsed, out))
        return false;
    absorb(ctx, out, req, resp, {CellStatus::Computed, nullptr, 0, false,
                                 false});
    return true;
}

bool
connect(ServeClient &client, Outcome &out)
{
    std::string error;
    if (client.connect(Server::socketPath(), &error))
        return true;
    out.fail("connect: " + error);
    return false;
}

/** @p start plus @p seconds. */
Clock::time_point
plusSeconds(Clock::time_point start, double seconds)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

bool
startServer(const Context &ctx, const std::string &store, Server &server,
            Outcome &out)
{
    double setup_cpu_s = 0.0;
    std::string error;
    if (server.start(ctx.anchortlb, store, ctx.server_threads, setup_cpu_s,
                     &error))
        return true;
    out.fail("server start: " + error);
    return false;
}

/**
 * Samples setup_s, the CPU time of a server start from spawn to
 * listening, budget.setup_starts times at even intervals over the timed
 * phase. Other tenants of the host move the CPU time of a 2 ms start by
 * up to 30% for a while, so the median of a burst of starts read
 * whichever phase the host was in; spread over the timed phase, the
 * phases average out. Probe servers listen on their own socket over
 * their own copy of the workload's initial store, since a store admits
 * one server at a time, and are killed as soon as they listen.
 */
class SetupSampler
{
  public:
    /** Start sampling over a copy of @p initial_store, or none if empty. */
    SetupSampler(const Context &ctx, const std::string &initial_store)
        : ctx_(ctx), start_(Clock::now())
    {
        std::error_code ec;
        if (!initial_store.empty() &&
            !std::filesystem::copy_file(initial_store, kStore, ec)) {
            error_ = "cannot copy " + initial_store + ": " + ec.message();
            return;
        }
        thread_ = std::thread([this] { run(); });
    }

    ~SetupSampler() { stop(); }

    SetupSampler(const SetupSampler &) = delete;
    SetupSampler &operator=(const SetupSampler &) = delete;

    /** Take the samples still due at once; their median is setup_s. */
    void finish(Outcome &out)
    {
        stop();
        if (error_.empty())
            out.setup_s = quantile(samples_, 0.5);
        else
            out.fail("setup probe: " + error_);
    }

  private:
    static constexpr const char *kStore = "probe.results";
    static constexpr const char *kSocket = "probe.sock";

    void run()
    {
        const unsigned n = ctx_.budget.setup_starts;
        const double period_s = ctx_.budget.seconds / n;
        for (unsigned i = 0; i < n; ++i) {
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait_until(lock, plusSeconds(start_, i * period_s),
                               [this] { return done_; });
            }
            Server probe;
            double cpu_s = 0.0;
            if (!probe.start(ctx_.anchortlb, kStore, ctx_.server_threads,
                             cpu_s, &error_, kSocket))
                return;
            samples_.push_back(cpu_s);
            // Idle and listening, so nothing is in flight: SIGKILL is
            // safe and skips the shutdown poll interval.
            probe.kill();
        }
    }

    void stop()
    {
        {
            const std::lock_guard<std::mutex> lock(m_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    const Context &ctx_;
    const Clock::time_point start_;
    std::thread thread_;
    std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    std::vector<double> samples_;
    std::string error_;
};

/** Read the server's counters and peak RSS, then stop it. */
void
finishServer(Server &server, Outcome &out)
{
    out.server_stats = server.stats();
    out.peak_rss_mb = server.peakRssMb();
    if (!server.stop())
        out.fail("server did not stop cleanly");
}

/** Fold a thread's partial outcome into the workload's. */
void
merge(Outcome &into, Outcome &&part)
{
    into.failed += part.failed;
    for (std::string &f : part.failures)
        if (into.failures.size() < kKeptFailures)
            into.failures.push_back(std::move(f));
    into.answered_accesses += part.answered_accesses;
    into.client_cpu_s += part.client_cpu_s;
    for (CellCheck &c : part.checks)
        into.checks.push_back(std::move(c));
}

std::uint64_t
cellsOf(const std::vector<Request> &requests)
{
    std::uint64_t n = 0;
    for (const Request &r : requests)
        n += r.cells.size();
    return n;
}

/**
 * The timed phase of fig9-cold and trace-replay: a server over a fresh
 * @p store, one connection, one untimed warm-up pass, then closed-loop
 * grid passes make(seed) under seeds of @p stream until the budget's
 * seconds have elapsed. Every cell must be computed.
 */
template <typename MakeGrid>
void
coldGridPasses(const Context &ctx, const std::string &store,
               SeedStream stream, Outcome &out, MakeGrid make)
{
    Server server;
    if (!startServer(ctx, store, server, out))
        return;
    ServeClient client;
    if (!connect(client, out))
        return;
    std::vector<Request> sent{make(deriveSeed(ctx.seed, kWarmup, stream))};
    if (!warmUp(ctx, client, sent.front(), out))
        return;
    SetupSampler setup(ctx, "");
    const auto start = Clock::now();
    const double cpu_start = server.cpuSeconds();
    for (std::uint64_t k = 0; k < ctx.budget.min_passes ||
                              secondsSince(start) < ctx.budget.seconds;
         ++k) {
        Request req = make(deriveSeed(ctx.seed, stream, k));
        SweepResponse resp;
        double elapsed = 0.0;
        if (!timedRoundTrip(client, req, resp, elapsed, out,
                            &out.client_cpu_s))
            break;
        out.pass_s.push_back(elapsed);
        out.request_ms.push_back(elapsed * 1e3);
        absorb(ctx, out, req, resp,
               {CellStatus::Computed, k == 0 ? &out.digest : nullptr, k});
        sent.push_back(std::move(req));
    }
    out.server_cpu_s = server.cpuSeconds() - cpu_start;
    setup.finish(out);
    client.disconnect();
    finishServer(server, out);

    out.attempted = cellsOf(sent);
    if (sent.size() > 1)
        out.traced.push_back(sent[1]);
}

// ---------------------------------------------------------------------
// fig9-cold: the Fig. 9 grid, each pass under a fresh seed, so every
// cell misses the store, simulates and is appended.

Outcome
runFig9Cold(const Context &ctx)
{
    const Budget &b = ctx.budget;
    Outcome out;
    coldGridPasses(ctx, "cold.results", kColdPass, out,
                   [&](std::uint64_t seed) {
                       return fig9Grid(b.grid_accesses, b.grid_scale, seed);
                   });
    return out;
}

// ---------------------------------------------------------------------
// fig9-warm: an untimed prep fills the store with the grid under
// warm_seeds seeds; every timed pass then re-requests all of them, so
// only store replay, key hashing, lookups and the wire codec work.

Outcome
runFig9Warm(const Context &ctx)
{
    const Budget &b = ctx.budget;
    const std::string store = "warm.results";
    Outcome out;

    std::vector<Request> grids;
    for (std::uint64_t i = 0; i < b.warm_seeds; ++i)
        grids.push_back(fig9Grid(b.warm_accesses, b.grid_scale,
                                 deriveSeed(ctx.seed, kWarmPrep, i)));
    {
        Server prep;
        double setup_cpu_s = 0.0;
        std::string error;
        if (!prep.start(ctx.anchortlb, store, ctx.server_threads,
                        setup_cpu_s, &error)) {
            out.fail("server start: " + error);
            return out;
        }
        ServeClient client;
        if (!connect(client, out))
            return out;
        for (std::uint64_t i = 0; i < grids.size(); ++i) {
            SweepResponse resp;
            double elapsed = 0.0;
            if (!timedRoundTrip(client, grids[i], resp, elapsed, out))
                return out;
            // Untimed: the prep's accesses stay out of the timed rate.
            absorb(ctx, out, grids[i], resp,
                   {CellStatus::Computed, &out.digest, i, true, false});
        }
        client.disconnect();
        if (!prep.stop())
            out.fail("server did not stop cleanly");
    }

    Server server;
    if (!startServer(ctx, store, server, out))
        return out;
    ServeClient client;
    if (!connect(client, out))
        return out;
    // One pass re-requests every prepared grid; every reply must be a
    // store hit and the pass must digest to exactly the prep replies.
    std::uint64_t passes = 0;
    const auto pass = [&](bool timed) {
        std::uint64_t digest = fnv1aOffsetBasis;
        double seconds = 0.0;
        for (const Request &req : grids) {
            SweepResponse resp;
            double elapsed = 0.0;
            if (!timedRoundTrip(client, req, resp, elapsed, out,
                                timed ? &out.client_cpu_s : nullptr))
                break;
            seconds += elapsed;
            if (timed)
                out.request_ms.push_back(elapsed * 1e3);
            absorb(ctx, out, req, resp,
                   {CellStatus::Hit, &digest, 0, false, timed});
        }
        ++passes;
        if (digest != out.digest)
            out.fail("warm pass " + std::to_string(passes) +
                         " differs from the prep replies",
                     cellsOf(grids));
        if (timed)
            out.pass_s.push_back(seconds);
    };
    pass(false);
    SetupSampler setup(ctx, store);
    const auto start = Clock::now();
    const double cpu_start = server.cpuSeconds();
    for (std::uint64_t k = 0;
         k < b.min_passes || secondsSince(start) < b.seconds; ++k)
        pass(true);
    out.server_cpu_s = server.cpuSeconds() - cpu_start;
    setup.finish(out);
    client.disconnect();
    finishServer(server, out);

    out.attempted = cellsOf(grids) * (passes + 1);
    out.traced = grids;
    out.traced_store = store;
    return out;
}

// ---------------------------------------------------------------------
// interactive: distinct single-cell submits on an open loop at fg_rate
// over fg_connections, each timed from its due time, while a third
// connection submits a background grid once per bg_period_s, also
// timed from its due time. Both loops are open, so the offered load is
// fixed: a closed-loop grid kept the workers saturated and turned small
// speed changes into large swings in queue wait.

Outcome
runInteractive(const Context &ctx)
{
    const Budget &b = ctx.budget;
    Outcome out;
    Server server;
    if (!startServer(ctx, "interactive.results", server, out))
        return out;

    // Every foreground request runs under one seed per run, so requests
    // for the same (workload, scenario) share a mapping pair and the
    // scheduler's pair cache can serve them. Past the 1344th request the
    // order repeats under the next seed, so every request stays a
    // distinct cell.
    const std::vector<CellRequest> order =
        anchorCellOrder(deriveSeed(ctx.seed, kForegroundOrder, 0));
    const auto count = std::max<std::size_t>(
        kMinForeground,
        static_cast<std::size_t>(std::llround(b.fg_rate * b.seconds)));
    const auto foreground = [&](std::size_t i) {
        return Request{b.interactive_accesses,
                       deriveSeed(ctx.seed, kForeground, i / order.size()),
                       b.interactive_scale,
                       {order[i % order.size()]}};
    };

    const double duration_s = static_cast<double>(count) / b.fg_rate;
    const auto passes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(duration_s / b.bg_period_s));

    // Untimed warm-up: one background grid and one foreground-shaped
    // cell per workload, each under a warm-up seed.
    std::uint64_t warmup_cells = 0;
    {
        ServeClient client;
        if (!connect(client, out))
            return out;
        std::vector<Request> warmups{
            backgroundGrid(b, deriveSeed(ctx.seed, kWarmup, 0))};
        for (std::size_t i = 0; i < paperWorkloadNames().size(); ++i)
            warmups.push_back(Request{b.interactive_accesses,
                                      deriveSeed(ctx.seed, kWarmup, i + 1),
                                      b.interactive_scale,
                                      {order[i]}});
        for (const Request &req : warmups)
            if (!warmUp(ctx, client, req, out))
                return out;
        warmup_cells = cellsOf(warmups);
    }

    std::vector<double> latency_ms(count, 0.0);
    std::vector<double> lateness_ms(count, 0.0);
    std::vector<std::string> digested(kMinForeground);
    std::atomic<std::size_t> next{0};

    std::vector<Request> background;
    Outcome bg;
    std::uint64_t bg_digest = fnv1aOffsetBasis;
    SetupSampler setup(ctx, "");
    const auto start = Clock::now();
    const double cpu_start = server.cpuSeconds();
    const auto dueAt = [start](double seconds) {
        return plusSeconds(start, seconds);
    };

    // The foreground senders, the background grid on this thread and the
    // setup sampler make fg_connections + 2 client threads.
    std::vector<std::thread> senders;
    std::vector<Outcome> parts(b.fg_connections);
    for (unsigned c = 0; c < b.fg_connections; ++c) {
        senders.emplace_back([&, c] {
            Outcome &part = parts[c];
            ServeClient client;
            if (!connect(client, part))
                return;
            for (std::size_t i = next++; i < count; i = next++) {
                const Request req = foreground(i);
                const auto due = dueAt(static_cast<double>(i) / b.fg_rate);
                std::this_thread::sleep_until(due);
                const auto sent = Clock::now();
                SweepResponse resp;
                double elapsed = 0.0;
                const bool ok = timedRoundTrip(client, req, resp, elapsed,
                                               part, &part.client_cpu_s);
                const auto done = Clock::now();
                latency_ms[i] =
                    std::chrono::duration<double, std::milli>(done - due)
                        .count();
                lateness_ms[i] =
                    std::chrono::duration<double, std::milli>(sent - due)
                        .count();
                if (!ok)
                    continue;
                absorb(ctx, part, req, resp,
                       {CellStatus::Computed, nullptr, i});
                if (i < digested.size() && resp.ok && !resp.cells.empty())
                    digested[i] = encodeSimResult(resp.cells[0].result);
            }
        });
    }

    ServeClient bg_client;
    const bool bg_connected = connect(bg_client, bg);
    for (std::uint64_t k = 0; bg_connected && k < passes; ++k) {
        Request req = backgroundGrid(b, deriveSeed(ctx.seed, kBackground, k));
        const auto due = dueAt(static_cast<double>(k) * b.bg_period_s);
        std::this_thread::sleep_until(due);
        SweepResponse resp;
        double elapsed = 0.0;
        if (!timedRoundTrip(bg_client, req, resp, elapsed, bg,
                            &bg.client_cpu_s))
            break;
        bg.pass_s.push_back(
            std::chrono::duration<double>(Clock::now() - due).count());
        absorb(ctx, bg, req, resp,
               {CellStatus::Computed, k == 0 ? &bg_digest : nullptr, k});
        background.push_back(std::move(req));
    }
    bg_client.disconnect();

    for (std::thread &t : senders)
        t.join();
    out.server_cpu_s = server.cpuSeconds() - cpu_start;
    setup.finish(out);
    finishServer(server, out);

    for (Outcome &part : parts)
        merge(out, std::move(part));
    out.pass_s = bg.pass_s;
    merge(out, std::move(bg));
    out.request_ms = std::move(latency_ms);
    out.lateness_ms = std::move(lateness_ms);
    for (const std::string &bytes : digested)
        digestReply(out.digest, bytes);
    out.digest ^= mix(bg_digest);

    out.attempted = warmup_cells + count + cellsOf(background);
    const std::size_t traced = std::min<std::size_t>(b.fg_traced, count);
    for (std::size_t i = 0; i < traced; ++i)
        out.traced.push_back(foreground(i));
    if (!background.empty())
        out.traced.push_back(background.front());
    return out;
}

// ---------------------------------------------------------------------
// trace-replay: an untimed prep writes one ATLBTRC2 file per trace
// workload with the real CLI; each timed pass is the grid over them
// under a fresh seed.

Outcome
runTraceReplay(const Context &ctx)
{
    const Budget &b = ctx.budget;
    Outcome out;
    for (std::uint64_t i = 0; i < std::size(kTraceWorkloads); ++i) {
        const char *workload = kTraceWorkloads[i];
        const std::string v1 = std::string(workload) + ".atlbtrc1";
        const bool ok =
            runTool(ctx.anchortlb,
                    {"gen-trace", std::string("--workload=") + workload,
                     "--accesses=" + std::to_string(b.trace_accesses),
                     "--scale=" + std::to_string(b.trace_scale),
                     "--seed=" + std::to_string(
                                     deriveSeed(ctx.seed, kTraceGen, i)),
                     "--out=" + v1}) &&
            runTool(ctx.anchortlb, {"trace", "convert", v1,
                                    traceFile(workload), "--to=v2"});
        std::remove(v1.c_str());
        if (!ok) {
            out.fail(std::string("trace prep failed for ") + workload);
            return out;
        }
    }

    coldGridPasses(ctx, "trace.results", kTracePass, out,
                   [&](std::uint64_t seed) { return traceGrid(b, seed); });
    return out;
}

} // namespace

Budget
fullBudget()
{
    return Budget{};
}

Budget
smokeBudget()
{
    Budget b;
    b.name = "smoke";
    b.seconds = 0.0;
    b.min_passes = 1;
    b.setup_starts = 2;
    b.grid_accesses = 20'000;
    b.grid_scale = 0.02;
    b.warm_seeds = 2;
    b.interactive_accesses = 20'000;
    b.interactive_scale = 0.02;
    b.fg_rate = 40.0;
    b.bg_period_s = 0.5;
    b.fg_traced = 8;
    b.trace_accesses = 20'000;
    b.trace_scale = 0.02;
    b.check_every = 4;
    b.untraced_every = 2;
    return b;
}

SimOptions
Request::options() const
{
    // The server's base options are the defaults (it starts with every
    // result-shaping ANCHORTLB_* knob removed from its environment); a
    // request overrides these three. threads is not part of a cell's key.
    SimOptions o;
    o.accesses = accesses;
    o.seed = seed;
    o.footprint_scale = scale;
    o.threads = 1;
    return o;
}

SweepRequest
Request::wire() const
{
    SweepRequest r;
    r.op = WireOp::Submit;
    r.cells = cells;
    r.accesses = accesses;
    r.seed = seed;
    r.scale = scale;
    return r;
}

void
Outcome::fail(std::string why, std::uint64_t cells)
{
    failed += std::max<std::uint64_t>(cells, 1);
    if (failures.size() < kKeptFailures)
        failures.push_back(std::move(why));
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig9-cold",
         "the paper's headline grid on a cold store: stream generation "
         "and the translate kernel dominate, and every cell is appended",
         runFig9Cold},
        {"fig9-warm",
         "the same grid answered from a filled store: no simulation, only "
         "store replay, key hashing, lookups and the wire codec",
         runFig9Warm},
        {"interactive",
         "single-cell submits at paper footprints while a grid runs: pair "
         "builds and scheduler queue wait set the latency users feel",
         runInteractive},
        {"trace-replay",
         "a grid over ATLBTRC2 trace files: decode replaces the generator "
         "and the kernel does most of the work",
         runTraceReplay},
    };
    return all;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t k)
{
    return mix(mix(mix(seed) ^ stream) ^ k) & 0xffffffffULL;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
digestReply(std::uint64_t &digest, const std::string &bytes)
{
    const auto fold = [&digest](unsigned char byte) {
        digest ^= byte;
        digest *= fnv1aPrime;
    };
    for (unsigned i = 0; i < 8; ++i)
        fold(static_cast<unsigned char>(bytes.size() >> (8 * i)));
    for (const char c : bytes)
        fold(static_cast<unsigned char>(c));
}

} // namespace atlb::e2e
