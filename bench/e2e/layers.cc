/**
 * @file
 * The traced pass of bench_e2e --trace 1: a serial, in-process replay
 * of a workload's first requests that times every layer from outside.
 *
 * Each request follows the server's path (key, store lookup, claimed
 * misses sorted by pair, store append, wire encode/decode), and each
 * claimed cell mirrors runCellJob: a fresh stream per simulation and a
 * private anchor table per anchor distance. Stream time comes from a
 * timing TraceSource around makeCellTrace's source, handed to the real
 * runSimulation, so no stream is materialised. Pair state lives in an
 * LRU the size of the server's default pair cache.
 *
 * Spans (name, start, end, parent, cell) stay in memory and are
 * written as JSON lines when the pass ends. A layer's self time is its
 * spans' durations minus the part their child spans cover. On a seeded
 * sample of cells the real runCellJob also runs, untraced but timed as
 * a whole: that pins the mirror byte for byte and yields
 * sim.unattributed_frac, the share of runCellJob no layer accounts for.
 */

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "e2e.hh"
#include "mmu/mmu.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "serve/result_store.hh"
#include "sim/parallel_runner.hh"

namespace atlb::e2e
{

namespace
{

/** Serve's default pair-state cache (ServeOptions::max_pairs). */
constexpr std::size_t kPairCache = 8;

/** deriveSeed stream that picks the cells also run untraced. */
constexpr std::uint64_t kUntracedStream = 0x756e74;

struct Span
{
    const char *name = "";
    Clock::time_point start;
    Clock::duration duration{};
    std::int64_t parent = -1;
    std::int64_t cell = -1;
};

class Tracer
{
  public:
    /** Open a span now; close it with close(). */
    std::size_t open(const char *name, std::int64_t cell,
                     std::int64_t parent = -1)
    {
        spans_.push_back({name, Clock::now(), {}, parent, cell});
        return spans_.size() - 1;
    }

    void close(std::size_t id)
    {
        spans_[id].duration = Clock::now() - spans_[id].start;
    }

    /** A span whose time was accumulated elsewhere. */
    void add(const char *name, std::int64_t cell, std::int64_t parent,
             Clock::time_point start, Clock::duration duration)
    {
        spans_.push_back({name, start, duration, parent, cell});
    }

    /** Per-name totals: spans, seconds, self seconds. */
    struct Total
    {
        std::uint64_t count = 0;
        double seconds = 0.0;
        double self_seconds = 0.0;
    };

    std::map<std::string, Total> totals() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += seconds(s);
        std::map<std::string, Total> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Total &t = out[spans_[i].name];
            ++t.count;
            t.seconds += seconds(spans_[i]);
            t.self_seconds += seconds(spans_[i]) - child[i];
        }
        return out;
    }

    /** Children-covered seconds of span @p id. */
    double childSeconds(std::size_t id) const
    {
        double sum = 0.0;
        for (std::size_t i = id + 1; i < spans_.size(); ++i)
            if (spans_[i].parent == static_cast<std::int64_t>(id))
                sum += seconds(spans_[i]);
        return sum;
    }

    void write(const std::string &path, Clock::time_point epoch) const
    {
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto ns = [](Clock::duration d) {
                return std::chrono::duration_cast<std::chrono::nanoseconds>(
                           d)
                    .count();
            };
            out << "{\"id\": " << i << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << ns(s.start - epoch)
                << ", \"end_ns\": " << ns(s.start - epoch + s.duration)
                << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
                << "}\n";
        }
    }

    static double seconds(const Span &s)
    {
        return std::chrono::duration<double>(s.duration).count();
    }

  private:
    std::vector<Span> spans_;
};

/** Closes its span on scope exit. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::int64_t cell,
          std::int64_t parent = -1)
        : tracer_(tracer), id_(tracer.open(name, cell, parent))
    {
    }
    ~Scope() { tracer_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return static_cast<std::int64_t>(id_); }

  private:
    Tracer &tracer_;
    std::size_t id_;
};

/** Times every pull from the wrapped stream. */
class TimedSource final : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner) : inner_(inner) {}

    bool next(MemAccess &out) override
    {
        const auto start = Clock::now();
        const bool ok = inner_.next(out);
        busy_ += Clock::now() - start;
        return ok;
    }

    std::size_t fill(MemAccess *out, std::size_t max) override
    {
        const auto start = Clock::now();
        const std::size_t n = inner_.fill(out, max);
        busy_ += Clock::now() - start;
        return n;
    }

    void reset() override { inner_.reset(); }

    Clock::duration busy() const { return busy_; }

  private:
    TraceSource &inner_;
    Clock::duration busy_{};
};

/** Counters summed over every traced simulation. */
struct SimCounters
{
    std::uint64_t generated = 0; //!< synthetic stream accesses
    std::uint64_t decoded = 0;   //!< trace-file stream accesses
    MmuStats stats;
    BatchStats batch;
};

/** One pair-state slot of the LRU, with its lazily built tables. */
struct PairSlot
{
    std::string key;
    std::unique_ptr<CellPairState> pair;
    bool plain = false;
    bool thp = false;
};

class TracedPass
{
  public:
    TracedPass(const Context &ctx, Tracer &tracer)
        : ctx_(ctx), tracer_(tracer)
    {
    }

    /** Resolve @p req as the server would, against @p store. */
    void request(const Request &req, ResultStore &store);

    SimCounters counters;
    std::uint64_t lookups = 0;
    std::uint64_t appends = 0;
    std::uint64_t wire_bytes = 0;
    double sampled_layer_s = 0.0;
    double sampled_untraced_s = 0.0;
    std::uint64_t sampled = 0;
    std::uint64_t mismatches = 0;

  private:
    CellPairState &pairFor(const SimOptions &o, const CellRequest &c,
                           std::int64_t cell);
    SimResult runCell(const SimOptions &o, const CellPairState &pair,
                      const CellJob &job, std::int64_t cell,
                      std::int64_t parent);
    SimResult simulate(const SimOptions &o, const CellPairState &pair,
                       const PageTable &table, Scheme scheme,
                       std::uint64_t distance, std::int64_t cell,
                       std::int64_t parent);
    PageTable anchorTable(const CellPairState &pair,
                          std::uint64_t distance, std::int64_t cell,
                          std::int64_t parent);

    const Context &ctx_;
    Tracer &tracer_;
    std::deque<PairSlot> pairs_; //!< front = least recently used
    std::int64_t next_cell_ = 0;
};

CellPairState &
TracedPass::pairFor(const SimOptions &o, const CellRequest &c,
                    std::int64_t cell)
{
    const std::string key = c.workload + "|" +
                            scenarioName(c.scenario) + "|" +
                            std::to_string(o.seed) + "|" +
                            std::to_string(o.footprint_scale);
    auto it = std::find_if(pairs_.begin(), pairs_.end(),
                           [&key](const PairSlot &s) { return s.key == key; });
    if (it == pairs_.end()) {
        PairSlot slot;
        slot.key = key;
        {
            const Scope span(tracer_, "os.pair_build", cell);
            slot.pair = std::make_unique<CellPairState>(o, c.workload,
                                                        c.scenario);
        }
        pairs_.push_back(std::move(slot));
        if (pairs_.size() > kPairCache)
            pairs_.pop_front();
    } else if (std::next(it) != pairs_.end()) {
        PairSlot slot = std::move(*it);
        pairs_.erase(it);
        pairs_.push_back(std::move(slot));
    }
    PairSlot &slot = pairs_.back();
    // The plain/THP tables are built lazily on first use; build them
    // here, in their own span, so cells never pay for them.
    const bool plain =
        c.scheme == Scheme::Base || c.scheme == Scheme::Cluster;
    const bool thp = c.scheme == Scheme::Thp ||
                     c.scheme == Scheme::Cluster2MB ||
                     c.scheme == Scheme::Rmm;
    if (plain && !slot.plain) {
        const Scope span(tracer_, "os.table_build", cell);
        slot.pair->plainTable();
        slot.plain = true;
    }
    if (thp && !slot.thp) {
        const Scope span(tracer_, "os.table_build", cell);
        slot.pair->thpTable();
        slot.thp = true;
    }
    return *slot.pair;
}

PageTable
TracedPass::anchorTable(const CellPairState &pair, std::uint64_t distance,
                        std::int64_t cell, std::int64_t parent)
{
    const Scope span(tracer_, "os.anchor_table", cell, parent);
    return buildAnchorPageTable(pair.map(), AnchorDist::fromPages(distance));
}

SimResult
TracedPass::simulate(const SimOptions &o, const CellPairState &pair,
                     const PageTable &table, Scheme scheme,
                     std::uint64_t distance, std::int64_t cell,
                     std::int64_t parent)
{
    // runSchemeCell's body, with the stream behind a timing decorator.
    const Scope span(tracer_, "mmu.sim", cell, parent);
    const WorkloadSpec &spec = pair.spec();
    const auto stream_start = Clock::now();
    const std::unique_ptr<TraceSource> source =
        makeCellTrace(o, spec, cellAccesses(o, spec));
    const Clock::duration open = Clock::now() - stream_start;
    TimedSource stream(*source);
    const std::unique_ptr<Mmu> mmu =
        buildSchemeMmu(o.mmu, table, pair.map(), scheme, distance);
    BatchStats batch;
    SimResult res = runSimulation(*mmu, stream, spec.mem_per_instr,
                                  o.translate_mode, &batch);
    res.workload = spec.name;
    res.scenario = scenarioName(pair.scenario());
    res.scheme = schemeName(scheme);
    if (scheme == Scheme::Anchor || scheme == Scheme::AnchorIdeal)
        res.anchor_distance = distance;

    tracer_.add(spec.traceDriven() ? "ingest.decode" : "trace.gen", cell,
                span.id(), stream_start, open + stream.busy());
    (spec.traceDriven() ? counters.decoded : counters.generated) +=
        res.stats.accesses;
    counters.stats += res.stats;
    counters.batch += batch;
    return res;
}

SimResult
TracedPass::runCell(const SimOptions &o, const CellPairState &pair,
                    const CellJob &job, std::int64_t cell,
                    std::int64_t parent)
{
    // runCellJob's switch, scheme by scheme.
    switch (job.scheme) {
      case Scheme::Base:
      case Scheme::Cluster:
        return simulate(o, pair, pair.plainTable(), job.scheme, 0, cell,
                        parent);
      case Scheme::Thp:
      case Scheme::Cluster2MB:
      case Scheme::Rmm:
        return simulate(o, pair, pair.thpTable(), job.scheme, 0, cell,
                        parent);
      case Scheme::Anchor: {
        const std::uint64_t distance = job.distance_override
                                           ? *job.distance_override
                                           : pair.dynamicDistance();
        const PageTable table = anchorTable(pair, distance, cell, parent);
        return simulate(o, pair, table, job.scheme, distance, cell,
                        parent);
      }
      case Scheme::AnchorIdeal: {
        SimResult best;
        bool have_best = false;
        for (const std::uint64_t distance : candidateDistances()) {
            const PageTable table =
                anchorTable(pair, distance, cell, parent);
            SimResult res = simulate(o, pair, table, job.scheme, distance,
                                     cell, parent);
            if (!have_best || res.misses() < best.misses()) {
                best = std::move(res);
                have_best = true;
            }
        }
        return best;
      }
    }
    return {};
}

void
TracedPass::request(const Request &req, ResultStore &store)
{
    const SimOptions o = req.options();
    SweepResponse resp;
    resp.ok = true;
    resp.cells.resize(req.cells.size());

    // Tier 1: key and store lookup, trace files hashed once per request.
    std::unordered_map<std::string, std::uint64_t> trace_hashes;
    std::vector<std::pair<std::size_t, CellKey>> owned;
    for (std::size_t i = 0; i < req.cells.size(); ++i) {
        const CellRequest &c = req.cells[i];
        CellKey key;
        {
            const Scope span(tracer_, "serve.key", -1);
            auto memo = trace_hashes.find(c.workload);
            if (memo == trace_hashes.end())
                memo = trace_hashes
                           .emplace(c.workload,
                                    traceContentHash(c.workload))
                           .first;
            key = cellKeyFor(o,
                             CellSpec{c.workload, c.scenario, c.scheme,
                                      c.distance},
                             memo->second);
        }
        resp.cells[i].key = key.raw();
        std::optional<SimResult> hit;
        {
            const Scope span(tracer_, "serve.store_lookup", -1);
            hit = store.lookup(key);
        }
        ++lookups;
        if (hit) {
            resp.cells[i].status = CellStatus::Hit;
            resp.cells[i].result = *std::move(hit);
        } else {
            owned.emplace_back(i, key);
        }
    }

    // Tier 3: claimed misses in (workload, scenario) order.
    std::stable_sort(owned.begin(), owned.end(),
                     [&req](const auto &a, const auto &b) {
                         const CellRequest &ca = req.cells[a.first];
                         const CellRequest &cb = req.cells[b.first];
                         if (ca.workload != cb.workload)
                             return ca.workload < cb.workload;
                         return ca.scenario < cb.scenario;
                     });
    for (const auto &[index, key] : owned) {
        const CellRequest &c = req.cells[index];
        const std::int64_t id = next_cell_++;
        const CellPairState &pair = pairFor(o, c, id);
        const CellJob job{c.workload, c.scenario, c.scheme, c.distance};

        const bool sample =
            deriveSeed(ctx_.seed, kUntracedStream,
                       static_cast<std::uint64_t>(id)) %
                ctx_.budget.untraced_every ==
            0;
        // A sampled cell first runs once untimed, so the traced and the
        // timed untraced run both find the heap and caches warm; the
        // first of any two runs would otherwise pay for fresh pages.
        if (sample)
            runCellJob(o, pair, job);

        SimResult result;
        std::size_t cell_span = 0;
        {
            const Scope span(tracer_, "sim.cell", id);
            cell_span = static_cast<std::size_t>(span.id());
            result = runCell(o, pair, job, id, span.id());
        }
        if (sample) {
            const auto start = Clock::now();
            const SimResult untraced = runCellJob(o, pair, job);
            sampled_untraced_s += secondsSince(start);
            sampled_layer_s += tracer_.childSeconds(cell_span);
            ++sampled;
            if (encodeSimResult(untraced) != encodeSimResult(result))
                ++mismatches;
        }

        {
            const Scope span(tracer_, "serve.store_append", id);
            store.store(key, result);
        }
        ++appends;
        resp.cells[index].status = CellStatus::Computed;
        resp.cells[index].result = std::move(result);
    }

    std::string request_line;
    std::string reply_line;
    {
        const Scope span(tracer_, "serve.wire_encode", -1);
        request_line = encodeRequest(req.wire());
        reply_line = encodeResponse(resp);
    }
    {
        const Scope span(tracer_, "serve.wire_decode", -1);
        SweepRequest decoded_req;
        SweepResponse decoded;
        std::string error;
        if (!decodeRequest(request_line, decoded_req, &error) ||
            !decodeResponse(reply_line, decoded, &error))
            ++mismatches;
    }
    wire_bytes += request_line.size() + reply_line.size() + 2;
}

std::uint64_t
statValue(const Outcome &outcome, const std::string &name)
{
    for (const auto &[key, value] : outcome.server_stats)
        if (key == name)
            return value;
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

LayerReport
traceLayers(const Context &ctx, const Outcome &outcome,
            const std::string &spans_path)
{
    const auto epoch = Clock::now();
    Tracer tracer;
    TracedPass pass(ctx, tracer);

    const std::string store_path =
        outcome.traced_store.empty() ? "traced.results"
                                     : outcome.traced_store;
    if (outcome.traced_store.empty())
        std::remove(store_path.c_str());
    std::optional<ResultStore> store;
    {
        const Scope span(tracer, "serve.store_open", -1);
        store.emplace(store_path);
    }
    for (const Request &req : outcome.traced)
        pass.request(req, *store);
    const std::uint64_t file_bytes = store->info().file_bytes;
    store.reset();
    tracer.write(spans_path, epoch);

    const std::map<std::string, Tracer::Total> totals = tracer.totals();
    const auto self = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.self_seconds;
    };
    const auto count = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : static_cast<double>(it->second.count);
    };
    const auto total = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.seconds;
    };
    const SimCounters &c = pass.counters;
    const auto generated = static_cast<double>(c.generated);
    const auto decoded = static_cast<double>(c.decoded);
    const auto accesses = static_cast<double>(c.stats.accesses);

    LayerReport report;
    report.sampled = pass.sampled;
    report.mismatches = pass.mismatches;
    report.metrics = {
        {"os.pair_build_s", self("os.pair_build")},
        {"os.pair_builds", count("os.pair_build")},
        {"os.table_build_s", self("os.table_build")},
        {"os.table_builds", count("os.table_build")},
        {"os.anchor_table_s", self("os.anchor_table")},
        {"os.anchor_tables", count("os.anchor_table")},
        {"trace.gen_s", self("trace.gen")},
        {"trace.accesses", generated},
        {"trace.gen_maccess_per_s",
         ratio(generated, self("trace.gen")) / 1e6},
        {"ingest.decode_s", self("ingest.decode")},
        {"ingest.accesses", decoded},
        {"ingest.decode_maccess_per_s",
         ratio(decoded, self("ingest.decode")) / 1e6},
        {"mmu.kernel_s", self("mmu.sim")},
        {"mmu.sims", count("mmu.sim")},
        {"mmu.kernel_maccess_per_s",
         ratio(accesses, self("mmu.sim")) / 1e6},
        {"mmu.l0_filtered_frac",
         ratio(static_cast<double>(c.batch.l0_filtered),
               static_cast<double>(c.batch.accesses))},
        {"mmu.l1_hit_frac",
         ratio(static_cast<double>(c.stats.l1_hits), accesses)},
        {"mmu.coalesced_hit_frac",
         ratio(static_cast<double>(c.stats.coalesced_hits),
               static_cast<double>(c.stats.l2Accesses()))},
        {"mmu.walks_per_kaccess",
         1e3 * ratio(static_cast<double>(c.stats.page_walks), accesses)},
        {"serve.key_s", self("serve.key")},
        {"serve.store_open_s", self("serve.store_open")},
        {"serve.store_lookup_s", self("serve.store_lookup")},
        {"serve.store_lookups", static_cast<double>(pass.lookups)},
        {"serve.wire_encode_s", self("serve.wire_encode")},
        {"serve.wire_decode_s", self("serve.wire_decode")},
        {"serve.wire_bytes", static_cast<double>(pass.wire_bytes)},
        {"serve.store_append_s", self("serve.store_append")},
        {"serve.store_appends", static_cast<double>(pass.appends)},
        {"serve.store_file_bytes", static_cast<double>(file_bytes)},
        {"serve.queue_wait_ms_p50",
         static_cast<double>(statValue(outcome, "queue_wait_us_p50")) /
             1e3},
        {"serve.queue_wait_ms_p99",
         static_cast<double>(statValue(outcome, "queue_wait_us_p99")) /
             1e3},
        {"serve.pair_builds",
         static_cast<double>(statValue(outcome, "sched_pair_builds"))},
        {"serve.pair_reuses",
         static_cast<double>(statValue(outcome, "sched_pair_reuses"))},
        {"serve.admission_stalls",
         static_cast<double>(statValue(outcome, "admission_stalls"))},
        {"serve.peak_rss_mb", outcome.peak_rss_mb},
        {"sim.cell_s", total("sim.cell")},
        {"sim.unattributed_frac",
         pass.sampled ? 1.0 - ratio(pass.sampled_layer_s,
                                    pass.sampled_untraced_s)
                      : 0.0},
    };
    return report;
}

} // namespace atlb::e2e
