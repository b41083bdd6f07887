/**
 * @file
 * End-to-end tests for the sweep service: a real SweepServer on a unix
 * socket, driven through ServeClient (and one raw socket for malformed
 * lines). Pins the service's properties: served results are
 * byte-identical to the reference (runCellJob on a fresh pair), a
 * repeated sweep recomputes zero cells, and N identical concurrent
 * submissions simulate exactly once.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"
#include "ingest/trace_v2_crafted.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/cell_reference.hh"
#include "sim/experiment.hh"

namespace atlb
{
namespace
{

namespace fs = std::filesystem;

SimOptions
quickOptions()
{
    SimOptions opts;
    opts.accesses = 20'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02;
    return opts;
}

/** A running server on fresh socket/store paths, torn down on exit. */
struct TestServer
{
    ServeOptions opts;
    std::unique_ptr<SweepServer> server;
    std::thread thread;

    explicit TestServer(const std::string &name,
                        const SimOptions &base = quickOptions())
    {
        opts.socket_path = testing::TempDir() + "atlb_" + name + ".sock";
        opts.store_path =
            testing::TempDir() + "atlb_" + name + ".results";
        fs::remove(opts.socket_path);
        fs::remove(opts.store_path);
        opts.base = base;
        start();
    }

    ~TestServer()
    {
        stop();
        fs::remove(opts.store_path);
    }

    /**
     * Destroy the server, which releases its store's lock, and start a
     * fresh one over the same store file.
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
        if (!server->start(&error)) {
            ADD_FAILURE() << "server start failed: " << error;
            return;
        }
        thread = std::thread([this] { server->run(); });
    }

    void stop()
    {
        if (server)
            server->requestStop();
        if (thread.joinable())
            thread.join();
        server.reset();
    }
};

SweepResponse
roundTrip(const TestServer &ts, const SweepRequest &req)
{
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(ts.opts.socket_path, &error)) << error;
    SweepResponse resp;
    EXPECT_TRUE(client.roundTrip(req, resp, &error)) << error;
    return resp;
}

std::uint64_t
counterValue(const SweepResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.counters) {
        if (key == name)
            return value;
    }
    ADD_FAILURE() << "response carries no counter '" << name << "'";
    return 0;
}

/**
 * A raw client socket, for bytes no ServeClient would send: malformed
 * lines, pipelined lines, lines split across sends.
 */
class RawConnection
{
  public:
    explicit RawConnection(const TestServer &ts)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, ts.opts.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConnection() { ::close(fd_); }

    RawConnection(const RawConnection &) = delete;
    RawConnection &operator=(const RawConnection &) = delete;

    /** Send all of @p bytes; false once the server has hung up. */
    bool send(std::string_view bytes)
    {
        while (!bytes.empty()) {
            const long n =
                ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            bytes.remove_prefix(static_cast<std::size_t>(n));
        }
        return true;
    }

    /** The next reply line, decoded; false at end of stream. */
    bool reply(SweepResponse &resp)
    {
        std::string line;
        while (!lines_.next(line)) {
            char chunk[4096];
            const long n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            lines_.append(chunk, static_cast<std::size_t>(n));
        }
        std::string error;
        EXPECT_TRUE(decodeResponse(line, resp, &error)) << error;
        return true;
    }

  private:
    int fd_ = -1;
    LineBuffer lines_;
};

/** 2 workloads x medium x 2 schemes: small but exercises Anchor. */
SweepRequest
gridRequest(WireOp op)
{
    SweepRequest req;
    req.op = op;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (const Scheme scheme : {Scheme::Base, Scheme::Anchor}) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = ScenarioKind::MedContig;
            cell.scheme = scheme;
            req.cells.push_back(cell);
        }
    }
    return req;
}

/** The reference result of one requested cell. */
SimResult
freshResult(const CellRequest &cell)
{
    return freshCellResult(quickOptions(),
                           CellJob{cell.workload, cell.scenario,
                                   cell.scheme, cell.distance});
}

TEST(ServeServer, RepeatSubmitHitsAndMatchesDirectRun)
{
    TestServer ts("repeat");

    const SweepResponse first = roundTrip(ts, gridRequest(WireOp::Submit));
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.cells.size(), 4u);
    for (const CellReply &cell : first.cells)
        EXPECT_EQ(cell.status, CellStatus::Computed);
    EXPECT_EQ(counterValue(first, "simulations"), 4u);
    EXPECT_EQ(counterValue(first, "hits"), 0u);

    // The whole grid again: zero cells recomputed, all from the store.
    const SweepResponse second =
        roundTrip(ts, gridRequest(WireOp::Submit));
    ASSERT_TRUE(second.ok) << second.error;
    for (std::size_t i = 0; i < second.cells.size(); ++i) {
        EXPECT_EQ(second.cells[i].status, CellStatus::Hit);
        EXPECT_EQ(second.cells[i].key, first.cells[i].key);
        expectSameResult(second.cells[i].result, first.cells[i].result);
    }
    EXPECT_EQ(counterValue(second, "simulations"), 4u); // unchanged
    EXPECT_EQ(counterValue(second, "hits"), 4u);

    // Served results are byte-identical to the reference.
    const SweepRequest grid = gridRequest(WireOp::Submit);
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const CellRequest &cell = grid.cells[i];
        expectSameResult(first.cells[i].result, freshResult(cell));
        EXPECT_EQ(first.cells[i].key,
                  cellKeyFor(quickOptions(),
                             CellSpec{cell.workload, cell.scenario,
                                      cell.scheme, cell.distance})
                      .raw());
    }
}

TEST(ServeServer, QueryMissesThenHitsAfterSubmit)
{
    TestServer ts("query");

    const SweepResponse miss = roundTrip(ts, gridRequest(WireOp::Query));
    ASSERT_TRUE(miss.ok) << miss.error;
    for (const CellReply &cell : miss.cells)
        EXPECT_EQ(cell.status, CellStatus::Miss);
    EXPECT_EQ(counterValue(miss, "simulations"), 0u)
        << "query must never simulate";

    roundTrip(ts, gridRequest(WireOp::Submit));
    const SweepResponse hit = roundTrip(ts, gridRequest(WireOp::Query));
    ASSERT_TRUE(hit.ok) << hit.error;
    for (const CellReply &cell : hit.cells)
        EXPECT_EQ(cell.status, CellStatus::Hit);
}

TEST(ServeServer, UnknownWorkloadIsACellError)
{
    TestServer ts("cell_error");

    SweepRequest req;
    req.op = WireOp::Submit;
    CellRequest bad;
    bad.workload = "no_such_workload";
    CellRequest good;
    good.workload = "canneal";
    req.cells = {bad, good};

    const SweepResponse resp = roundTrip(ts, req);
    ASSERT_TRUE(resp.ok) << resp.error; // request-level ok
    ASSERT_EQ(resp.cells.size(), 2u);
    EXPECT_EQ(resp.cells[0].status, CellStatus::Error);
    EXPECT_FALSE(resp.cells[0].error.empty());
    EXPECT_EQ(resp.cells[1].status, CellStatus::Computed);
    EXPECT_EQ(counterValue(resp, "cell_errors"), 1u);
}

TEST(ServeServer, UnusableTraceFileIsACellError)
{
    // The engine's workload check once ran only on a worker, where its
    // fatal error ended the server: each of these files took it down.
    TestServer ts("unusable_trace");
    const std::string prefix = testing::TempDir() + "atlb_unusable_" +
                               std::to_string(::getpid());
    const std::string text = prefix + ".txt";
    const std::string below_base = prefix + "_low.atlbtrc1";
    const std::string empty = prefix + "_empty.atlbtrc1";
    const std::string truncated = prefix + "_truncated.atlbtrc1";
    const std::string padded = prefix + "_padded.atlbtrc1";
    {
        std::ofstream out(text);
        out << "0x7f0000000000 R\n";
    }
    {
        TraceWriter writer(below_base);
        writer.append(MemAccess{VirtAddr{0x1000}, false});
    }
    {
        TraceWriter writer(empty);
    }
    for (const std::string &path : {truncated, padded}) {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < 4; ++i)
            writer.append(MemAccess{traceBaseVa() + i * pageBytes, false});
    }
    std::filesystem::resize_file(truncated, 16 + 4 * 8 - 4);
    std::filesystem::resize_file(padded, 16 + 4 * 8 + 4);
    // ATLBTRC2 files whose trailer or block index does not hold up.
    const std::string v2_magic = prefix + "_magic.atlbtrc2";
    const std::string v2_index = prefix + "_index.atlbtrc2";
    const std::string v2_cut = prefix + "_cut.atlbtrc2";
    for (const std::string &path : {v2_magic, v2_index, v2_cut}) {
        TraceV2Writer writer(path, 2);
        for (std::uint64_t i = 0; i < 5; ++i)
            writer.append(MemAccess{traceBaseVa() + i * pageBytes, false});
    }
    const auto flipByte = [](const std::string &path, std::uint64_t from_end) {
        std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
        io.seekg(-static_cast<std::streamoff>(from_end), std::ios::end);
        const char byte = static_cast<char>(io.get() ^ 0x20);
        io.seekp(-static_cast<std::streamoff>(from_end), std::ios::end);
        io.put(byte);
    };
    flipByte(v2_magic, 1);       // last byte of the trailer magic
    flipByte(v2_index, 64 - 40); // first byte of the index checksum
    std::filesystem::resize_file(v2_cut,
                                 std::filesystem::file_size(v2_cut) - 1);
    // A block of 2^58 + 1 accesses whose header, trailer and index all
    // agree: its decode once ended the server.
    const std::string v2_huge = prefix + "_huge.atlbtrc2";
    test::writeOversizedPackedBlockTrace(v2_huge, traceBaseVa().raw());
    const std::vector<std::string> paths = {
        text,   below_base, empty,    truncated,
        padded, v2_magic,   v2_index, v2_cut,
        v2_huge};

    SweepRequest req;
    req.op = WireOp::Submit;
    for (const std::string &path : paths) {
        req.cells.push_back(CellRequest{"trace:" + path,
                                        ScenarioKind::MedContig,
                                        Scheme::Base,
                                        {}});
    }
    req.cells.push_back(
        CellRequest{"canneal", ScenarioKind::MedContig, Scheme::Base, {}});

    const SweepResponse resp = roundTrip(ts, req);
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_EQ(resp.cells.size(), paths.size() + 1);
    const char *const messages[] = {
        "is neither an ATLBTRC1 nor an ATLBTRC2 trace file",
        "touches vaddr 4096 below the simulated region base",
        "is empty; nothing to simulate",
        "header counts 4 accesses but the file holds 44 bytes",
        "header counts 4 accesses but the file holds 52 bytes",
        "bad ATLBTRC2 trailer magic",
        "ATLBTRC2 block index fails its checksum",
        "bad ATLBTRC2 trailer magic",
        "ATLBTRC2 block capacity 288230376151711745 in header is outside",
    };
    for (std::size_t i = 0; i < paths.size(); ++i) {
        SCOPED_TRACE(req.cells[i].workload);
        EXPECT_EQ(resp.cells[i].status, CellStatus::Error);
        EXPECT_NE(resp.cells[i].error.find(messages[i]), std::string::npos)
            << resp.cells[i].error;
    }
    EXPECT_EQ(resp.cells.back().status, CellStatus::Computed);
    EXPECT_EQ(counterValue(resp, "cell_errors"), paths.size());

    // The server is still up and answers the next request.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    EXPECT_TRUE(roundTrip(ts, stats).ok);
    for (const std::string &path : paths)
        std::remove(path.c_str());
}

TEST(ServeServer, ReopenedStoreAnswersAGridWithoutBuildingPairs)
{
    // Four workers fill the store; a fresh server over the same file
    // answers every cell from it without touching pair state.
    SimOptions base = quickOptions();
    base.threads = 4;
    TestServer ts("reopened_store", base);
    SweepRequest req = gridRequest(WireOp::Submit);
    req.cells.push_back(
        CellRequest{"canneal", ScenarioKind::MedContig, Scheme::Thp, {}});
    req.cells.push_back(CellRequest{"canneal", ScenarioKind::MedContig,
                                    Scheme::AnchorIdeal,
                                    {}});

    const SweepResponse cold = roundTrip(ts, req);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(cold.cells.size(), req.cells.size());
    for (const CellReply &cell : cold.cells)
        EXPECT_EQ(cell.status, CellStatus::Computed);

    ts.restart();
    const SweepResponse warm = roundTrip(ts, req);
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_EQ(warm.cells.size(), req.cells.size());
    EXPECT_EQ(counterValue(warm, "simulations"), 0u);
    EXPECT_EQ(counterValue(warm, "sched_pair_builds"), 0u);
    for (std::size_t i = 0; i < req.cells.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(warm.cells[i].status, CellStatus::Hit);
        EXPECT_EQ(warm.cells[i].key, cold.cells[i].key);
        EXPECT_EQ(encodeSimResult(warm.cells[i].result),
                  encodeSimResult(cold.cells[i].result));
        expectSameResult(cold.cells[i].result, freshResult(req.cells[i]));
    }
}

TEST(ServeServer, InvalidKnobsAreARequestError)
{
    TestServer ts("bad_knobs");

    // Out of (0, 1], and NaN, which fails every comparison and once
    // slipped past the range check into the footprint arithmetic.
    for (const double scale : {2.0, std::nan("")}) {
        SCOPED_TRACE(scale);
        SweepRequest req = gridRequest(WireOp::Submit);
        req.scale = scale;
        const SweepResponse resp = roundTrip(ts, req);
        EXPECT_FALSE(resp.ok);
        EXPECT_FALSE(resp.error.empty());
        EXPECT_EQ(counterValue(resp, "simulations"), 0u);
    }

    // The refusals left the server answering valid requests.
    const SweepRequest valid = gridRequest(WireOp::Submit);
    const SweepResponse ok = roundTrip(ts, valid);
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_EQ(ok.cells.size(), valid.cells.size());
    for (const CellReply &cell : ok.cells)
        EXPECT_EQ(cell.status, CellStatus::Computed);
}

TEST(ServeServer, MalformedLinePoisonsOnlyThatRequest)
{
    TestServer ts("malformed");
    RawConnection conn(ts);

    SweepResponse resp;
    ASSERT_TRUE(conn.send("this is not json\n"));
    ASSERT_TRUE(conn.reply(resp));
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(counterValue(resp, "bad_requests"), 1u);

    // The connection survives: a valid request on the same socket.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    SweepResponse ok_resp;
    ASSERT_TRUE(conn.send(encodeRequest(stats) + "\n"));
    ASSERT_TRUE(conn.reply(ok_resp));
    EXPECT_TRUE(ok_resp.ok);
}

TEST(ServeServer, TwoLinesInOneSendGetTwoRepliesInOrder)
{
    TestServer ts("pipelined");
    RawConnection conn(ts);

    SweepRequest query = gridRequest(WireOp::Query);
    query.cells.resize(1);
    SweepRequest stats;
    stats.op = WireOp::Stats;
    ASSERT_TRUE(conn.send(encodeRequest(query) + "\n" +
                          encodeRequest(stats) + "\r\n"));

    SweepResponse first, second;
    ASSERT_TRUE(conn.reply(first));
    ASSERT_TRUE(conn.reply(second));
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.cells.size(), 1u);
    EXPECT_EQ(first.cells[0].status, CellStatus::Miss);
    EXPECT_EQ(counterValue(first, "requests"), 1u);
    EXPECT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.cells.empty());
    EXPECT_EQ(counterValue(second, "requests"), 2u);
}

TEST(ServeServer, RequestSentOneBytePerSendIsAnswered)
{
    TestServer ts("bytewise");
    RawConnection conn(ts);

    const std::string line =
        encodeRequest(gridRequest(WireOp::Query)) + "\n";
    for (const char byte : line) {
        ASSERT_TRUE(conn.send(std::string_view(&byte, 1)));
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    SweepResponse resp;
    ASSERT_TRUE(conn.reply(resp));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.cells.size(), 4u);
    EXPECT_EQ(counterValue(resp, "requests"), 1u);
}

TEST(ServeServer, OversizedLineClosesOnlyItsConnection)
{
    TestServer ts("oversized");
    RawConnection bystander(ts);

    {
        // Past the 16 MiB line cap with no newline: the server hangs
        // up before it takes 17 MiB, and sends no reply.
        RawConnection flood(ts);
        const std::string block(1 << 20, 'x');
        int sent = 0;
        while (sent < 17 && flood.send(block))
            ++sent;
        ASSERT_LT(sent, 17) << "the server read past its line cap";
        SweepResponse resp;
        EXPECT_FALSE(flood.reply(resp));
    }

    SweepRequest stats;
    stats.op = WireOp::Stats;
    SweepResponse resp;
    ASSERT_TRUE(bystander.send(encodeRequest(stats) + "\n"));
    ASSERT_TRUE(bystander.reply(resp));
    EXPECT_TRUE(resp.ok);
    const SweepResponse fresh = roundTrip(ts, stats);
    EXPECT_TRUE(fresh.ok);
    EXPECT_EQ(counterValue(fresh, "bad_requests"), 0u);
}

TEST(ServeServer, ConcurrentIdenticalSubmitsSimulateOnce)
{
    TestServer ts("dedup");

    SweepRequest req;
    req.op = WireOp::Submit;
    CellRequest cell;
    cell.workload = "canneal";
    cell.scenario = ScenarioKind::MedContig;
    cell.scheme = Scheme::Base;
    req.cells = {cell};

    constexpr int clients = 6;
    std::vector<SweepResponse> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&ts, &req, &responses, i] {
            responses[static_cast<std::size_t>(i)] = roundTrip(ts, req);
        });
    }
    for (std::thread &t : threads)
        t.join();

    int computed = 0;
    for (const SweepResponse &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_EQ(resp.cells.size(), 1u);
        const CellStatus status = resp.cells[0].status;
        EXPECT_TRUE(status == CellStatus::Computed ||
                    status == CellStatus::Deduped ||
                    status == CellStatus::Hit)
            << cellStatusName(status);
        computed += status == CellStatus::Computed ? 1 : 0;
        expectSameResult(resp.cells[0].result, responses[0].cells[0].result);
    }
    EXPECT_EQ(computed, 1) << "exactly one client may simulate the cell";

    SweepRequest stats;
    stats.op = WireOp::Stats;
    const SweepResponse final_stats = roundTrip(ts, stats);
    EXPECT_EQ(counterValue(final_stats, "simulations"), 1u);
    EXPECT_EQ(counterValue(final_stats, "cells"),
              static_cast<std::uint64_t>(clients));
}

TEST(ServeServer, OverlappingGridsConserveCountersAndMatchDirectRun)
{
    TestServer ts("stress");

    // Every client submits the shared 4-cell grid plus one unique
    // Anchor cell, so requests overlap (dedup/hit paths) and diverge
    // (claimed paths) at the same time.
    constexpr int clients = 6;
    std::vector<SweepRequest> requests;
    for (int i = 0; i < clients; ++i) {
        SweepRequest req = gridRequest(WireOp::Submit);
        CellRequest unique;
        unique.workload = i % 2 == 0 ? "canneal" : "sphinx3";
        unique.scenario = ScenarioKind::MedContig;
        unique.scheme = Scheme::Anchor;
        unique.distance = std::uint64_t{2} << i; // valid: power of two
        req.cells.push_back(unique);
        requests.push_back(req);
    }

    std::vector<SweepResponse> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&ts, &requests, &responses, i] {
            responses[static_cast<std::size_t>(i)] =
                roundTrip(ts, requests[static_cast<std::size_t>(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Bit-identity: every reply cell, regardless of whether it was
    // computed, deduped, or served from the store, matches the
    // reference run of the same cell.
    for (int i = 0; i < clients; ++i) {
        const SweepResponse &resp =
            responses[static_cast<std::size_t>(i)];
        const SweepRequest &req = requests[static_cast<std::size_t>(i)];
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_EQ(resp.cells.size(), req.cells.size());
        for (std::size_t c = 0; c < req.cells.size(); ++c) {
            const CellRequest &cell = req.cells[c];
            EXPECT_NE(resp.cells[c].status, CellStatus::Error);
            expectSameResult(resp.cells[c].result, freshResult(cell));
        }
    }

    // Counter conservation: a submitted cell ends as exactly one of
    // hit / dedup / simulation / error, and each distinct cell
    // simulates exactly once.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    const SweepResponse final_stats = roundTrip(ts, stats);
    const std::uint64_t cells = counterValue(final_stats, "cells");
    EXPECT_EQ(cells, static_cast<std::uint64_t>(clients) * 5u);
    EXPECT_EQ(counterValue(final_stats, "hits") +
                  counterValue(final_stats, "dedups") +
                  counterValue(final_stats, "simulations") +
                  counterValue(final_stats, "cell_errors"),
              cells);
    EXPECT_EQ(counterValue(final_stats, "simulations"),
              4u + static_cast<std::uint64_t>(clients));
    EXPECT_EQ(counterValue(final_stats, "cell_errors"), 0u);
    EXPECT_EQ(counterValue(final_stats, "queue_wait_us_count"),
              counterValue(final_stats, "simulations"))
        << "every simulated cell must record its queue wait";
    EXPECT_GE(counterValue(final_stats, "request_wall_us_count"),
              static_cast<std::uint64_t>(clients));
}

TEST(ServeServer, SmallRequestIsNotStuckBehindALargeGrid)
{
    TestServer ts("fairness");

    // A large grid: 24 distinct Anchor cells. With the server's single
    // scheduler worker (base threads = 1) this runs long enough for a
    // small request to arrive mid-flight. Each cell simulates 200k
    // accesses because its pair generates the stream only once, so a
    // cell's cost is its anchor table and its kernel time alone.
    SweepRequest large;
    large.op = WireOp::Submit;
    large.accesses = 200'000;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (std::uint64_t d = 2; d <= (1u << 12); d <<= 1) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = ScenarioKind::MedContig;
            cell.scheme = Scheme::Anchor;
            cell.distance = d;
            large.cells.push_back(cell);
        }
    }

    std::atomic<bool> large_done{false};
    SweepResponse large_resp;
    std::thread big([&] {
        large_resp = roundTrip(ts, large);
        large_done = true;
    });

    // Wait until the large grid is actually inside the scheduler.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    for (int i = 0; i < 1000 && !large_done; ++i) {
        const SweepResponse s = roundTrip(ts, stats);
        if (counterValue(s, "sched_depth") +
                counterValue(s, "sched_running") >
            0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    SweepRequest small;
    small.op = WireOp::Submit;
    CellRequest cell;
    cell.workload = "canneal";
    cell.scenario = ScenarioKind::HighContig;
    cell.scheme = Scheme::Base;
    small.cells = {cell};
    const SweepResponse small_resp = roundTrip(ts, small);

    // Round-robin admission: the 1-cell request finishes after at most
    // a couple of the large grid's 24 cells, so the grid must still be
    // in flight when the small reply lands.
    EXPECT_FALSE(large_done.load())
        << "the small request queued behind the whole large grid";
    ASSERT_TRUE(small_resp.ok) << small_resp.error;
    ASSERT_EQ(small_resp.cells.size(), 1u);
    EXPECT_EQ(small_resp.cells[0].status, CellStatus::Computed);

    big.join();
    ASSERT_TRUE(large_resp.ok) << large_resp.error;
    for (const CellReply &reply : large_resp.cells)
        EXPECT_EQ(reply.status, CellStatus::Computed);

    // Interleaving must not bend any result: spot-check both requests
    // against the reference.
    expectSameResult(small_resp.cells[0].result,
                     freshResult(CellRequest{"canneal",
                                             ScenarioKind::HighContig,
                                             Scheme::Base,
                                             {}}));
    SimOptions large_options = quickOptions();
    large_options.accesses = *large.accesses;
    expectSameResult(large_resp.cells[0].result,
                     freshCellResult(large_options,
                                     CellJob{"canneal",
                                             ScenarioKind::MedContig,
                                             Scheme::Anchor, 2}));
}

TEST(ServeServer, ReplacedTraceFileIsNotServedFromItsOldPair)
{
    // The scheduler's pair cache once keyed trace:<path> by name alone:
    // after the file was rewritten, the new cell key missed the store
    // but ran against the old file's pair, whose mapping does not
    // cover the new stream (the server died on an unmapped vpn).
    TestServer ts("replaced_trace");
    const std::string path = testing::TempDir() + "atlb_replaced_" +
                             std::to_string(::getpid()) + ".atlbtrc1";
    SweepRequest req;
    req.op = WireOp::Submit;
    req.cells = {CellRequest{"trace:" + path, ScenarioKind::MedContig,
                             Scheme::Base, {}}};

    writeWorkloadTrace(path, quickOptions(), "mcf", 20'000);
    const SweepResponse first = roundTrip(ts, req);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.cells.size(), 1u);
    EXPECT_EQ(first.cells[0].status, CellStatus::Computed);

    writeWorkloadTrace(path, quickOptions(), "gups", 30'000);
    const SweepResponse second = roundTrip(ts, req);
    ASSERT_TRUE(second.ok) << second.error;
    ASSERT_EQ(second.cells.size(), 1u);
    EXPECT_EQ(second.cells[0].status, CellStatus::Computed);
    EXPECT_NE(second.cells[0].key, first.cells[0].key);
    expectSameResult(second.cells[0].result, freshResult(req.cells[0]));
    std::remove(path.c_str());
}

TEST(ServeServer, ShutdownOpStopsTheServer)
{
    TestServer ts("shutdown");

    SweepRequest req;
    req.op = WireOp::Shutdown;
    const SweepResponse resp = roundTrip(ts, req);
    EXPECT_TRUE(resp.ok);

    ts.thread.join(); // run() must return on its own
    EXPECT_FALSE(fs::exists(ts.opts.socket_path))
        << "a stopped server unlinks its socket";
}

} // namespace
} // namespace atlb
