/**
 * @file
 * Tests for the sweep-service wire protocol (JSON codec + messages):
 * round trips, one named test per decoding rule, and a differential
 * fuzz test of the typed decoders against the tree-walking reference
 * in wire_reference.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "serve/wire.hh"
#include "serve/wire_reference.hh"

namespace atlb
{
namespace
{

TEST(ServeWire, ParsesScalars)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("null", v, nullptr));
    EXPECT_EQ(v.kind, JsonValue::Kind::Null);

    ASSERT_TRUE(parseJson("true", v, nullptr));
    EXPECT_EQ(v.kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(v.boolean);

    ASSERT_TRUE(parseJson("12345", v, nullptr));
    EXPECT_EQ(v.kind, JsonValue::Kind::Number);
    EXPECT_TRUE(v.integer);
    EXPECT_EQ(v.u64, 12'345u);

    ASSERT_TRUE(parseJson("-1.5e2", v, nullptr));
    EXPECT_EQ(v.kind, JsonValue::Kind::Number);
    EXPECT_FALSE(v.integer);
    EXPECT_DOUBLE_EQ(v.number, -150.0);

    ASSERT_TRUE(parseJson("\"hi\"", v, nullptr));
    EXPECT_EQ(v.kind, JsonValue::Kind::String);
    EXPECT_EQ(v.text, "hi");
}

TEST(ServeWire, ParsesNestedStructure)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(
        R"({"op":"submit","cells":[{"workload":"milc","n":3}]})", v,
        nullptr));
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *op = v.find("op");
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->text, "submit");
    const JsonValue *cells = v.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->items.size(), 1u);
    const JsonValue *n = cells->items[0].find("n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->u64, 3u);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeWire, ParsesStringEscapes)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"("a\"b\\c\n\tA")", v, nullptr));
    EXPECT_EQ(v.text, "a\"b\\c\n\tA");
}

TEST(ServeWire, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("", v, &error));
    EXPECT_FALSE(parseJson("{", v, &error));
    EXPECT_FALSE(parseJson("{\"a\":}", v, &error));
    EXPECT_FALSE(parseJson("[1,]", v, &error));
    EXPECT_FALSE(parseJson("\"unterminated", v, &error));
    EXPECT_FALSE(parseJson("1 2", v, &error)); // trailing garbage
    EXPECT_FALSE(error.empty());
}

TEST(ServeWire, RejectsAdversarialNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, &error));
}

TEST(ServeWire, EscapeRoundTripsThroughParser)
{
    const std::string nasty = "quote \" backslash \\ newline \n tab \t";
    JsonValue v;
    ASSERT_TRUE(parseJson("\"" + escapeJson(nasty) + "\"", v, nullptr));
    EXPECT_EQ(v.text, nasty);
}

TEST(ServeWire, SchemeAndScenarioLookupsAreNonFatal)
{
    Scheme scheme = Scheme::Base;
    EXPECT_TRUE(schemeFromWireName("Dynamic", scheme));
    EXPECT_EQ(scheme, Scheme::Anchor);
    EXPECT_FALSE(schemeFromWireName("NoSuchScheme", scheme));

    ScenarioKind scenario = ScenarioKind::Demand;
    EXPECT_TRUE(scenarioFromWireName("medium", scenario));
    EXPECT_EQ(scenario, ScenarioKind::MedContig);
    EXPECT_FALSE(scenarioFromWireName("bogus", scenario));
}

SweepRequest
sampleRequest()
{
    SweepRequest req;
    req.op = WireOp::Submit;
    req.accesses = 30'000;
    req.seed = 7;
    req.scale = 0.02;
    CellRequest a;
    a.workload = "canneal";
    a.scenario = ScenarioKind::MedContig;
    a.scheme = Scheme::Anchor;
    a.distance = 64;
    CellRequest b;
    b.workload = "trace:/tmp/x.atlbtrc2";
    b.scenario = ScenarioKind::Demand;
    b.scheme = Scheme::Base;
    req.cells = {a, b};
    return req;
}

TEST(ServeWire, RequestRoundTrips)
{
    const SweepRequest req = sampleRequest();
    SweepRequest out;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), out, &error)) << error;
    EXPECT_EQ(out.op, WireOp::Submit);
    EXPECT_EQ(out.accesses, req.accesses);
    EXPECT_EQ(out.seed, req.seed);
    ASSERT_TRUE(out.scale.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*out.scale),
              std::bit_cast<std::uint64_t>(*req.scale));
    ASSERT_EQ(out.cells.size(), 2u);
    EXPECT_EQ(out.cells[0].workload, "canneal");
    EXPECT_EQ(out.cells[0].scenario, ScenarioKind::MedContig);
    EXPECT_EQ(out.cells[0].scheme, Scheme::Anchor);
    EXPECT_EQ(out.cells[0].distance, std::optional<std::uint64_t>{64});
    EXPECT_EQ(out.cells[1].workload, "trace:/tmp/x.atlbtrc2");
    EXPECT_FALSE(out.cells[1].distance.has_value());
}

TEST(ServeWire, RequestOmittedKnobsStayAbsent)
{
    SweepRequest req;
    req.op = WireOp::Query;
    SweepRequest out;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), out, nullptr));
    EXPECT_EQ(out.op, WireOp::Query);
    EXPECT_FALSE(out.accesses.has_value());
    EXPECT_FALSE(out.seed.has_value());
    EXPECT_FALSE(out.scale.has_value());
    EXPECT_TRUE(out.cells.empty());
}

TEST(ServeWire, DecodeRequestRejectsBadOps)
{
    SweepRequest out;
    std::string error;
    EXPECT_FALSE(decodeRequest("{\"op\":\"explode\"}", out, &error));
    EXPECT_FALSE(decodeRequest("{}", out, &error));
    EXPECT_FALSE(decodeRequest("not json at all", out, &error));
    EXPECT_FALSE(error.empty());
}

SimResult
sampleResult()
{
    SimResult r;
    r.workload = "canneal";
    r.scenario = "medium";
    r.scheme = "Dynamic";
    r.anchor_distance = 64;
    r.stats.accesses = 30'000;
    r.stats.l1_hits = 25'000;
    r.stats.l2_regular_hits = 3'000;
    r.stats.coalesced_hits = 1'000;
    r.stats.page_walks = 1'000;
    r.stats.translation_cycles = 123'456;
    r.stats.shootdowns = 3;
    r.stats.shootdown_cycles = 999;
    r.instructions = 0.1 + 0.2; // deliberately non-representable
    r.l2_hit_cycles = 9;
    r.coalesced_cycles = 11;
    r.walk_cycles = 37;
    return r;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.anchor_distance, b.anchor_distance);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
    EXPECT_EQ(a.stats.l2_regular_hits, b.stats.l2_regular_hits);
    EXPECT_EQ(a.stats.coalesced_hits, b.stats.coalesced_hits);
    EXPECT_EQ(a.stats.page_walks, b.stats.page_walks);
    EXPECT_EQ(a.stats.translation_cycles, b.stats.translation_cycles);
    EXPECT_EQ(a.stats.shootdowns, b.stats.shootdowns);
    EXPECT_EQ(a.stats.shootdown_cycles, b.stats.shootdown_cycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.instructions),
              std::bit_cast<std::uint64_t>(b.instructions))
        << "instructions must cross the wire bit-exactly";
    EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);
    EXPECT_EQ(a.coalesced_cycles, b.coalesced_cycles);
    EXPECT_EQ(a.walk_cycles, b.walk_cycles);
}

TEST(ServeWire, ResponseRoundTripsResultsBitExactly)
{
    SweepResponse resp;
    resp.ok = true;
    CellReply hit;
    hit.status = CellStatus::Hit;
    hit.key = 0xdeadbeefcafef00dULL;
    hit.result = sampleResult();
    CellReply miss;
    miss.status = CellStatus::Miss;
    miss.key = 42;
    CellReply err;
    err.status = CellStatus::Error;
    err.error = "unknown workload 'nope'";
    resp.cells = {hit, miss, err};
    resp.counters = {{"hits", 1}, {"simulations", 0}};

    SweepResponse out;
    std::string error;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), out, &error))
        << error;
    EXPECT_TRUE(out.ok);
    ASSERT_EQ(out.cells.size(), 3u);
    EXPECT_EQ(out.cells[0].status, CellStatus::Hit);
    EXPECT_EQ(out.cells[0].key, 0xdeadbeefcafef00dULL);
    expectSameResult(out.cells[0].result, hit.result);
    EXPECT_EQ(out.cells[1].status, CellStatus::Miss);
    EXPECT_EQ(out.cells[1].key, 42u);
    EXPECT_EQ(out.cells[2].status, CellStatus::Error);
    EXPECT_EQ(out.cells[2].error, "unknown workload 'nope'");
    ASSERT_EQ(out.counters.size(), 2u);
    EXPECT_EQ(out.counters[0].first, "hits");
    EXPECT_EQ(out.counters[0].second, 1u);
}

TEST(ServeWire, ErrorResponseRoundTrips)
{
    SweepResponse resp;
    resp.ok = false;
    resp.error = "bad request: no cells";
    SweepResponse out;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), out, nullptr));
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error, "bad request: no cells");
    EXPECT_TRUE(out.cells.empty());
}

TEST(ServeWire, OpAndStatusNamesRoundTrip)
{
    EXPECT_STREQ(wireOpName(WireOp::Submit), "submit");
    EXPECT_STREQ(wireOpName(WireOp::Query), "query");
    EXPECT_STREQ(wireOpName(WireOp::Stats), "stats");
    EXPECT_STREQ(wireOpName(WireOp::Shutdown), "shutdown");
    EXPECT_STREQ(cellStatusName(CellStatus::Hit), "hit");
    EXPECT_STREQ(cellStatusName(CellStatus::Computed), "computed");
    EXPECT_STREQ(cellStatusName(CellStatus::Deduped), "deduped");
    EXPECT_STREQ(cellStatusName(CellStatus::Miss), "miss");
    EXPECT_STREQ(cellStatusName(CellStatus::Error), "error");
}

TEST(ServeWire, DecodeOverwritesAReusedStruct)
{
    SweepResponse first;
    first.ok = false;
    first.error = "bad request: no cells";
    first.counters = {{"requests", 1}};
    SweepResponse second;
    second.ok = true;
    CellReply hit;
    hit.status = CellStatus::Hit;
    hit.key = 7;
    hit.result = sampleResult();
    CellReply miss;
    miss.status = CellStatus::Miss;
    miss.key = 8;
    second.cells = {hit, miss};
    second.counters = {{"requests", 2}};
    const std::string second_line = encodeResponse(second);

    SweepResponse reused;
    ASSERT_TRUE(decodeResponse(encodeResponse(first), reused, nullptr));
    ASSERT_TRUE(decodeResponse(second_line, reused, nullptr));
    SweepResponse fresh;
    ASSERT_TRUE(decodeResponse(second_line, fresh, nullptr));
    EXPECT_EQ(encodeResponse(reused), encodeResponse(fresh));
    EXPECT_TRUE(reused.error.empty());
    ASSERT_EQ(reused.cells.size(), 2u);
    EXPECT_EQ(reused.cells[0].key, 7u);
    ASSERT_EQ(reused.counters.size(), 1u);
    EXPECT_EQ(reused.counters[0].second, 2u);

    SweepRequest request;
    ASSERT_TRUE(decodeRequest(encodeRequest(sampleRequest()), request,
                              nullptr));
    ASSERT_TRUE(decodeRequest(R"({"op":"stats"})", request, nullptr));
    EXPECT_EQ(request.op, WireOp::Stats);
    EXPECT_TRUE(request.cells.empty());
    EXPECT_FALSE(request.accesses.has_value());
    EXPECT_FALSE(request.seed.has_value());
    EXPECT_FALSE(request.scale.has_value());
}

TEST(ServeWire, FirstOfTwoSameNamedMembersWins)
{
    SweepRequest req;
    ASSERT_TRUE(decodeRequest(
        R"({"op":"query","op":"submit","seed":1,"seed":2,)"
        R"("cells":[{"workload":"mcf","scenario":"demand","scheme":"Base",)"
        R"("scheme":"THP","distance":4,"distance":8}],"cells":7})",
        req, nullptr));
    EXPECT_EQ(req.op, WireOp::Query);
    EXPECT_EQ(req.seed, std::optional<std::uint64_t>{1});
    ASSERT_EQ(req.cells.size(), 1u);
    EXPECT_EQ(req.cells[0].scheme, Scheme::Base);
    EXPECT_EQ(req.cells[0].distance, std::optional<std::uint64_t>{4});

    // A first 'op' that is no string hides a valid second one.
    std::string error;
    EXPECT_FALSE(decodeRequest(R"({"op":1,"op":"stats"})", req, &error));
    EXPECT_EQ(error, "missing 'op'");

    SweepResponse resp;
    ASSERT_TRUE(decodeResponse(
        R"({"ok":true,"ok":false,"cells":[{"status":"miss","key":3,)"
        R"("key":4,"status":"hit"}],"counters":{"a":1,"a":2}})",
        resp, nullptr));
    EXPECT_TRUE(resp.ok);
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_EQ(resp.cells[0].status, CellStatus::Miss);
    EXPECT_EQ(resp.cells[0].key, 3u);
    // Counters keep every member, repeats included, in order.
    ASSERT_EQ(resp.counters.size(), 2u);
    EXPECT_EQ(resp.counters[1].second, 2u);
}

TEST(ServeWire, EscapedMemberNameMatches)
{
    SweepRequest req;
    std::string error;
    ASSERT_TRUE(decodeRequest(
        R"({"\u006fp":"stats","se\u0065d":9,"c\u0065lls":[]})", req,
        &error))
        << error;
    EXPECT_EQ(req.op, WireOp::Stats);
    EXPECT_EQ(req.seed, std::optional<std::uint64_t>{9});

    SweepResponse resp;
    ASSERT_TRUE(decodeResponse(
        R"({"\u006fk":true,"cells":[{"\u0073tatus":"miss","k\u0065y":5}],)"
        R"("counters":{"h\u0069ts":2}})",
        resp, &error))
        << error;
    EXPECT_TRUE(resp.ok);
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_EQ(resp.cells[0].key, 5u);
    ASSERT_EQ(resp.counters.size(), 1u);
    EXPECT_EQ(resp.counters[0].first, "hits");
}

TEST(ServeWire, MalformedUnknownMemberRejectsTheLine)
{
    SweepRequest req;
    std::string error;
    EXPECT_FALSE(decodeRequest(R"({"op":"stats","extra":[1,]})", req,
                               &error));
    EXPECT_EQ(error, "json error at byte 25: expected a value");
    EXPECT_FALSE(decodeRequest(R"({"op":"stats","extra":"\q"})", req,
                               &error));
    EXPECT_EQ(error, "json error at byte 25: bad escape character");
    EXPECT_FALSE(decodeRequest(R"({"op":"stats","extra":1e999})", req,
                               &error));
    EXPECT_EQ(error, "json error at byte 27: unrepresentable number");

    // A syntax error after a semantic fault still wins.
    SweepResponse resp;
    EXPECT_FALSE(decodeResponse(R"({"ok":1,"extra":tru})", resp, &error));
    EXPECT_EQ(error, "json error at byte 16: bad literal");
}

TEST(ServeWire, NonU64KnobIsAbsent)
{
    for (const char *value :
         {"-1", "1.0", "1e3", "18446744073709551616", "\"5\"", "null",
          "[5]"}) {
        SweepRequest req;
        std::string error;
        const std::string line =
            std::string(R"({"op":"submit","accesses":)") + value +
            R"(,"seed":)" + value + R"(,"scale_bits":)" + value +
            R"(,"cells":[{"workload":"mcf","scenario":"demand",)" +
            R"("scheme":"Dynamic","distance":)" + value + "}]}";
        ASSERT_TRUE(decodeRequest(line, req, &error)) << line << ": "
                                                      << error;
        EXPECT_FALSE(req.accesses.has_value()) << value;
        EXPECT_FALSE(req.seed.has_value()) << value;
        EXPECT_FALSE(req.scale.has_value()) << value;
        ASSERT_EQ(req.cells.size(), 1u);
        EXPECT_FALSE(req.cells[0].distance.has_value()) << value;
    }
    SweepRequest req;
    ASSERT_TRUE(decodeRequest(
        R"({"op":"submit","accesses":18446744073709551615})", req,
        nullptr));
    EXPECT_EQ(req.accesses,
              std::optional<std::uint64_t>{18'446'744'073'709'551'615u});
}

TEST(ServeWire, NestingTooDeepInsideAnUnknownMember)
{
    // The root is depth 0 and "x"'s value depth 1, so 32 brackets put
    // the innermost value at depth 33.
    const std::string open32(32, '[');
    const std::string close32(32, ']');
    SweepRequest req;
    std::string error;
    EXPECT_TRUE(decodeRequest(R"({"op":"stats","x":)" + open32.substr(1) +
                                  close32.substr(1) + "}",
                              req, &error))
        << error;
    EXPECT_FALSE(decodeRequest(
        R"({"op":"stats","x":)" + open32 + "1" + close32 + "}", req,
        &error));
    EXPECT_EQ(error, "json error at byte 50: nesting too deep");

    SweepResponse resp;
    EXPECT_FALSE(decodeResponse(
        R"({"ok":true,"x":)" + open32 + "1" + close32 + "}", resp,
        &error));
    EXPECT_EQ(error, "json error at byte 47: nesting too deep");
}

TEST(ServeWire, LineBufferFramesLinesAcrossReads)
{
    LineBuffer lines;
    std::string line;
    lines.append("ab", 2);
    EXPECT_FALSE(lines.next(line));
    EXPECT_EQ(lines.pending(), 2u);
    const std::string rest = "c\r\n\n\r\nd\nxyz";
    lines.append(rest.data(), rest.size());
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "abc");
    ASSERT_TRUE(lines.next(line)); // the empty lines are skipped
    EXPECT_EQ(line, "d");
    EXPECT_FALSE(lines.next(line));
    EXPECT_EQ(lines.pending(), 3u);
    lines.append("\n", 1);
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "xyz");
    EXPECT_EQ(lines.pending(), 0u);
}

/** The first difference between two decoded requests, or "". */
std::string
requestDiff(const SweepRequest &a, const SweepRequest &b)
{
    const auto bits = [](const std::optional<double> &v) {
        return v ? std::optional<std::uint64_t>{std::bit_cast<
                       std::uint64_t>(*v)}
                 : std::nullopt;
    };
    if (a.op != b.op)
        return "op";
    if (a.accesses != b.accesses || a.seed != b.seed ||
        bits(a.scale) != bits(b.scale))
        return "knobs";
    if (a.cells.size() != b.cells.size())
        return "cell count";
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const CellRequest &x = a.cells[i];
        const CellRequest &y = b.cells[i];
        if (x.workload != y.workload || x.scenario != y.scenario ||
            x.scheme != y.scheme || x.distance != y.distance)
            return "cell " + std::to_string(i);
    }
    return "";
}

/**
 * The first difference between two decoded replies, or "". Field by
 * field: encodeResponse drops the result of a miss or error cell, so
 * comparing encodings would miss a stray result there.
 */
std::string
responseDiff(const SweepResponse &a, const SweepResponse &b)
{
    if (a.ok != b.ok || a.error != b.error)
        return "ok/error";
    if (a.cells.size() != b.cells.size())
        return "cell count";
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const CellReply &x = a.cells[i];
        const CellReply &y = b.cells[i];
        const SimResult &r = x.result;
        const SimResult &q = y.result;
        if (x.status != y.status || x.error != y.error || x.key != y.key ||
            r.workload != q.workload || r.scenario != q.scenario ||
            r.scheme != q.scheme || r.anchor_distance != q.anchor_distance ||
            r.stats.accesses != q.stats.accesses ||
            r.stats.l1_hits != q.stats.l1_hits ||
            r.stats.l2_regular_hits != q.stats.l2_regular_hits ||
            r.stats.coalesced_hits != q.stats.coalesced_hits ||
            r.stats.page_walks != q.stats.page_walks ||
            r.stats.translation_cycles != q.stats.translation_cycles ||
            r.stats.shootdowns != q.stats.shootdowns ||
            r.stats.shootdown_cycles != q.stats.shootdown_cycles ||
            std::bit_cast<std::uint64_t>(r.instructions) !=
                std::bit_cast<std::uint64_t>(q.instructions) ||
            r.l2_hit_cycles != q.l2_hit_cycles ||
            r.coalesced_cycles != q.coalesced_cycles ||
            r.walk_cycles != q.walk_cycles)
            return "cell " + std::to_string(i);
    }
    if (a.counters != b.counters)
        return "counters";
    return "";
}

/** A reply shaped like a Fig. 9 grid's: every scheme at each mapping. */
SweepResponse
fig9ShapedResponse()
{
    SweepResponse resp;
    resp.ok = true;
    std::uint64_t key = 0x9e3779b97f4a7c15ULL;
    for (const ScenarioKind scenario :
         {ScenarioKind::Demand, ScenarioKind::MedContig}) {
        for (const Scheme scheme : allSchemes) {
            CellReply cell;
            cell.status = CellStatus::Hit;
            cell.key = key;
            key = key * 6364136223846793005ULL + 1442695040888963407ULL;
            cell.result = sampleResult();
            cell.result.scenario = scenarioName(scenario);
            cell.result.scheme = schemeName(scheme);
            cell.result.stats.page_walks = key >> 40;
            resp.cells.push_back(cell);
        }
    }
    for (const char *name :
         {"connections", "requests", "bad_requests", "cells", "hits",
          "dedups", "simulations", "cell_errors", "queue_peak",
          "store_lookups", "store_hits", "store_file_bytes"})
        resp.counters.emplace_back(name, key >>= 7);
    return resp;
}

/** The lines the fuzz test mutates. */
std::vector<std::string>
fuzzCorpus()
{
    SweepResponse mixed;
    mixed.ok = true;
    CellReply hit;
    hit.status = CellStatus::Computed;
    hit.key = 0xdeadbeefcafef00dULL;
    hit.result = sampleResult();
    CellReply miss;
    miss.status = CellStatus::Miss;
    miss.key = 42;
    CellReply err;
    err.status = CellStatus::Error;
    err.error = "unknown workload 'no\"pe'";
    mixed.cells = {hit, miss, err};
    mixed.counters = {{"hits", 1}, {"simulations", 0}};
    SweepResponse refused;
    refused.error = "bad request: no cells";

    return {
        encodeRequest(sampleRequest()),
        encodeResponse(mixed),
        encodeResponse(refused),
        encodeResponse(fig9ShapedResponse()),
        // One line per decoding rule.
        R"({"op":"query","op":"submit","seed":1,"seed":2,"cells":[)"
        R"({"workload":"mcf","scenario":"low","scheme":"Base",)"
        R"("scheme":"RMM"}]})",
        R"({"ok":false,"ok":true,"error":"x","error":"y","cells":[)"
        R"({"status":"miss","key":1,"key":2}]})",
        R"({"\u006fp":"stats","\u0063ells":[]})",
        R"({"\u006fk":true,"c\u006funters":{"\u0068its":3}})",
        R"({"op":"stats","extra":{"a":[1,2,{"b":null}],"c":"\n"}})",
        R"({"ok":true,"extra":[true,false,null,-0.5e3]})",
        R"({"op":"submit","accesses":-1,"seed":1.0,)"
        R"("scale_bits":18446744073709551616})",
        R"({"op":"stats","x":1e999})",
        R"({"op":"stats","x":)" + std::string(32, '[') +
            std::string(32, ']') + "}",
        R"({"cells":5,"op":"explode"})",
        R"({"counters":[],"cells":[{"status":"hit","key":1}],"ok":1})",
        R"({"ok":true,"cells":[{"key":9,"status":"error","workload":7}]})",
        R"({"ok":true,"cells":[{"status":"deduped","key":5,)"
        R"("walk_cycles":1,"workload":"a","scenario":"b","scheme":"c",)"
        R"("anchor_distance":0,"accesses":1,"l1_hits":1,)"
        R"("l2_regular_hits":0,"coalesced_hits":0,"page_walks":0,)"
        R"("translation_cycles":0,"shootdowns":0,"shootdown_cycles":0,)"
        R"("instructions_bits":4607182418800017408,"l2_hit_cycles":0,)"
        R"("coalesced_cycles":0,"walk_cycles":"x"}]})",
    };
}

/** @p line with one random edit: a byte, a cut, a copy or a token. */
void
mutate(Rng &rng, std::string &line)
{
    static const std::vector<std::string> tokens = {
        "{", "}", "[", "]", ",", ":", "\"", "1e999", "-1",
        "18446744073709551616", "\\ud800", "\"\\u0073tatus\"",
        std::string(33, '[')};
    const auto at = [&](std::size_t bound) {
        return static_cast<std::size_t>(rng.nextBounded(bound + 1));
    };
    switch (rng.nextBounded(5)) {
      case 0: // flip a byte
        if (!line.empty()) {
            line[at(line.size() - 1)] =
                static_cast<char>(rng.nextBounded(256));
        }
        break;
      case 1: { // delete a slice
        const std::size_t pos = at(line.size());
        line.erase(pos, at(std::min<std::size_t>(8, line.size() - pos)));
        break;
      }
      case 2: // truncate
        line.resize(at(line.size()));
        break;
      case 3: { // duplicate a slice somewhere else
        const std::size_t pos = at(line.size());
        const std::string slice =
            line.substr(pos, at(std::min<std::size_t>(64, line.size() - pos)));
        line.insert(at(line.size()), slice);
        break;
      }
      default: { // a dictionary token, inserted or written over
        const std::string &token = tokens[rng.nextBounded(tokens.size())];
        const std::size_t pos = at(line.size());
        if (rng.nextBool(0.5))
            line.insert(pos, token);
        else
            line.replace(pos, token.size(), token);
      }
    }
}

TEST(ServeWire, TypedDecodersMatchTreeReference)
{
    const std::vector<std::string> corpus = fuzzCorpus();
    Rng rng(20'171'017);
    constexpr int mutations = 100'000;
    int decodes = 0;
    int accepted = 0;
    int disagreements = 0;
    const auto disagree = [&](const std::string &what,
                              const std::string &line) {
        if (++disagreements <= 10)
            ADD_FAILURE() << what << " differs on: " << line;
    };

    for (int i = 0; i < mutations; ++i) {
        std::string line = corpus[rng.nextBounded(corpus.size())];
        const std::uint64_t edits = 1 + rng.nextBounded(3);
        for (std::uint64_t e = 0; e < edits; ++e)
            mutate(rng, line);

        SweepRequest req, ref_req;
        std::string error, ref_error;
        const bool ok = decodeRequest(line, req, &error);
        const bool ref_ok =
            wire_reference::decodeRequest(line, ref_req, &ref_error);
        decodes += 1;
        accepted += ok ? 1 : 0;
        if (ok != ref_ok)
            disagree("request verdict", line);
        else if (!ok && error != ref_error)
            disagree("request error '" + error + "' vs '" + ref_error + "'",
                     line);
        else if (ok && !requestDiff(req, ref_req).empty())
            disagree("request " + requestDiff(req, ref_req), line);

        SweepResponse resp, ref_resp;
        const bool resp_ok = decodeResponse(line, resp, &error);
        const bool ref_resp_ok =
            wire_reference::decodeResponse(line, ref_resp, &ref_error);
        decodes += 1;
        accepted += resp_ok ? 1 : 0;
        if (resp_ok != ref_resp_ok)
            disagree("reply verdict", line);
        else if (!resp_ok && error != ref_error)
            disagree("reply error '" + error + "' vs '" + ref_error + "'",
                     line);
        else if (resp_ok && !responseDiff(resp, ref_resp).empty())
            disagree("reply " + responseDiff(resp, ref_resp), line);
    }
    EXPECT_EQ(disagreements, 0);
    // The corpus must keep reaching the typed paths, not just the
    // syntax errors.
    EXPECT_GE(accepted * 100, decodes) << accepted << " of " << decodes;
    std::printf("%d decodes, %d accepted, %d disagreements\n", decodes,
                accepted, disagreements);
}

} // namespace
} // namespace atlb
