/**
 * @file
 * Tests for the sweep-service wire protocol (JSON codec + messages).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "serve/wire.hh"

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

} // namespace
} // namespace atlb
