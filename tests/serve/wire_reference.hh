/**
 * @file
 * The reference the typed wire decoders are checked against: the
 * tree-walking decoders they replaced, kept as they were. Each parses
 * the whole line into a JsonValue tree with parseJson, then looks its
 * members up with JsonValue::find. Like the originals, they append to
 * @p out rather than reset it, so compare them on fresh structs.
 */

#ifndef ANCHORTLB_TESTS_SERVE_WIRE_REFERENCE_HH
#define ANCHORTLB_TESTS_SERVE_WIRE_REFERENCE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "serve/wire.hh"

namespace atlb::wire_reference
{

/** Exact u64 member read: false when absent or not a plain integer. */
inline bool
getU64(const JsonValue &obj, const char *name, std::uint64_t &out)
{
    const JsonValue *v = obj.find(name);
    if (!v || v->kind != JsonValue::Kind::Number || !v->integer)
        return false;
    out = v->u64;
    return true;
}

inline bool
getString(const JsonValue &obj, const char *name, std::string &out)
{
    const JsonValue *v = obj.find(name);
    if (!v || v->kind != JsonValue::Kind::String)
        return false;
    out = v->text;
    return true;
}

inline bool
simResultFromJson(const JsonValue &obj, SimResult &r)
{
    std::uint64_t instr_bits = 0;
    const bool ok =
        getString(obj, "workload", r.workload) &&
        getString(obj, "scenario", r.scenario) &&
        getString(obj, "scheme", r.scheme) &&
        getU64(obj, "anchor_distance", r.anchor_distance) &&
        getU64(obj, "accesses", r.stats.accesses) &&
        getU64(obj, "l1_hits", r.stats.l1_hits) &&
        getU64(obj, "l2_regular_hits", r.stats.l2_regular_hits) &&
        getU64(obj, "coalesced_hits", r.stats.coalesced_hits) &&
        getU64(obj, "page_walks", r.stats.page_walks) &&
        getU64(obj, "translation_cycles", r.stats.translation_cycles) &&
        getU64(obj, "shootdowns", r.stats.shootdowns) &&
        getU64(obj, "shootdown_cycles", r.stats.shootdown_cycles) &&
        getU64(obj, "instructions_bits", instr_bits) &&
        getU64(obj, "l2_hit_cycles", r.l2_hit_cycles) &&
        getU64(obj, "coalesced_cycles", r.coalesced_cycles) &&
        getU64(obj, "walk_cycles", r.walk_cycles);
    if (ok)
        r.instructions = std::bit_cast<double>(instr_bits);
    return ok;
}

inline bool
wireOpFromName(const std::string &name, WireOp &out)
{
    for (const WireOp op : {WireOp::Submit, WireOp::Query, WireOp::Stats,
                            WireOp::Shutdown}) {
        if (name == wireOpName(op)) {
            out = op;
            return true;
        }
    }
    return false;
}

inline bool
cellStatusFromName(const std::string &name, CellStatus &out)
{
    for (const CellStatus status :
         {CellStatus::Hit, CellStatus::Computed, CellStatus::Deduped,
          CellStatus::Miss, CellStatus::Error}) {
        if (name == cellStatusName(status)) {
            out = status;
            return true;
        }
    }
    return false;
}

inline bool
decodeRequest(const std::string &line, SweepRequest &out,
              std::string *error)
{
    const auto bad = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    JsonValue doc;
    if (!parseJson(line, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object)
        return bad("request must be a JSON object");

    std::string op_name;
    if (!getString(doc, "op", op_name))
        return bad("missing 'op'");
    if (!wireOpFromName(op_name, out.op))
        return bad("unknown op '" + op_name + "'");

    std::uint64_t u = 0;
    if (getU64(doc, "accesses", u))
        out.accesses = u;
    if (getU64(doc, "seed", u))
        out.seed = u;
    if (getU64(doc, "scale_bits", u))
        out.scale = std::bit_cast<double>(u);

    const JsonValue *cells = doc.find("cells");
    if (!cells)
        return true;
    if (cells->kind != JsonValue::Kind::Array)
        return bad("'cells' must be an array");
    for (const JsonValue &item : cells->items) {
        if (item.kind != JsonValue::Kind::Object)
            return bad("each cell must be an object");
        CellRequest cell;
        std::string scenario;
        std::string scheme;
        if (!getString(item, "workload", cell.workload) ||
            !getString(item, "scenario", scenario) ||
            !getString(item, "scheme", scheme))
            return bad("cell needs workload/scenario/scheme strings");
        if (!scenarioFromWireName(scenario, cell.scenario))
            return bad("unknown scenario '" + scenario + "'");
        if (!schemeFromWireName(scheme, cell.scheme))
            return bad("unknown scheme '" + scheme + "'");
        if (getU64(item, "distance", u))
            cell.distance = u;
        out.cells.push_back(std::move(cell));
    }
    return true;
}

inline bool
decodeResponse(const std::string &line, SweepResponse &out,
               std::string *error)
{
    const auto bad = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    JsonValue doc;
    if (!parseJson(line, doc, error))
        return false;
    if (doc.kind != JsonValue::Kind::Object)
        return bad("response must be a JSON object");

    const JsonValue *ok = doc.find("ok");
    if (!ok || ok->kind != JsonValue::Kind::Bool)
        return bad("missing 'ok'");
    out.ok = ok->boolean;
    getString(doc, "error", out.error);

    if (const JsonValue *cells = doc.find("cells")) {
        if (cells->kind != JsonValue::Kind::Array)
            return bad("'cells' must be an array");
        for (const JsonValue &item : cells->items) {
            if (item.kind != JsonValue::Kind::Object)
                return bad("each cell must be an object");
            CellReply cell;
            std::string status;
            if (!getString(item, "status", status) ||
                !cellStatusFromName(status, cell.status))
                return bad("cell needs a valid 'status'");
            getString(item, "error", cell.error);
            if (!getU64(item, "key", cell.key))
                return bad("cell needs 'key'");
            if ((cell.status == CellStatus::Hit ||
                 cell.status == CellStatus::Computed ||
                 cell.status == CellStatus::Deduped) &&
                !simResultFromJson(item, cell.result))
                return bad("cell result fields missing or malformed");
            out.cells.push_back(std::move(cell));
        }
    }

    if (const JsonValue *counters = doc.find("counters")) {
        if (counters->kind != JsonValue::Kind::Object)
            return bad("'counters' must be an object");
        for (const auto &[name, value] : counters->members) {
            if (value.kind != JsonValue::Kind::Number || !value.integer)
                return bad("counters must be integers");
            out.counters.emplace_back(name, value.u64);
        }
    }
    return true;
}

} // namespace atlb::wire_reference

#endif // ANCHORTLB_TESTS_SERVE_WIRE_REFERENCE_HH
