/**
 * @file
 * Line-delimited JSON wire protocol of the sweep service.
 *
 * One request is one line of JSON; the reply is one line back. The
 * protocol carries four operations:
 *
 *   submit    resolve each cell from the store, computing misses
 *   query     resolve from the store only (a miss is answered "miss")
 *   stats     report server + store counters without touching cells
 *   shutdown  reply, then stop the server cleanly
 *
 * Counters travel on every reply, so a client always sees how its
 * request was satisfied (hits vs simulations vs in-flight dedups).
 * SimResult crosses the wire with integer counters verbatim and the
 * one double (instructions) as its IEEE-754 bit pattern, so a result
 * read back from the service is byte-identical to runCellJob on a
 * freshly built CellPairState — the property tests/serve pins.
 *
 * The parser below is deliberately tiny (objects, arrays, strings,
 * numbers, bools, null — no external dependency) and non-fatal: a
 * malformed line poisons that request with an error reply, never the
 * server.
 */

#ifndef ANCHORTLB_SERVE_WIRE_HH
#define ANCHORTLB_SERVE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "os/scenario.hh"
#include "sim/scheme.hh"
#include "sim/simulator.hh"

namespace atlb
{

/** One parsed JSON node. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Numeric value (always set for Kind::Number). */
    double number = 0.0;
    /** Exact unsigned value; valid only when integer is true. */
    std::uint64_t u64 = 0;
    /** True when the number was a plain non-negative integer. */
    bool integer = false;
    std::string text; //!< Kind::String payload
    std::vector<JsonValue> items;                           //!< Array
    std::vector<std::pair<std::string, JsonValue>> members; //!< Object

    /** Member @p name of an object, or nullptr. */
    const JsonValue *find(const std::string &name) const;
};

/**
 * Parse one JSON document. Returns false (with a position-carrying
 * message in @p error, if non-null) on malformed input; never fatal.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error);

/** @p s with JSON string escapes applied (quotes not included). */
std::string escapeJson(const std::string &s);

/** Non-fatal Scheme lookup by paper legend name ("Base", "THP", ...). */
bool schemeFromWireName(const std::string &name, Scheme &out);

/** Non-fatal ScenarioKind lookup by display name ("demand", ...). */
bool scenarioFromWireName(const std::string &name, ScenarioKind &out);

/** The operations a request line can carry. */
enum class WireOp
{
    Submit,   //!< resolve cells, simulating misses
    Query,    //!< resolve cells from the store only
    Stats,    //!< counters only
    Shutdown, //!< reply, then stop the server
};

/** Wire name of @p op ("submit", "query", ...). */
const char *wireOpName(WireOp op);

/** One cell of a submit/query request. */
struct CellRequest
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    Scheme scheme = Scheme::Base;
    /** Anchor distance override (Scheme::Anchor only). */
    std::optional<std::uint64_t> distance;
};

/** One request line. */
struct SweepRequest
{
    WireOp op = WireOp::Submit;
    std::vector<CellRequest> cells;
    // Optional overrides of the server's base SimOptions. Absent
    // fields keep the server's values, so a client and a local run
    // with the same explicit knobs address the same cells.
    std::optional<std::uint64_t> accesses;
    std::optional<std::uint64_t> seed;
    std::optional<double> scale;
};

/** How one cell of a reply was satisfied. */
enum class CellStatus
{
    Hit,      //!< answered from the persistent store
    Computed, //!< simulated by this request
    Deduped,  //!< waited on an identical in-flight computation
    Miss,     //!< query-only: not in the store
    Error,    //!< invalid cell (unknown workload/scenario/scheme)
};

/** Wire name of @p status ("hit", "computed", ...). */
const char *cellStatusName(CellStatus status);

/** One cell of a reply. */
struct CellReply
{
    CellStatus status = CellStatus::Error;
    std::string error;      //!< CellStatus::Error diagnostic
    std::uint64_t key = 0;  //!< the cell's content address
    SimResult result;       //!< valid unless Miss/Error
};

/** One reply line. */
struct SweepResponse
{
    bool ok = false;
    std::string error; //!< request-level failure (when !ok)
    std::vector<CellReply> cells;
    /** Server + store counters, in emission order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** Encode @p req as one line (no trailing newline). */
std::string encodeRequest(const SweepRequest &req);

/** Decode a request line; false + @p error on malformed input. */
bool decodeRequest(const std::string &line, SweepRequest &out,
                   std::string *error);

/** Encode @p resp as one line (no trailing newline). */
std::string encodeResponse(const SweepResponse &resp);

/** Decode a reply line; false + @p error on malformed input. */
bool decodeResponse(const std::string &line, SweepResponse &out,
                    std::string *error);

} // namespace atlb

#endif // ANCHORTLB_SERVE_WIRE_HH
