#include "wire.hh"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace atlb
{

const JsonValue *
JsonValue::find(const std::string &name) const
{
    for (const auto &[key, value] : members) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

namespace
{

/** Nesting cap: a request line never needs more, and it bounds the
 *  recursive parser's stack on adversarial input. */
constexpr int maxJsonDepth = 32;

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    bool parse(JsonValue &out, std::string *error)
    {
        skipWs();
        if (!parseValue(out, 0))
            return failOut(error);
        skipWs();
        if (pos_ != s_.size()) {
            error_ = "trailing characters";
            return failOut(error);
        }
        return true;
    }

  private:
    bool failOut(std::string *error)
    {
        if (!error_.empty() && error) {
            *error = "json error at byte " + std::to_string(pos_) +
                     ": " + error_;
        }
        return error_.empty();
    }

    bool fail(const char *msg)
    {
        if (error_.empty())
            error_ = msg;
        return false;
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' ||
                s_[pos_] == '\n'))
            ++pos_;
    }

    bool eat(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (s_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > maxJsonDepth)
            return fail("nesting too deep");
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        switch (s_[pos_]) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected member name");
            if (!parseString(key))
                return false;
            skipWs();
            if (!eat(':'))
                return fail("expected ':'");
            skipWs();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (eat(','))
                continue;
            if (eat('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (eat(']'))
            return true;
        for (;;) {
            skipWs();
            JsonValue item;
            if (!parseValue(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (eat(','))
                continue;
            if (eat(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    bool hexDigit(std::uint32_t &out)
    {
        if (pos_ >= s_.size())
            return fail("truncated \\u escape");
        const char c = s_[pos_++];
        if (c >= '0' && c <= '9')
            out = out * 16 + static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            out = out * 16 + static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            out = out * 16 + static_cast<std::uint32_t>(c - 'A' + 10);
        else
            return fail("bad \\u escape digit");
        return true;
    }

    bool parseUnicodeEscape(std::string &out)
    {
        std::uint32_t code = 0;
        for (int i = 0; i < 4; ++i) {
            if (!hexDigit(code))
                return false;
        }
        if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: a low surrogate must follow.
            if (!eat('\\') || !eat('u'))
                return fail("lone high surrogate");
            std::uint32_t low = 0;
            for (int i = 0; i < 4; ++i) {
                if (!hexDigit(low))
                    return false;
            }
            if (low < 0xDC00 || low > 0xDFFF)
                return fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("lone low surrogate");
        }
        // UTF-8 encode.
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        return true;
    }

    bool parseString(std::string &out)
    {
        ++pos_; // '"'
        for (;;) {
            if (pos_ >= s_.size())
                return fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                return fail("truncated escape");
            const char e = s_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u':
                if (!parseUnicodeEscape(out))
                    return false;
                break;
              default: return fail("bad escape character");
            }
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (eat('-')) {
            // fall through to digits
        }
        if (pos_ >= s_.size() || !isDigit(s_[pos_]))
            return fail("expected a value");
        while (pos_ < s_.size() && isDigit(s_[pos_]))
            ++pos_;
        bool plain_integer = s_[start] != '-';
        if (pos_ < s_.size() && s_[pos_] == '.') {
            plain_integer = false;
            ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                return fail("digits must follow '.'");
            while (pos_ < s_.size() && isDigit(s_[pos_]))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            plain_integer = false;
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                return fail("digits must follow exponent");
            while (pos_ < s_.size() && isDigit(s_[pos_]))
                ++pos_;
        }

        out.kind = JsonValue::Kind::Number;
        out.integer = false; // the target value may be reused
        const char *first = s_.data() + start;
        const char *last = s_.data() + pos_;
        if (plain_integer) {
            const auto [ptr, ec] = std::from_chars(first, last, out.u64);
            out.integer = ec == std::errc() && ptr == last;
        }
        double value = 0.0;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec != std::errc() || ptr != last) {
            // from_chars can refuse only on overflow here; integers
            // beyond double's exact range still carry u64 above.
            if (!out.integer)
                return fail("unrepresentable number");
            value = static_cast<double>(out.u64);
        }
        out.number = value;
        return true;
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    const std::string &s_;
    std::size_t pos_ = 0;
    std::string error_;
};

/** Append `"key":` to @p out (with a leading comma unless first). */
void
appendKey(std::string &out, bool &first, const char *key)
{
    if (!first)
        out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(key);
    out.append("\":");
}

void
appendU64(std::string &out, bool &first, const char *key, std::uint64_t v)
{
    appendKey(out, first, key);
    out.append(std::to_string(v));
}

void
appendString(std::string &out, bool &first, const char *key,
             const std::string &v)
{
    appendKey(out, first, key);
    out.push_back('"');
    out.append(escapeJson(v));
    out.push_back('"');
}

/** Exact u64 member read: false when absent or not a plain integer. */
bool
getU64(const JsonValue &obj, const char *name, std::uint64_t &out)
{
    const JsonValue *v = obj.find(name);
    if (!v || v->kind != JsonValue::Kind::Number || !v->integer)
        return false;
    out = v->u64;
    return true;
}

bool
getString(const JsonValue &obj, const char *name, std::string &out)
{
    const JsonValue *v = obj.find(name);
    if (!v || v->kind != JsonValue::Kind::String)
        return false;
    out = v->text;
    return true;
}

/**
 * SimResult member emission. The double (instructions) crosses only as
 * its bit pattern (instructions_bits), so the decoded struct is
 * byte-identical to the encoded one.
 */
void
appendSimResult(std::string &out, bool &first, const SimResult &r)
{
    appendString(out, first, "workload", r.workload);
    appendString(out, first, "scenario", r.scenario);
    appendString(out, first, "scheme", r.scheme);
    appendU64(out, first, "anchor_distance", r.anchor_distance);
    appendU64(out, first, "accesses", r.stats.accesses);
    appendU64(out, first, "l1_hits", r.stats.l1_hits);
    appendU64(out, first, "l2_regular_hits", r.stats.l2_regular_hits);
    appendU64(out, first, "coalesced_hits", r.stats.coalesced_hits);
    appendU64(out, first, "page_walks", r.stats.page_walks);
    appendU64(out, first, "translation_cycles",
              r.stats.translation_cycles);
    appendU64(out, first, "shootdowns", r.stats.shootdowns);
    appendU64(out, first, "shootdown_cycles", r.stats.shootdown_cycles);
    appendU64(out, first, "instructions_bits",
              std::bit_cast<std::uint64_t>(r.instructions));
    appendU64(out, first, "l2_hit_cycles", r.l2_hit_cycles);
    appendU64(out, first, "coalesced_cycles", r.coalesced_cycles);
    appendU64(out, first, "walk_cycles", r.walk_cycles);
}

bool
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

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    return JsonParser(text).parse(out, error);
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out.append("\\\""); break;
          case '\\': out.append("\\\\"); break;
          case '\b': out.append("\\b"); break;
          case '\f': out.append("\\f"); break;
          case '\n': out.append("\\n"); break;
          case '\r': out.append("\\r"); break;
          case '\t': out.append("\\t"); break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out.append(buf);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

bool
schemeFromWireName(const std::string &name, Scheme &out)
{
    const std::optional<Scheme> scheme = findScheme(name, false);
    if (scheme)
        out = *scheme;
    return scheme.has_value();
}

bool
scenarioFromWireName(const std::string &name, ScenarioKind &out)
{
    for (const ScenarioKind kind : allScenarios) {
        if (name == scenarioName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
wireOpName(WireOp op)
{
    switch (op) {
      case WireOp::Submit: return "submit";
      case WireOp::Query: return "query";
      case WireOp::Stats: return "stats";
      case WireOp::Shutdown: return "shutdown";
    }
    return "?";
}

const char *
cellStatusName(CellStatus status)
{
    switch (status) {
      case CellStatus::Hit: return "hit";
      case CellStatus::Computed: return "computed";
      case CellStatus::Deduped: return "deduped";
      case CellStatus::Miss: return "miss";
      case CellStatus::Error: return "error";
    }
    return "?";
}

namespace
{

bool
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

bool
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

} // namespace

std::string
encodeRequest(const SweepRequest &req)
{
    std::string out = "{";
    bool first = true;
    appendString(out, first, "op", wireOpName(req.op));
    if (req.accesses)
        appendU64(out, first, "accesses", *req.accesses);
    if (req.seed)
        appendU64(out, first, "seed", *req.seed);
    if (req.scale) {
        appendU64(out, first, "scale_bits",
                  std::bit_cast<std::uint64_t>(*req.scale));
    }
    if (!req.cells.empty()) {
        appendKey(out, first, "cells");
        out.push_back('[');
        bool first_cell = true;
        for (const CellRequest &cell : req.cells) {
            if (!first_cell)
                out.push_back(',');
            first_cell = false;
            out.push_back('{');
            bool f = true;
            appendString(out, f, "workload", cell.workload);
            appendString(out, f, "scenario",
                         scenarioName(cell.scenario));
            appendString(out, f, "scheme", schemeName(cell.scheme));
            if (cell.distance)
                appendU64(out, f, "distance", *cell.distance);
            out.push_back('}');
        }
        out.push_back(']');
    }
    out.push_back('}');
    return out;
}

bool
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

std::string
encodeResponse(const SweepResponse &resp)
{
    std::string out = "{";
    bool first = true;
    appendKey(out, first, "ok");
    out.append(resp.ok ? "true" : "false");
    if (!resp.error.empty())
        appendString(out, first, "error", resp.error);
    if (!resp.cells.empty()) {
        appendKey(out, first, "cells");
        out.push_back('[');
        bool first_cell = true;
        for (const CellReply &cell : resp.cells) {
            if (!first_cell)
                out.push_back(',');
            first_cell = false;
            out.push_back('{');
            bool f = true;
            appendString(out, f, "status", cellStatusName(cell.status));
            if (!cell.error.empty())
                appendString(out, f, "error", cell.error);
            appendU64(out, f, "key", cell.key);
            if (cell.status == CellStatus::Hit ||
                cell.status == CellStatus::Computed ||
                cell.status == CellStatus::Deduped)
                appendSimResult(out, f, cell.result);
            out.push_back('}');
        }
        out.push_back(']');
    }
    if (!resp.counters.empty()) {
        appendKey(out, first, "counters");
        out.push_back('{');
        bool first_counter = true;
        for (const auto &[name, value] : resp.counters)
            appendU64(out, first_counter, name.c_str(), value);
        out.push_back('}');
    }
    out.push_back('}');
    return out;
}

bool
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

} // namespace atlb
