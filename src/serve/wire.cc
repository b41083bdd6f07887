#include "wire.hh"

#include <array>
#include <bit>
#include <charconv>
#include <iterator>
#include <utility>

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
 *  recursive readers' stack on adversarial input. */
constexpr int maxJsonDepth = 32;

/**
 * Pull cursor over one JSON document: the one place that knows the
 * grammar. A reader steps through the document value by value, so the
 * typed decoders and parseJson check the same bytes in the same order
 * and fail with the same "json error at byte N: ..." text. After the
 * first failure every step returns false.
 *
 * A value is read in two steps: open() checks the nesting cap and the
 * end of input and shows the value's first byte, which picks the read
 * (`{` object, `[` array, `"` string, `t`/`f`/`n` literal, anything
 * else a number).
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view text) : s_(text) {}

    /** Open the value at @p depth; its first byte into @p c. */
    bool open(int depth, char &c)
    {
        skipWs();
        if (depth > maxJsonDepth)
            return fail("nesting too deep");
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        c = s_[pos_];
        return true;
    }

    /** Enter an opened object; @p more is false when it is empty. */
    void beginObject(bool &more) { more = begin('}'); }

    /** A member's name and its ':'; the member's value comes next. */
    bool name(std::string_view &key, std::string &scratch)
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return fail("expected member name");
        if (!string(key, scratch))
            return false;
        skipWs();
        if (!eat(':'))
            return fail("expected ':'");
        return true;
    }

    /** After a member's value: @p more is false at the closing '}'. */
    bool nextMember(bool &more)
    {
        return next('}', "expected ',' or '}'", more);
    }

    /** Enter an opened array; @p more is false when it is empty. */
    void beginArray(bool &more) { more = begin(']'); }

    /** After an item: @p more is false at the closing ']'. */
    bool nextItem(bool &more)
    {
        return next(']', "expected ',' or ']'", more);
    }

    /**
     * Read an opened string. @p out views the document when the string
     * has no escapes, and otherwise @p scratch, which receives the
     * decoded bytes; either stays valid until @p scratch is reused.
     */
    bool string(std::string_view &out, std::string &scratch)
    {
        ++pos_; // '"'
        const std::size_t start = pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                out = s_.substr(start, pos_ - start);
                ++pos_;
                return true;
            }
            if (c == '\\')
                break;
            ++pos_;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
        }
        scratch.assign(s_.data() + start, pos_ - start);
        for (;;) {
            if (pos_ >= s_.size())
                return fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') {
                out = scratch;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                scratch.push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                return fail("truncated escape");
            const char e = s_[pos_++];
            switch (e) {
              case '"': scratch.push_back('"'); break;
              case '\\': scratch.push_back('\\'); break;
              case '/': scratch.push_back('/'); break;
              case 'b': scratch.push_back('\b'); break;
              case 'f': scratch.push_back('\f'); break;
              case 'n': scratch.push_back('\n'); break;
              case 'r': scratch.push_back('\r'); break;
              case 't': scratch.push_back('\t'); break;
              case 'u':
                if (!unicodeEscape(scratch))
                    return false;
                break;
              default: return fail("bad escape character");
            }
        }
    }

    /** Read an opened `true`, `false` or `null`: @p word. */
    bool literal(std::string_view word)
    {
        if (s_.compare(pos_, word.size(), word) != 0)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    /**
     * Read an opened number. @p integer tells whether it is a plain
     * non-negative integer that fits @p u64; @p value, when given,
     * receives it as a double.
     */
    bool number(std::uint64_t &u64, bool &integer, double *value = nullptr)
    {
        const std::size_t start = pos_;
        eat('-');
        if (pos_ >= s_.size() || !isDigit(s_[pos_]))
            return fail("expected a value");
        skipDigits();
        bool plain_integer = s_[start] != '-';
        if (pos_ < s_.size() && s_[pos_] == '.') {
            plain_integer = false;
            ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                return fail("digits must follow '.'");
            skipDigits();
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            plain_integer = false;
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (pos_ >= s_.size() || !isDigit(s_[pos_]))
                return fail("digits must follow exponent");
            skipDigits();
        }

        const char *first = s_.data() + start;
        const char *last = s_.data() + pos_;
        integer = false;
        if (plain_integer) {
            const auto [ptr, ec] = std::from_chars(first, last, u64);
            integer = ec == std::errc() && ptr == last;
        }
        if (integer && !value)
            return true;
        double d = 0.0;
        const auto [ptr, ec] = std::from_chars(first, last, d);
        if (ec != std::errc() || ptr != last) {
            // from_chars can refuse only on overflow here; integers
            // beyond double's exact range still carry u64 above.
            if (!integer)
                return fail("unrepresentable number");
            d = static_cast<double>(u64);
        }
        if (value)
            *value = d;
        return true;
    }

    /** Read over the value at @p depth, checking all of it. */
    bool skip(int depth)
    {
        char c = 0;
        if (!open(depth, c))
            return false;
        bool more = false;
        std::string_view text;
        std::uint64_t u64 = 0;
        bool integer = false;
        switch (c) {
          case '{':
            beginObject(more);
            while (more) {
                if (!name(text, scratch_) || !skip(depth + 1) ||
                    !nextMember(more))
                    return false;
            }
            return true;
          case '[':
            beginArray(more);
            while (more) {
                if (!skip(depth + 1) || !nextItem(more))
                    return false;
            }
            return true;
          case '"': return string(text, scratch_);
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number(u64, integer);
        }
    }

    /** After the document's value: only whitespace may follow. */
    bool finish()
    {
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters");
        return true;
    }

    /** The first failure, as "json error at byte N: what". */
    std::string error() const
    {
        return "json error at byte " + std::to_string(error_pos_) + ": " +
               error_;
    }

  private:
    bool fail(const char *msg)
    {
        if (!error_) {
            error_ = msg;
            error_pos_ = pos_;
        }
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

    /** Past an opened '{' or '['; false when @p close ends it at once. */
    bool begin(char close)
    {
        ++pos_;
        skipWs();
        return !eat(close);
    }

    bool next(char close, const char *expected, bool &more)
    {
        skipWs();
        if (eat(',')) {
            more = true;
            return true;
        }
        if (eat(close)) {
            more = false;
            return true;
        }
        return fail(expected);
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    void skipDigits()
    {
        while (pos_ < s_.size() && isDigit(s_[pos_]))
            ++pos_;
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

    bool unicodeEscape(std::string &out)
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

    std::string_view s_;
    std::size_t pos_ = 0;
    const char *error_ = nullptr;
    std::size_t error_pos_ = 0;
    std::string scratch_; //!< strings skip() reads over
};

/** parseJson's tree builder: the value at @p depth into @p out. */
bool
buildValue(JsonCursor &cur, JsonValue &out, int depth)
{
    char c = 0;
    if (!cur.open(depth, c))
        return false;
    bool more = false;
    std::string scratch;
    std::string_view text;
    switch (c) {
      case '{':
        out.kind = JsonValue::Kind::Object;
        cur.beginObject(more);
        while (more) {
            if (!cur.name(text, scratch))
                return false;
            auto &[key, value] = out.members.emplace_back();
            key = text;
            if (!buildValue(cur, value, depth + 1) || !cur.nextMember(more))
                return false;
        }
        return true;
      case '[':
        out.kind = JsonValue::Kind::Array;
        cur.beginArray(more);
        while (more) {
            if (!buildValue(cur, out.items.emplace_back(), depth + 1) ||
                !cur.nextItem(more))
                return false;
        }
        return true;
      case '"':
        out.kind = JsonValue::Kind::String;
        if (!cur.string(text, scratch))
            return false;
        out.text = text;
        return true;
      case 't':
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = c == 't';
        return cur.literal(out.boolean ? "true" : "false");
      case 'n':
        return cur.literal("null");
      default:
        out.kind = JsonValue::Kind::Number;
        return cur.number(out.u64, out.integer, &out.number);
    }
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[20];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, end);
}

/** @p s with JSON string escapes applied, appended to @p out. */
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t plain = 0; // start of the run not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char *escape = nullptr;
        switch (c) {
          case '"': escape = "\\\""; break;
          case '\\': escape = "\\\\"; break;
          case '\b': escape = "\\b"; break;
          case '\f': escape = "\\f"; break;
          case '\n': escape = "\\n"; break;
          case '\r': escape = "\\r"; break;
          case '\t': escape = "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
        }
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        if (escape) {
            out.append(escape);
        } else {
            constexpr const char *hex = "0123456789abcdef";
            const auto u = static_cast<unsigned char>(c);
            out.append("\\u00");
            out.push_back(hex[u >> 4]);
            out.push_back(hex[u & 0xF]);
        }
    }
    out.append(s.data() + plain, s.size() - plain);
}

/** Append `"key":` to @p out (with a leading comma unless first). */
void
appendKey(std::string &out, bool &first, std::string_view key)
{
    if (!first)
        out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(key);
    out.append("\":");
}

void
appendU64(std::string &out, bool &first, std::string_view key,
          std::uint64_t v)
{
    appendKey(out, first, key);
    appendU64(out, v);
}

void
appendString(std::string &out, bool &first, std::string_view key,
             std::string_view v)
{
    appendKey(out, first, key);
    out.push_back('"');
    appendEscaped(out, v);
    out.push_back('"');
}

/**
 * One SimResult wire member: its name and the one field of the struct
 * that holds it. instructions, the one double, crosses only as its
 * bit pattern (instructions_bits), so the decoded struct is
 * byte-identical to the encoded one.
 */
struct ResultField
{
    std::string_view name;
    std::string SimResult::*text = nullptr;
    std::uint64_t SimResult::*count = nullptr;
    std::uint64_t MmuStats::*stat = nullptr;
    double SimResult::*bits = nullptr;

    std::uint64_t number(const SimResult &r) const
    {
        if (count)
            return r.*count;
        if (stat)
            return r.stats.*stat;
        return std::bit_cast<std::uint64_t>(r.*bits);
    }

    void setNumber(SimResult &r, std::uint64_t v) const
    {
        if (count)
            r.*count = v;
        else if (stat)
            r.stats.*stat = v;
        else
            r.*bits = std::bit_cast<double>(v);
    }
};

/** SimResult's wire members in encode order: both directions walk it. */
constexpr ResultField resultFields[] = {
    {.name = "workload", .text = &SimResult::workload},
    {.name = "scenario", .text = &SimResult::scenario},
    {.name = "scheme", .text = &SimResult::scheme},
    {.name = "anchor_distance", .count = &SimResult::anchor_distance},
    {.name = "accesses", .stat = &MmuStats::accesses},
    {.name = "l1_hits", .stat = &MmuStats::l1_hits},
    {.name = "l2_regular_hits", .stat = &MmuStats::l2_regular_hits},
    {.name = "coalesced_hits", .stat = &MmuStats::coalesced_hits},
    {.name = "page_walks", .stat = &MmuStats::page_walks},
    {.name = "translation_cycles", .stat = &MmuStats::translation_cycles},
    {.name = "shootdowns", .stat = &MmuStats::shootdowns},
    {.name = "shootdown_cycles", .stat = &MmuStats::shootdown_cycles},
    {.name = "instructions_bits", .bits = &SimResult::instructions},
    {.name = "l2_hit_cycles", .count = &SimResult::l2_hit_cycles},
    {.name = "coalesced_cycles", .count = &SimResult::coalesced_cycles},
    {.name = "walk_cycles", .count = &SimResult::walk_cycles},
};
constexpr std::size_t resultFieldCount = std::size(resultFields);
constexpr std::uint32_t allResultFields = (1u << resultFieldCount) - 1;

void
appendSimResult(std::string &out, bool &first, const SimResult &r)
{
    for (const ResultField &field : resultFields) {
        if (field.text)
            appendString(out, first, field.name, r.*field.text);
        else
            appendU64(out, first, field.name, field.number(r));
    }
}

bool
carriesResult(CellStatus status)
{
    return status == CellStatus::Hit || status == CellStatus::Computed ||
           status == CellStatus::Deduped;
}

bool
wireOpFromName(std::string_view name, WireOp &out)
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
cellStatusFromName(std::string_view name, CellStatus &out)
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

/** The semantic-fault slots, in the order the checks rank. */
enum FaultSlot : std::size_t
{
    headFault,     //!< 'ok' or 'op'
    cellsFault,    //!< 'cells' and each cell, in cell order
    countersFault, //!< 'counters'
    faultSlots
};

/**
 * One typed decode: the cursor, scratch space for escaped names and
 * strings, and the semantic faults found so far. A fault is noted and
 * the scan goes on, so a later syntax error still wins; of the faults
 * noted, the line reports the first in the lowest slot.
 */
class LineDecoder
{
  public:
    explicit LineDecoder(const std::string &line) : cur_(line) {}

    JsonCursor &cursor() { return cur_; }

    void fault(FaultSlot slot, std::string msg)
    {
        if (faults_[slot].empty())
            faults_[slot] = std::move(msg);
    }

    /** The next member's name; valid until the next name() call. */
    bool name(std::string_view &key) { return cur_.name(key, name_); }

    // The typed reads: the value at @p depth into @p out, with @p found
    // set, when it has the type asked for; any other value is read
    // over, checked, and leaves @p found false.

    /** A string; the view stays valid until the next readString(). */
    bool readString(int depth, std::string_view &out, bool &found)
    {
        char c = 0;
        found = false;
        if (!cur_.open(depth, c))
            return false;
        if (c != '"')
            return cur_.skip(depth);
        found = true;
        return cur_.string(out, value_);
    }

    /** A plain non-negative integer that fits a u64. */
    bool readU64(int depth, std::uint64_t &out, bool &found)
    {
        char c = 0;
        found = false;
        if (!cur_.open(depth, c))
            return false;
        switch (c) {
          case '{':
          case '[':
          case '"':
          case 't':
          case 'f':
          case 'n': return cur_.skip(depth);
          default: return cur_.number(out, found);
        }
    }

    /** A bool. */
    bool readBool(int depth, bool &out, bool &found)
    {
        char c = 0;
        found = false;
        if (!cur_.open(depth, c))
            return false;
        if (c != 't' && c != 'f')
            return cur_.skip(depth);
        found = true;
        out = c == 't';
        return cur_.literal(out ? "true" : "false");
    }

    /**
     * Each item of the array at @p depth through @p readCell, which
     * enters the opened object. A value that is not an array, or an
     * item that is not an object, is a cells fault and is read over.
     */
    template <typename ReadCell>
    bool readCells(int depth, ReadCell &&readCell)
    {
        char c = 0;
        if (!cur_.open(depth, c))
            return false;
        if (c != '[') {
            fault(cellsFault, "'cells' must be an array");
            return cur_.skip(depth);
        }
        bool more = false;
        cur_.beginArray(more);
        while (more) {
            if (!cur_.open(depth + 1, c))
                return false;
            bool read = false;
            if (c == '{') {
                read = readCell(depth + 1);
            } else {
                fault(cellsFault, "each cell must be an object");
                read = cur_.skip(depth + 1);
            }
            if (!read || !cur_.nextItem(more))
                return false;
        }
        return true;
    }

    /**
     * A root that is not an object: read it over, so a syntax error
     * still wins, then fail with @p what.
     */
    bool notAnObject(const char *what, std::string *error)
    {
        if (!cur_.skip(0) || !cur_.finish())
            return syntaxError(error);
        return report(what, error);
    }

    bool syntaxError(std::string *error)
    {
        return report(cur_.error(), error);
    }

    /** The verdict at the end of the root object. */
    bool verdict(std::string *error)
    {
        if (!cur_.finish())
            return syntaxError(error);
        for (const std::string &msg : faults_) {
            if (!msg.empty())
                return report(msg, error);
        }
        return true;
    }

  private:
    static bool report(const std::string &msg, std::string *error)
    {
        if (error)
            *error = msg;
        return false;
    }

    JsonCursor cur_;
    std::string name_;  //!< an escaped member name
    std::string value_; //!< an escaped string value
    std::array<std::string, faultSlots> faults_;
};

/** One request cell, an opened object at @p depth, into @p cells. */
bool
readRequestCell(LineDecoder &d, int depth, std::vector<CellRequest> &cells)
{
    JsonCursor &cur = d.cursor();
    CellRequest cell;
    // Each is set by the first member of its name; a repeat is read
    // over, so the first of two same-named members wins.
    bool seen_workload = false, seen_scenario = false;
    bool seen_scheme = false, seen_distance = false;
    bool has_workload = false, has_scenario = false, has_scheme = false;
    bool has_distance = false;
    std::string_view text;
    std::uint64_t distance = 0;
    std::string bad_scenario, bad_scheme; // an unknown name, quoted

    bool more = false;
    cur.beginObject(more);
    while (more) {
        std::string_view name;
        if (!d.name(name))
            return false;
        bool read = false;
        if (name == "workload" && !std::exchange(seen_workload, true)) {
            read = d.readString(depth + 1, text, has_workload);
            if (has_workload)
                cell.workload = text;
        } else if (name == "scenario" && !std::exchange(seen_scenario, true)) {
            read = d.readString(depth + 1, text, has_scenario);
            if (has_scenario && !scenarioFromWireName(text, cell.scenario))
                bad_scenario = "'" + std::string(text) + "'";
        } else if (name == "scheme" && !std::exchange(seen_scheme, true)) {
            read = d.readString(depth + 1, text, has_scheme);
            if (has_scheme && !schemeFromWireName(text, cell.scheme))
                bad_scheme = "'" + std::string(text) + "'";
        } else if (name == "distance" && !std::exchange(seen_distance, true)) {
            read = d.readU64(depth + 1, distance, has_distance);
            if (has_distance)
                cell.distance = distance;
        } else {
            read = cur.skip(depth + 1);
        }
        if (!read || !cur.nextMember(more))
            return false;
    }

    if (!has_workload || !has_scenario || !has_scheme)
        d.fault(cellsFault, "cell needs workload/scenario/scheme strings");
    else if (!bad_scenario.empty())
        d.fault(cellsFault, "unknown scenario " + bad_scenario);
    else if (!bad_scheme.empty())
        d.fault(cellsFault, "unknown scheme " + bad_scheme);
    else
        cells.push_back(std::move(cell));
    return true;
}

/** The SimResult members one reply cell has read. */
struct ResultMembers
{
    std::uint32_t seen = 0;  //!< bit i: resultFields[i] was read
    std::uint32_t valid = 0; //!< ... and had the right type
    std::size_t next = 0;    //!< the member after the last one read
};

/**
 * Member @p name of a reply cell, at @p depth: a SimResult member into
 * @p r the first time it appears; a repeat or an unknown name is read
 * over. Tries @p members.next before it scans resultFields, since an
 * encoded line lists the members in order.
 */
bool
readResultMember(LineDecoder &d, int depth, std::string_view name,
                 SimResult &r, ResultMembers &members)
{
    std::size_t index = members.next;
    if (index >= resultFieldCount || resultFields[index].name != name) {
        index = 0;
        while (index < resultFieldCount && resultFields[index].name != name)
            ++index;
    }
    const std::uint32_t bit = 1u << index;
    if (index == resultFieldCount || (members.seen & bit))
        return d.cursor().skip(depth);
    members.seen |= bit;
    members.next = index + 1;

    const ResultField &field = resultFields[index];
    bool found = false;
    bool read = false;
    if (field.text) {
        std::string_view text;
        read = d.readString(depth, text, found);
        if (found)
            r.*field.text = text;
    } else {
        std::uint64_t number = 0;
        read = d.readU64(depth, number, found);
        if (found)
            field.setNumber(r, number);
    }
    if (found)
        members.valid |= bit;
    return read;
}

/** One reply cell, an opened object at @p depth, into @p cells. */
bool
readReplyCell(LineDecoder &d, int depth, std::vector<CellReply> &cells)
{
    JsonCursor &cur = d.cursor();
    CellReply &cell = cells.emplace_back();
    // Each is read from the first member of its name; a repeat is read
    // over, so the first of two same-named members wins.
    bool seen_status = false, seen_error = false, seen_key = false;
    bool has_status = false, has_key = false, found = false;
    std::string_view text;
    ResultMembers result;

    bool more = false;
    cur.beginObject(more);
    while (more) {
        std::string_view name;
        if (!d.name(name))
            return false;
        bool read = false;
        if (name == "status" && !std::exchange(seen_status, true)) {
            read = d.readString(depth + 1, text, found);
            has_status = found && cellStatusFromName(text, cell.status);
        } else if (name == "key" && !std::exchange(seen_key, true)) {
            read = d.readU64(depth + 1, cell.key, has_key);
        } else if (name == "error" && !std::exchange(seen_error, true)) {
            read = d.readString(depth + 1, text, found);
            if (found)
                cell.error = text;
        } else {
            read = readResultMember(d, depth + 1, name, cell.result, result);
        }
        if (!read || !cur.nextMember(more))
            return false;
    }

    if (!has_status) {
        d.fault(cellsFault, "cell needs a valid 'status'");
    } else if (!has_key) {
        d.fault(cellsFault, "cell needs 'key'");
    } else if (carriesResult(cell.status) &&
               result.valid != allResultFields) {
        d.fault(cellsFault, "cell result fields missing or malformed");
    }
    // Only a result-carrying status takes the result members.
    if (!carriesResult(cell.status) && result.seen)
        cell.result = SimResult{};
    return true;
}

/** The counters object, at @p depth, into @p counters. */
bool
readCounters(LineDecoder &d, int depth,
             std::vector<std::pair<std::string, std::uint64_t>> &counters)
{
    JsonCursor &cur = d.cursor();
    char c = 0;
    if (!cur.open(depth, c))
        return false;
    if (c != '{') {
        d.fault(countersFault, "'counters' must be an object");
        return cur.skip(depth);
    }
    bool more = false;
    cur.beginObject(more);
    bool found = false;
    while (more) {
        std::string_view name;
        if (!d.name(name))
            return false;
        auto &counter = counters.emplace_back(name, 0);
        if (!d.readU64(depth + 1, counter.second, found))
            return false;
        if (!found)
            d.fault(countersFault, "counters must be integers");
        if (!cur.nextMember(more))
            return false;
    }
    return true;
}

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    out = JsonValue{};
    JsonCursor cur(text);
    if (buildValue(cur, out, 0) && cur.finish())
        return true;
    if (error)
        *error = cur.error();
    return false;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

bool
schemeFromWireName(std::string_view name, Scheme &out)
{
    const std::optional<Scheme> scheme = findScheme(name, false);
    if (scheme)
        out = *scheme;
    return scheme.has_value();
}

bool
scenarioFromWireName(std::string_view name, ScenarioKind &out)
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

std::string
encodeRequest(const SweepRequest &req)
{
    std::size_t size = 96;
    for (const CellRequest &cell : req.cells)
        size += 96 + cell.workload.size();
    std::string out;
    out.reserve(size);
    out.push_back('{');
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
    out = SweepRequest{};
    LineDecoder d(line);
    JsonCursor &cur = d.cursor();
    char c = 0;
    if (!cur.open(0, c))
        return d.syntaxError(error);
    if (c != '{')
        return d.notAnObject("request must be a JSON object", error);

    // Each is read from the first member of its name; a repeat is read
    // over, so the first of two same-named members wins.
    bool seen_op = false, seen_accesses = false, seen_seed = false;
    bool seen_scale = false, seen_cells = false, found = false;
    std::string_view text;
    std::uint64_t number = 0;

    bool more = false;
    cur.beginObject(more);
    while (more) {
        std::string_view name;
        if (!d.name(name))
            return d.syntaxError(error);
        bool read = false;
        if (name == "op" && !std::exchange(seen_op, true)) {
            read = d.readString(1, text, found);
            if (!found)
                d.fault(headFault, "missing 'op'");
            else if (!wireOpFromName(text, out.op))
                d.fault(headFault, "unknown op '" + std::string(text) + "'");
        } else if (name == "accesses" && !std::exchange(seen_accesses, true)) {
            read = d.readU64(1, number, found);
            if (found)
                out.accesses = number;
        } else if (name == "seed" && !std::exchange(seen_seed, true)) {
            read = d.readU64(1, number, found);
            if (found)
                out.seed = number;
        } else if (name == "scale_bits" && !std::exchange(seen_scale, true)) {
            read = d.readU64(1, number, found);
            if (found)
                out.scale = std::bit_cast<double>(number);
        } else if (name == "cells" && !std::exchange(seen_cells, true)) {
            read = d.readCells(1, [&](int depth) {
                return readRequestCell(d, depth, out.cells);
            });
        } else {
            read = cur.skip(1);
        }
        if (!read || !cur.nextMember(more))
            return d.syntaxError(error);
    }
    if (!seen_op)
        d.fault(headFault, "missing 'op'");
    return d.verdict(error);
}

std::string
encodeResponse(const SweepResponse &resp)
{
    std::string out;
    out.reserve(64 + resp.error.size() + 416 * resp.cells.size() +
                48 * resp.counters.size());
    out.push_back('{');
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
            if (carriesResult(cell.status))
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
            appendU64(out, first_counter, name, value);
        out.push_back('}');
    }
    out.push_back('}');
    return out;
}

bool
decodeResponse(const std::string &line, SweepResponse &out,
               std::string *error)
{
    out = SweepResponse{};
    LineDecoder d(line);
    JsonCursor &cur = d.cursor();
    char c = 0;
    if (!cur.open(0, c))
        return d.syntaxError(error);
    if (c != '{')
        return d.notAnObject("response must be a JSON object", error);

    // Each is read from the first member of its name; a repeat is read
    // over, so the first of two same-named members wins.
    bool seen_ok = false, seen_error = false, seen_cells = false;
    bool seen_counters = false, has_ok = false, found = false;
    std::string_view text;

    bool more = false;
    cur.beginObject(more);
    while (more) {
        std::string_view name;
        if (!d.name(name))
            return d.syntaxError(error);
        bool read = false;
        if (name == "ok" && !std::exchange(seen_ok, true)) {
            read = d.readBool(1, out.ok, has_ok);
        } else if (name == "error" && !std::exchange(seen_error, true)) {
            read = d.readString(1, text, found);
            if (found)
                out.error = text;
        } else if (name == "cells" && !std::exchange(seen_cells, true)) {
            read = d.readCells(1, [&](int depth) {
                return readReplyCell(d, depth, out.cells);
            });
        } else if (name == "counters" && !std::exchange(seen_counters, true)) {
            read = readCounters(d, 1, out.counters);
        } else {
            read = cur.skip(1);
        }
        if (!read || !cur.nextMember(more))
            return d.syntaxError(error);
    }
    if (!has_ok)
        d.fault(headFault, "missing 'ok'");
    return d.verdict(error);
}

bool
LineBuffer::next(std::string &line)
{
    for (;;) {
        const std::size_t newline = buf_.find('\n', start_ + scanned_);
        if (newline == std::string::npos) {
            // Keep only the partial line, so lines already handed out
            // are not copied again as more bytes arrive.
            buf_.erase(0, start_);
            start_ = 0;
            scanned_ = buf_.size();
            return false;
        }
        std::size_t end = newline;
        if (end > start_ && buf_[end - 1] == '\r')
            --end;
        line.assign(buf_, start_, end - start_);
        start_ = newline + 1;
        scanned_ = 0;
        if (!line.empty())
            return true;
    }
}

} // namespace atlb
