/**
 * @file
 * anchortlb_lint: domain-rule checker for the anchortlb tree.
 *
 * Enforces the project rules that generic static analysis cannot
 * express (see DESIGN.md, "Lint rule catalog"):
 *
 *   raw-u64-api    public translate/lookup/insert signatures in
 *                  headers must take the strong address-space types
 *                  (Vpn/Ppn/VirtAddr/TlbKey/...), never raw
 *                  std::uint64_t.
 *   page-shift     no bare `<<`/`>>` page arithmetic on address-like
 *                  operands outside common/bitops.hh and
 *                  common/types.hh; use the typed helpers
 *                  (vpnOf/vaOf/pageKey/alignDown/...) instead.
 *   dcheck-effect  ANCHOR_DCHECK arguments must be side-effect free:
 *                  the macro compiles out in release builds, so any
 *                  mutation inside it changes behaviour across build
 *                  modes.
 *   kernel-stats   inside the batch loop body (runBatchKernelVecT),
 *                  stats may only be flushed at the top level of the
 *                  function body (the register-resident counter
 *                  pattern); per-access stats mutation inside the
 *                  loop defeats the kernel.
 *
 * Escape hatch: a `// lint-allow: <rule>` comment on the offending
 * line (or the line above) suppresses that rule there. Every allow is
 * greppable, so exceptions stay auditable.
 *
 * Deliberately token-level: the build image carries no libclang, and
 * the four rules only need comment-aware tokenization plus brace
 * matching. Driven either by explicit file arguments or by a
 * compile_commands.json (-p <build-dir>), from which it lints every
 * in-repo translation unit plus all headers in src/.
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

struct Finding
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/** One lexed token with its source line. */
struct Token
{
    std::string text;
    std::size_t line = 0;
};

struct FileText
{
    std::vector<Token> tokens;
    /** Lines carrying `lint-allow: <rule>` comments, per rule. */
    std::set<std::pair<std::string, std::size_t>> allows;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Tokenize C++ source: skips comments and string/char literals but
 * harvests `lint-allow: rule` markers from comments. Multi-character
 * operators that the rules care about (<<, >>, ++, --, compound
 * assignment, ==, !=, <=, >=, ->) are kept as single tokens.
 */
FileText
lex(const std::string &src)
{
    FileText out;
    std::size_t line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto harvestAllow = [&out](const std::string &comment,
                               std::size_t at_line) {
        const std::string needle = "lint-allow:";
        std::size_t pos = comment.find(needle);
        while (pos != std::string::npos) {
            std::size_t p = pos + needle.size();
            while (p < comment.size() &&
                   std::isspace(static_cast<unsigned char>(comment[p])))
                ++p;
            std::string rule;
            while (p < comment.size() &&
                   (isIdentChar(comment[p]) || comment[p] == '-'))
                rule += comment[p++];
            if (!rule.empty())
                out.allows.emplace(rule, at_line);
            pos = comment.find(needle, p);
        }
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t j = i;
            while (j < n && src[j] != '\n')
                ++j;
            harvestAllow(src.substr(i, j - i), line);
            i = j;
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const std::size_t start_line = line;
            std::size_t j = i + 2;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
                if (src[j] == '\n')
                    ++line;
                ++j;
            }
            harvestAllow(src.substr(i, j + 2 - i), start_line);
            i = (j + 1 < n) ? j + 2 : n;
            continue;
        }
        // String / char literal (no raw-string support needed here).
        if (c == '"' || c == '\'') {
            std::size_t j = i + 1;
            while (j < n && src[j] != c) {
                if (src[j] == '\\')
                    ++j;
                else if (src[j] == '\n')
                    ++line;
                ++j;
            }
            out.tokens.push_back({std::string(1, c) + "...", line});
            i = j + 1;
            continue;
        }
        // Identifier / number.
        if (isIdentChar(c)) {
            std::size_t j = i;
            while (j < n && isIdentChar(src[j]))
                ++j;
            out.tokens.push_back({src.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Multi-char operators the rules inspect.
        static const char *two_or_three[] = {
            "<<=", ">>=", "<<", ">>", "++", "--", "==", "!=", "<=",
            ">=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
            "->", "::"};
        bool matched = false;
        for (const char *op : two_or_three) {
            const std::size_t len = std::char_traits<char>::length(op);
            if (src.compare(i, len, op) == 0) {
                out.tokens.push_back({op, line});
                i += len;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        out.tokens.push_back({std::string(1, c), line});
        ++i;
    }
    return out;
}

bool
allowed(const FileText &f, const std::string &rule, std::size_t line)
{
    return f.allows.count({rule, line}) != 0 ||
           (line > 0 && f.allows.count({rule, line - 1}) != 0);
}

/** Case-insensitive "identifier smells like an address/page number". */
bool
addressLike(const std::string &ident)
{
    std::string low;
    low.reserve(ident.size());
    for (char c : ident)
        low += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (const char *needle :
         {"vpn", "ppn", "pfn", "vaddr", "paddr", "gpa", "frame",
          "page_num", "tlbkey"})
        if (low.find(needle) != std::string::npos)
            return true;
    return low == "key" || low == "addr" || low == "va" || low == "pa";
}

/**
 * Identifier names a page-size shift (pageShift, hugeShift,
 * giantShift). PTE bit-field offsets (contigShift and friends) are
 * field packing, not page arithmetic, and stay out of scope.
 */
bool
pageShiftLike(const std::string &ident)
{
    std::string low;
    for (char c : ident)
        low += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (low.find("shift") == std::string::npos &&
        low.find("log2") == std::string::npos)
        return false;
    if (low.find("contig") != std::string::npos)
        return false;
    return low.find("page") != std::string::npos ||
           low.find("huge") != std::string::npos ||
           low.find("giant") != std::string::npos ||
           low.find("anchor") != std::string::npos;
}

bool
isIntLiteral(const std::string &t)
{
    return !t.empty() &&
           std::isdigit(static_cast<unsigned char>(t[0])) != 0;
}

bool
isIdent(const std::string &t)
{
    return !t.empty() && isIdentChar(t[0]) &&
           std::isdigit(static_cast<unsigned char>(t[0])) == 0;
}

/** Find the matching closer for tokens[open] ∈ {(,{,[}. */
std::size_t
matchDelim(const std::vector<Token> &toks, std::size_t open)
{
    const std::string &o = toks[open].text;
    const std::string c = o == "(" ? ")" : (o == "{" ? "}" : "]");
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == o)
            ++depth;
        else if (toks[i].text == c && --depth == 0)
            return i;
    }
    return toks.size();
}

/**
 * Rule raw-u64-api: in headers, a function named translate/lookup/
 * insert — one of the shootdown crossings invalidatePage/
 * invalidateL2/invalidateAsid — or one of the store/serve surface
 * names store/get/put/invalidate — whose parameter list mentions
 * uint64_t must use the strong types (CellKey for result-store APIs).
 * Calls (preceded by `.`, `->`) are skipped; declarations and inline
 * definitions are checked.
 */
void
checkRawU64Api(const std::string &path, const FileText &f,
               std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const std::string &name = t[i].text;
        if (name != "translate" && name != "lookup" && name != "insert" &&
            name != "invalidatePage" && name != "invalidateL2" &&
            name != "invalidateAsid" &&
            name != "store" && name != "get" && name != "put" &&
            name != "invalidate")
            continue;
        if (t[i + 1].text != "(")
            continue;
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))
            continue; // member call, not a declaration
        const std::size_t close = matchDelim(t, i + 1);
        // Declarations/definitions are followed by ;, {, const, etc.
        // A call is followed by an operator or another call — but a
        // call can also end a statement; the uint64_t test below only
        // fires on parameter lists, where a type name appears.
        bool has_u64 = false;
        for (std::size_t j = i + 2; j < close; ++j)
            if (t[j].text == "uint64_t")
                has_u64 = true;
        if (!has_u64)
            continue;
        if (allowed(f, "raw-u64-api", t[i].line))
            continue;
        out.push_back(
            {path, t[i].line, "raw-u64-api",
             "public '" + name +
                 "' signature takes raw std::uint64_t; use the strong "
                 "address types (Vpn/Ppn/VirtAddr/TlbKey/PageCount/"
                 "Asid/CellKey)"});
    }
}

/**
 * Rule page-shift: `A << B` / `A >> B` where A is an address-like
 * identifier chain and B is an integer literal or a shift-amount
 * identifier — or B itself is a named page shift. Page arithmetic
 * belongs in common/bitops.hh and common/types.hh.
 */
void
checkPageShift(const std::string &path, const FileText &f,
               std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        if (t[i].text != "<<" && t[i].text != ">>")
            continue;
        // Right operand.
        const std::string &rhs = t[i + 1].text;
        const bool rhs_shifty =
            isIntLiteral(rhs) || (isIdent(rhs) && pageShiftLike(rhs));
        const bool rhs_generic_shift =
            isIdent(rhs) && rhs.find("shift") != std::string::npos;
        if (!rhs_shifty && !rhs_generic_shift)
            continue;
        // Left operand: nearest identifier, looking through ) and
        // .raw() style member chains.
        std::size_t j = i - 1;
        while (j > 0 &&
               (t[j].text == ")" || t[j].text == "(" ||
                t[j].text == "." || t[j].text == "->" ||
                t[j].text == "raw"))
            --j;
        const std::string &lhs = t[j].text;
        const bool lhs_addressy = isIdent(lhs) && addressLike(lhs);
        const bool rhs_named_shift = isIdent(rhs) && pageShiftLike(rhs);
        // Fire when an address-like value meets any shift, or when a
        // named page-size shift appears regardless of the left side.
        if (!(lhs_addressy && (rhs_shifty || rhs_generic_shift)) &&
            !rhs_named_shift)
            continue;
        if (allowed(f, "page-shift", t[i].line))
            continue;
        out.push_back({path, t[i].line, "page-shift",
                       "bare '" + lhs + " " + t[i].text + " " + rhs +
                           "' page arithmetic; use the typed helpers "
                           "in common/types.hh or common/bitops.hh"});
    }
}

/**
 * Rule dcheck-effect: ANCHOR_DCHECK compiles out in release builds,
 * so its argument expression must not mutate state.
 */
void
checkDcheckEffect(const std::string &path, const FileText &f,
                  std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].text != "ANCHOR_DCHECK" || t[i + 1].text != "(")
            continue;
        const std::size_t close = matchDelim(t, i + 1);
        for (std::size_t j = i + 2; j < close; ++j) {
            const std::string &op = t[j].text;
            const bool mutating =
                op == "++" || op == "--" || op == "+=" || op == "-=" ||
                op == "*=" || op == "/=" || op == "%=" || op == "&=" ||
                op == "|=" || op == "^=" || op == "<<=" || op == ">>=" ||
                (op == "=" && j > i + 2);
            if (!mutating)
                continue;
            if (allowed(f, "dcheck-effect", t[j].line))
                continue;
            out.push_back({path, t[j].line, "dcheck-effect",
                           "side effect ('" + op +
                               "') inside ANCHOR_DCHECK; the macro "
                               "compiles out in release builds"});
            break;
        }
    }
}

/**
 * Rule kernel-stats: in the batch loop definition (runBatchKernelVecT,
 * every SIMD level's loop), stats_ may be touched only at the top
 * level of the function body (the post-loop flush of
 * register-resident counters).
 */
void
checkKernelStats(const std::string &path, const FileText &f,
                 std::vector<Finding> &out)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].text != "runBatchKernelVecT" || t[i + 1].text != "(")
            continue;
        // Only a definition counts: argument list, then the body.
        const std::size_t body = matchDelim(t, i + 1) + 1;
        if (body >= t.size() || t[body].text != "{")
            continue;
        const std::size_t body_end = matchDelim(t, body);
        int depth = 0;
        for (std::size_t j = body; j < body_end; ++j) {
            if (t[j].text == "{")
                ++depth;
            else if (t[j].text == "}")
                --depth;
            else if (t[j].text == "stats_" && depth > 1) {
                if (allowed(f, "kernel-stats", t[j].line))
                    continue;
                out.push_back({path, t[j].line, "kernel-stats",
                               "stats_ touched inside a nested block of " +
                                   t[i].text +
                                   "; accumulate in locals and flush "
                                   "once at the end of the body"});
            }
        }
    }
}

/** Strip a `.lintfix` suffix so test fixtures classify naturally. */
std::string
effectiveName(const std::string &path)
{
    const std::string suffix = ".lintfix";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return path.substr(0, path.size() - suffix.size());
    return path;
}

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

bool
lintFile(const std::string &path, std::vector<Finding> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "anchortlb_lint: cannot read " << path << "\n";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const FileText f = lex(ss.str());

    const std::string name = effectiveName(path);
    const bool is_header = endsWith(name, ".hh");
    const bool is_bitops = endsWith(name, "common/bitops.hh") ||
                           endsWith(name, "common/types.hh");

    if (is_header && !is_bitops)
        checkRawU64Api(path, f, out);
    if (!is_bitops)
        checkPageShift(path, f, out);
    checkDcheckEffect(path, f, out);
    checkKernelStats(path, f, out);
    return true;
}

/**
 * Extract in-repo source files from compile_commands.json with a
 * minimal scan (entries are `"file": "<path>"`), then add every
 * header under the repo's src/ tree.
 */
std::vector<std::string>
filesFromCompileCommands(const std::string &build_dir)
{
    std::vector<std::string> files;
    const fs::path cc = fs::path(build_dir) / "compile_commands.json";
    std::ifstream in(cc);
    if (!in) {
        std::cerr << "anchortlb_lint: cannot read " << cc.string()
                  << "\n";
        return files;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    std::set<std::string> seen;
    fs::path repo_src;
    const std::string key = "\"file\"";
    std::size_t pos = text.find(key);
    while (pos != std::string::npos) {
        std::size_t q1 = text.find('"', pos + key.size() + 1);
        if (q1 == std::string::npos)
            break;
        std::size_t q2 = text.find('"', q1 + 1);
        if (q2 == std::string::npos)
            break;
        const std::string file = text.substr(q1 + 1, q2 - q1 - 1);
        // Only lint in-repo translation units, not fetched deps.
        if (file.find("_deps") == std::string::npos &&
            (file.find("/src/") != std::string::npos ||
             file.find("/bench/") != std::string::npos ||
             file.find("/tools/") != std::string::npos ||
             file.find("/examples/") != std::string::npos)) {
            if (seen.insert(file).second)
                files.push_back(file);
            if (repo_src.empty()) {
                const std::size_t s = file.find("/src/");
                if (s != std::string::npos)
                    repo_src = file.substr(0, s + 4);
            }
        }
        pos = text.find(key, q2);
    }
    if (!repo_src.empty() && fs::exists(repo_src)) {
        for (const auto &e : fs::recursive_directory_iterator(repo_src))
            if (e.is_regular_file() &&
                e.path().extension() == ".hh" &&
                seen.insert(e.path().string()).second)
                files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    bool gha = false;
    std::string build_dir;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gha") {
            gha = true;
        } else if (arg == "-p" && i + 1 < argc) {
            build_dir = argv[++i];
        } else if (arg == "-h" || arg == "--help") {
            std::cout
                << "usage: anchortlb_lint [--gha] [-p <build-dir>] "
                   "[files...]\n"
                   "rules: raw-u64-api page-shift dcheck-effect "
                   "kernel-stats\n"
                   "suppress with '// lint-allow: <rule>' on or above "
                   "the offending line\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "anchortlb_lint: unknown option " << arg
                      << "\n";
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (!build_dir.empty()) {
        const std::vector<std::string> discovered =
            filesFromCompileCommands(build_dir);
        files.insert(files.end(), discovered.begin(), discovered.end());
    }
    if (files.empty()) {
        std::cerr << "anchortlb_lint: no input files (pass paths or "
                     "-p <build-dir>)\n";
        return 2;
    }

    std::vector<Finding> findings;
    bool io_ok = true;
    for (const std::string &f : files)
        io_ok = lintFile(f, findings) && io_ok;

    for (const Finding &f : findings) {
        std::cout << f.file << ":" << f.line << ": error: [" << f.rule
                  << "] " << f.message << "\n";
        if (gha)
            std::cout << "::error file=" << f.file << ",line=" << f.line
                      << "::[" << f.rule << "] " << f.message << "\n";
    }
    if (!io_ok)
        return 2;
    if (!findings.empty()) {
        std::cout << "anchortlb_lint: " << findings.size()
                  << " finding(s) in " << files.size() << " file(s)\n";
        return 1;
    }
    return 0;
}
