/**
 * @file
 * bench_e2e: the repository's end-to-end benchmark (README.md).
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--out FILE] [--dir DIR] [--expected FILE]
 *             [--update-digests]
 *   bench_e2e --smoke [--workload NAME|all] [--dir DIR] [--expected FILE]
 *
 * Runs one workload against a child `anchortlb serve`, checks every
 * output, and prints each metric by name and unit; the last stdout line
 * is one JSON object {correct, attempted, failed, metrics}. --trace 0
 * reports the end-to-end metrics of the untraced run; --trace 1 reports
 * the per-layer metrics of the traced in-process pass. --out also
 * writes the result, stamped with the host fingerprint, for compare.py.
 *
 * --smoke runs the golden-sized budget with every check and writes no
 * result. Outside --smoke, checked, sanitized, coverage and unoptimised
 * builds are refused: they run a different program.
 *
 * Exit status: 0 all checks passed, 1 a check failed, 2 usage error,
 * 3 refused build.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/simd.hh"
#include "e2e.hh"
#include "serve/result_store.hh"
#include "sim/parallel_runner.hh"

namespace
{

using namespace atlb;
using namespace atlb::e2e;
namespace fs = std::filesystem;

constexpr std::uint64_t kDigestSeed = 42;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    std::optional<double> seconds;
    bool trace = false;
    bool smoke = false;
    bool update_digests = false;
    std::string out;
    std::string dir;
    std::string expected;
};

int
usage(const std::string &why)
{
    std::cerr << "bench_e2e: " << why
              << "\nusage: bench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out FILE] [--dir DIR] "
                 "[--expected FILE] [--update-digests]\n"
                 "       bench_e2e --smoke [--workload NAME|all] "
                 "[--dir DIR] [--expected FILE]\n";
    return 2;
}

std::optional<Args>
parseArgs(int argc, char **argv, std::string &error)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        }
        const auto takeValue = [&]() {
            if (eq != std::string::npos)
                return true;
            if (i + 1 >= argc)
                return false;
            value = argv[++i];
            return true;
        };
        if (key == "--smoke") {
            a.smoke = true;
        } else if (key == "--update-digests") {
            a.update_digests = true;
        } else if (key == "--workload" || key == "--seed" ||
                   key == "--seconds" || key == "--trace" ||
                   key == "--out" || key == "--dir" ||
                   key == "--expected") {
            if (!takeValue()) {
                error = key + " needs a value";
                return std::nullopt;
            }
            char *end = nullptr;
            if (key == "--workload") {
                a.workload = value;
            } else if (key == "--seed") {
                a.seed = std::strtoull(value.c_str(), &end, 10);
            } else if (key == "--seconds") {
                a.seconds = std::strtod(value.c_str(), &end);
            } else if (key == "--trace") {
                a.trace = value != "0";
            } else if (key == "--out") {
                a.out = value;
            } else if (key == "--dir") {
                a.dir = value;
            } else {
                a.expected = value;
            }
            if (end && *end != '\0') {
                error = "bad number for " + key + ": '" + value + "'";
                return std::nullopt;
            }
        } else {
            error = "unknown argument '" + key + "'";
            return std::nullopt;
        }
    }
    if (a.workload.empty() && a.smoke)
        a.workload = "all";
    if (a.workload.empty()) {
        error = "--workload is required";
        return std::nullopt;
    }
    if (a.seconds && !(*a.seconds >= 0.0 && *a.seconds <= 3600.0)) {
        error = "--seconds must be in [0, 3600]";
        return std::nullopt;
    }
    if (a.smoke && !a.out.empty()) {
        error = "--smoke writes no result file";
        return std::nullopt;
    }
    return a;
}

// ---------------------------------------------------------- fingerprint

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Host fingerprint: results are comparable only when these match. */
std::vector<std::pair<std::string, std::string>>
fingerprint()
{
    return {
        {"cpu", cpuModel()},
        {"nproc", std::to_string(onlineCpus())},
        {"compiler", ATLB_E2E_COMPILER},
        {"build_type", ATLB_E2E_BUILD_TYPE},
        {"simd", simdLevelName(simdLevel())},
    };
}

/** Why this build must not record results; empty when it may. */
std::string
buildProblem()
{
#ifdef ANCHORTLB_CHECKED
    return "ANCHORTLB_CHECKED is on";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "built with a sanitizer";
#endif
#endif
    if (std::strlen(ATLB_E2E_SANITIZE) != 0)
        return std::string("built with -fsanitize=") + ATLB_E2E_SANITIZE;
    if (ATLB_E2E_COVERAGE)
        return "built with coverage instrumentation";
#ifndef __OPTIMIZE__
    return "built without optimisation";
#endif
    return {};
}

// --------------------------------------------------------------- checks

/**
 * Re-run every sampled reply cell in process through runCellJob, on
 * @p threads threads, and compare result bytes and cell key.
 */
void
verifyChecks(Outcome &out, unsigned threads)
{
    using PairId = std::tuple<std::string, ScenarioKind, std::uint64_t,
                              std::uint64_t, double>;
    std::map<PairId, std::vector<std::size_t>> by_pair;
    for (std::size_t i = 0; i < out.checks.size(); ++i) {
        const CellCheck &c = out.checks[i];
        by_pair[PairId{c.cell.workload, c.cell.scenario, c.options.seed,
                       c.options.accesses, c.options.footprint_scale}]
            .push_back(i);
    }
    std::vector<std::vector<std::size_t>> groups;
    for (auto &[id, members] : by_pair)
        groups.push_back(std::move(members));

    std::atomic<std::size_t> next{0};
    std::mutex problems_m;
    std::vector<std::string> problems;
    const auto worker = [&] {
        for (std::size_t g = next++; g < groups.size(); g = next++) {
            const CellCheck &first = out.checks[groups[g].front()];
            const CellPairState pair(first.options, first.cell.workload,
                                     first.cell.scenario);
            for (const std::size_t i : groups[g]) {
                const CellCheck &c = out.checks[i];
                const CellJob job{c.cell.workload, c.cell.scenario,
                                  c.cell.scheme, c.cell.distance};
                const SimResult direct = runCellJob(c.options, pair, job);
                const CellKey key = cellKeyFor(
                    c.options,
                    CellSpec{c.cell.workload, c.cell.scenario,
                             c.cell.scheme, c.cell.distance},
                    traceContentHash(c.cell.workload));
                std::string why;
                if (encodeSimResult(direct) != c.bytes)
                    why = "result differs from in-process runCellJob";
                else if (key.raw() != c.key)
                    why = "cell key differs from cellKeyFor";
                if (!why.empty()) {
                    const std::lock_guard<std::mutex> lock(problems_m);
                    problems.push_back(c.cell.workload + "/" +
                                       scenarioName(c.cell.scenario) +
                                       "/" + schemeName(c.cell.scheme) +
                                       ": " + why);
                }
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    for (std::string &p : problems)
        out.fail(std::move(p));
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Expected digests: budget -> workload -> hex digest. */
using DigestTable =
    std::map<std::string, std::map<std::string, std::string>>;

DigestTable
loadDigests(const std::string &path)
{
    DigestTable table;
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    if (!in || !parseJson(text.str(), doc, nullptr) ||
        doc.kind != JsonValue::Kind::Object)
        return table;
    for (const auto &[budget, section] : doc.members)
        for (const auto &[workload, digest] : section.members)
            if (digest.kind == JsonValue::Kind::String)
                table[budget][workload] = digest.text;
    return table;
}

bool
saveDigests(const std::string &path, const DigestTable &table)
{
    std::ofstream out(path);
    out << "{\n";
    bool first_budget = true;
    for (const auto &[budget, section] : table) {
        out << (first_budget ? "" : ",\n") << "  \"" << budget
            << "\": {\n";
        first_budget = false;
        bool first = true;
        for (const auto &[workload, digest] : section) {
            out << (first ? "" : ",\n") << "    \"" << workload
                << "\": \"" << digest << "\"";
            first = false;
        }
        out << "\n  }";
    }
    out << "\n}\n";
    return static_cast<bool>(out);
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/**
 * The highest percentile of @p samples samples with at least ten beyond
 * it, kept within [p50, p99]: p99 once there are 1000 samples, and the
 * median when there are too few for any tail.
 */
double
tailQuantile(std::size_t samples)
{
    const double q = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(
                                      samples, 1));
    return std::clamp(q, 0.5, 0.99);
}

std::vector<Metric>
endToEnd(const Outcome &o)
{
    const double cpu_s = o.server_cpu_s + o.client_cpu_s;
    return {
        {"setup_s", o.setup_s, "s"},
        {"sim_maccess_per_cpu_s",
         cpu_s > 0.0 ? o.answered_accesses / cpu_s / 1e6 : 0.0,
         "Maccess/cpu_s"},
    };
}

/**
 * Wall-clock readings of the untraced run, as a client sees them. They
 * are reported with the per-layer metrics because they carry no bound:
 * on a host whose hypervisor steals a varying share of the CPUs they
 * vary more from run to run than any bound allows (README.md).
 */
std::vector<Metric>
clientWall(const Outcome &o)
{
    return {
        {"client.grid_s", quantile(o.pass_s, 0.5), "s"},
        {"client.submit_p50_ms", quantile(o.request_ms, 0.5), "ms"},
        {"client.submit_tail_ms",
         quantile(o.request_ms, tailQuantile(o.request_ms.size())), "ms"},
    };
}

/** Unit of a per-layer metric, from its name's suffix. */
std::string
layerUnit(const std::string &name)
{
    const auto ends = [&name](const std::string &suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    if (ends("_maccess_per_s"))
        return "Maccess/s";
    if (ends("_s"))
        return "s";
    if (name.find("_ms_") != std::string::npos)
        return "ms";
    if (ends("_frac"))
        return "ratio";
    if (ends("_bytes"))
        return "bytes";
    if (ends("_mb"))
        return "MB";
    if (ends("_per_kaccess"))
        return "1/kaccess";
    return "count";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    return s + "}";
}

void
printTable(const std::string &title, const std::vector<Metric> &metrics,
           std::ostream &os)
{
    os << title << "\n";
    for (const Metric &m : metrics) {
        os << "  " << m.name
           << std::string(28 - std::min<std::size_t>(27, m.name.size()),
                          ' ')
           << number(m.value) << " " << m.unit << "\n";
    }
}

/** A private directory for one run; removed on destruction. */
class RunDir
{
  public:
    explicit RunDir(const std::string &base)
    {
        std::error_code ec;
        fs::create_directories(base, ec);
        std::string tmpl = (fs::absolute(base) / "run-XXXXXX").string();
        if (::mkdtemp(tmpl.data()) == nullptr)
            return;
        previous_ = fs::current_path(ec);
        fs::current_path(tmpl, ec);
        if (ec)
            fs::remove_all(tmpl, ec);
        else
            path_ = tmpl;
    }

    ~RunDir()
    {
        if (path_.empty())
            return;
        std::error_code ec;
        fs::current_path(previous_, ec);
        fs::remove_all(path_, ec);
    }

    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

    bool ok() const { return !path_.empty(); }

  private:
    std::string path_;
    fs::path previous_;
};

std::string
absolutePath(const std::string &path)
{
    return path.empty() ? path : fs::absolute(path).string();
}

struct WorkloadResult
{
    const Workload *workload = nullptr;
    Outcome outcome;
    std::vector<Metric> metrics;
};

/** Run one workload with every check; metrics per --trace. */
WorkloadResult
runWorkload(const Workload &w, const Context &ctx, const Args &args,
            const std::string &base_dir)
{
    WorkloadResult r;
    r.workload = &w;
    std::cerr << "bench_e2e: " << w.name << ": " << w.why << "\n";
    const auto start = Clock::now();
    {
        const RunDir run(base_dir);
        if (!run.ok()) {
            r.outcome.fail("cannot create a run directory in " + base_dir);
            return r;
        }
        r.outcome = w.run(ctx);
        verifyChecks(r.outcome, onlineCpus());

        // The smoke always runs the traced pass: it is also the check
        // that the layer split reproduces runCellJob byte for byte.
        if (args.trace || args.smoke) {
            const std::string spans =
                (fs::path(base_dir) /
                 ("spans-" + std::string(w.name) + ".jsonl"))
                    .string();
            const LayerReport layers = traceLayers(ctx, r.outcome, spans);
            if (layers.mismatches)
                r.outcome.fail("traced pass differs from runCellJob on " +
                                   std::to_string(layers.mismatches) +
                                   " of " + std::to_string(layers.sampled) +
                                   " sampled cells",
                               layers.mismatches);
            if (args.trace) {
                for (const auto &[name, value] : layers.metrics)
                    r.metrics.push_back({name, value, layerUnit(name)});
                for (const Metric &m : clientWall(r.outcome))
                    r.metrics.push_back(m);
            }
            std::cerr << "bench_e2e: spans in " << spans << "\n";
        }
    }
    const std::vector<Metric> e2e = endToEnd(r.outcome);
    if (!args.trace)
        r.metrics = e2e;

    std::cerr << "bench_e2e: " << w.name << " seed " << ctx.seed << ": "
              << r.outcome.pass_s.size() << " grid passes, "
              << r.outcome.request_ms.size() << " requests (tail is p"
              << number(100.0 * tailQuantile(r.outcome.request_ms.size()))
              << "), " << r.outcome.checks.size()
              << " cells re-run in process, server peak RSS "
              << number(r.outcome.peak_rss_mb) << " MB, "
              << number(secondsSince(start)) << " s wall\n";
    if (!r.outcome.pass_s.empty())
        std::cerr << "bench_e2e: grid pass seconds min "
                  << number(quantile(r.outcome.pass_s, 0.0)) << ", median "
                  << number(quantile(r.outcome.pass_s, 0.5)) << ", max "
                  << number(quantile(r.outcome.pass_s, 1.0)) << "\n";
    if (!r.outcome.lateness_ms.empty())
        std::cerr << "bench_e2e: open-loop lateness p50 "
                  << number(quantile(r.outcome.lateness_ms, 0.5))
                  << " ms, p99 "
                  << number(quantile(r.outcome.lateness_ms, 0.99))
                  << " ms\n";
    std::cerr << "bench_e2e: timed-phase CPU seconds: server "
              << number(r.outcome.server_cpu_s) << ", client "
              << number(r.outcome.client_cpu_s) << "\n";
    if (args.trace)
        printTable("end-to-end (untraced run, for reference)", e2e,
                   std::cerr);
    else
        printTable("wall clock (reported per layer under --trace 1)",
                   clientWall(r.outcome), std::cerr);
    return r;
}

/** Compare (or, with --update-digests, record) the seed-42 digests. */
void
checkDigests(const Args &args, const Budget &budget,
             std::vector<WorkloadResult> &results)
{
    if (args.seed != kDigestSeed || args.expected.empty())
        return;
    DigestTable table = loadDigests(args.expected);
    for (WorkloadResult &r : results) {
        const std::string digest = hex(r.outcome.digest);
        std::string &expected = table[budget.name][r.workload->name];
        if (args.update_digests) {
            expected = digest;
        } else if (expected != digest) {
            r.outcome.fail(std::string("reply digest ") + digest +
                           " differs from the expected " +
                           (expected.empty() ? "(none)" : expected) +
                           " in " + args.expected);
        }
    }
    if (args.update_digests) {
        if (saveDigests(args.expected, table))
            std::cerr << "bench_e2e: digests written to " << args.expected
                      << "\n";
        else
            std::cerr << "bench_e2e: cannot write " << args.expected
                      << "\n";
    }
}

bool
writeResult(const Args &args, const WorkloadResult &r,
            const std::string &line)
{
    std::ofstream out(args.out);
    out << "{\"bench\": \"bench_e2e\", \"workload\": \""
        << r.workload->name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << number(*args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"commit\": \"" << ATLB_E2E_COMMIT << "\", \"digest\": \""
        << hex(r.outcome.digest) << "\", \"fingerprint\": {";
    bool first = true;
    for (const auto &[key, value] : fingerprint()) {
        out << (first ? "\"" : ", \"") << key << "\": \""
            << escapeJson(value) << "\"";
        first = false;
    }
    out << "}, \"result\": " << line << "}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string error;
    std::optional<Args> parsed = parseArgs(argc, argv, error);
    if (!parsed)
        return usage(error);
    Args args = *std::move(parsed);

    if (!args.smoke) {
        const std::string problem = buildProblem();
        if (!problem.empty()) {
            std::cerr << "bench_e2e: refusing to record results: "
                      << problem << "; build with CMAKE_BUILD_TYPE="
                      << "RelWithDebInfo or Release and no checks\n";
            return 3;
        }
    }

    Context ctx;
    ctx.budget = args.smoke ? smokeBudget() : fullBudget();
    if (args.seconds)
        ctx.budget.seconds = *args.seconds;
    args.seconds = ctx.budget.seconds;
    ctx.seed = args.seed;
    ctx.anchortlb = ATLB_E2E_ANCHORTLB;
    ctx.server_threads = std::max(1u, onlineCpus() - 1);
    args.out = absolutePath(args.out);
    args.expected = absolutePath(args.expected);
    const std::string base_dir = absolutePath(
        args.dir.empty() ? (fs::temp_directory_path() / "bench_e2e").string()
                         : args.dir);

    std::vector<const Workload *> selected;
    for (const Workload &w : workloads())
        if (args.workload == w.name || (args.smoke && args.workload == "all"))
            selected.push_back(&w);
    if (selected.empty())
        return usage("unknown workload '" + args.workload + "'");
    if (selected.size() > 1 && args.trace)
        return usage("--trace 1 runs one workload at a time");

    std::cerr << "bench_e2e: " << ctx.budget.name << " budget, "
              << number(ctx.budget.seconds) << " s timed, server threads "
              << ctx.server_threads;
    for (const auto &[key, value] : fingerprint())
        std::cerr << ", " << key << " " << value;
    std::cerr << ", commit " << ATLB_E2E_COMMIT << "\n";

    std::vector<WorkloadResult> results;
    for (const Workload *w : selected)
        results.push_back(runWorkload(*w, ctx, args, base_dir));
    checkDigests(args, ctx.budget, results);

    bool all_correct = true;
    for (const WorkloadResult &r : results) {
        for (const std::string &f : r.outcome.failures)
            std::cerr << "bench_e2e: " << r.workload->name
                      << ": FAILED: " << f << "\n";
        all_correct = all_correct && r.outcome.failed == 0;
        printTable(std::string(r.workload->name) + " (seed " +
                       std::to_string(args.seed) + ", " +
                       (args.trace ? "per-layer" : "end-to-end") + ", " +
                       std::to_string(r.outcome.attempted) +
                       " cells attempted, " +
                       std::to_string(r.outcome.failed) + " failed)",
                   r.metrics, std::cout);
    }
    if (args.smoke) {
        std::cout << "bench_e2e smoke: " << (all_correct ? "ok" : "FAILED")
                  << "\n";
        return all_correct ? 0 : 1;
    }

    const WorkloadResult &r = results.front();
    const std::string line =
        std::string("{\"correct\": ") + (all_correct ? "true" : "false") +
        ", \"attempted\": " +
        std::to_string(std::max<std::uint64_t>(1, r.outcome.attempted)) +
        ", \"failed\": " + std::to_string(r.outcome.failed) +
        ", \"metrics\": " + metricsJson(r.metrics) + "}";
    if (!args.out.empty() && !writeResult(args, r, line)) {
        std::cerr << "bench_e2e: cannot write " << args.out << "\n";
        return 1;
    }
    std::cout << line << std::endl;
    return all_correct ? 0 : 1;
}
