/**
 * @file
 * Trace codec bench: ATLBTRC2 compression ratio and reader throughput.
 *
 * For a spread of paper workloads (tight loops through graph chasers)
 * materialises each access stream once, writes it as flat v1
 * (ATLBTRC1, 8 bytes/access) and as delta-varint v2 (ATLBTRC2), and
 * reports the size ratio plus encode/decode throughput for each
 * format's one reader: the v1 mmap reader and the v2 block decoder.
 * Results go to stdout as a table and to BENCH_trace_codec.json (or
 * argv[1]) for CI.
 *
 * The machine-independent payload is the compression column: the
 * declared target is v2 <= 60% of v1 on these streams (the JSON records
 * `all_within_target`). Throughput numbers are host-dependent.
 *
 * The v2 decode column is measured twice when the process has a vector
 * SIMD level: once as built (packed blocks unpacked by the level's
 * kernel) and once with the scalar level forced around TraceV2Source
 * construction (the same whole-block decode through the scalar block
 * unpack, scalarUnpackBits). A separate unpack phase times the raw
 * bit-unpack kernels — scalarUnpackBits vs the dispatched kernel —
 * over packed buffers at a width sweep, isolated from I/O, checksums
 * and delta accumulation; `simd_unpack_at_least_scalar` gates the
 * sweep at >= 1.0 in CI and `simd_unpack_speedup` records the honest
 * minimum speedup.
 *
 * A streamed-import phase runs FIRST (getrusage peak RSS is a
 * process-wide high-water mark, so it must precede any stream
 * materialisation): the synthetic generator feeds TraceV2Writer
 * directly and TraceV2Source::fill replays the file, with no
 * std::vector<MemAccess> stage at either end. Two trace lengths (8x
 * apart) are run back to back; the peak RSS delta between them must
 * stay under a fixed slack, asserting O(block) decoder memory
 * independent of trace length (`rss_independent_of_length` in the
 * JSON).
 *
 * Budget knobs: ANCHORTLB_ACCESSES (default 1M here), ANCHORTLB_SCALE,
 * ANCHORTLB_STREAM_ACCESSES (long streamed length, default 100M).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hh"
#include "common/bitpack.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"
#include "sim/experiment.hh"
#include "stats/json_writer.hh"
#include "stats/table.hh"
#include "trace/workload.hh"

namespace
{

using namespace atlb;
using namespace atlb::bench;

/** Locality spread: dense, strided, mixed, and pointer-chasing. */
const char *const kWorkloads[] = {"gups", "milc", "graph500", "mcf",
                                  "mummer"};

struct StreamReport
{
    std::string workload;
    std::uint64_t accesses = 0;
    std::uint64_t v1_bytes = 0;
    std::uint64_t v2_bytes = 0;
    double ratio = 0.0; //!< v2 / v1
    double encode_maccess_s = 0.0;
    double v1_mmap_maccess_s = 0.0;
    double v2_maccess_s = 0.0;
    double v2_scalar_maccess_s = 0.0;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        ATLB_FATAL("cannot stat '{}'", path);
    return static_cast<std::uint64_t>(in.tellg());
}

/** Drain @p source, returning accesses/second. */
double
drainRate(TraceSource &source, std::uint64_t expected)
{
    MemAccess buf[1024];
    std::uint64_t total = 0;
    std::uint64_t checksum = 0;
    const auto start = std::chrono::steady_clock::now();
    std::size_t n;
    while ((n = source.fill(buf, 1024)) > 0) {
        total += n;
        checksum ^= buf[0].vaddr.raw(); // keep the loop un-eliminable
    }
    const double secs = secondsSince(start);
    if (total != expected)
        ATLB_FATAL("reader drained {} of {} accesses", total, expected);
    if (checksum == 0x1234567887654321ULL)
        std::cerr << ""; // never taken; defeats dead-code elimination
    return secs > 0.0 ? static_cast<double>(total) / secs : 0.0;
}

/** Process-wide peak RSS in bytes (Linux ru_maxrss is in KiB). */
std::uint64_t
peakRssBytes()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        ATLB_FATAL("getrusage failed");
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

struct StreamedReport
{
    std::uint64_t accesses = 0;
    std::uint64_t file_bytes = 0;
    double import_maccess_s = 0.0; //!< generate+encode, no buffering
    double replay_maccess_s = 0.0; //!< streamed TraceV2Source::fill
    std::uint64_t peak_rss_bytes = 0; //!< high-water mark afterwards
};

/**
 * Streamed import + replay of @p accesses synthetic accesses: the
 * generator feeds TraceV2Writer access-by-access and the decoder
 * streams back through fill(); neither end materialises the stream.
 */
StreamedReport
runStreamed(const SimOptions &base, std::uint64_t accesses,
            const std::string &path)
{
    SimOptions opts = base;
    opts.accesses = accesses;
    const WorkloadSpec spec = scaledWorkloadSpec(opts, "mcf");

    StreamedReport r;
    r.accesses = accesses;
    {
        const std::unique_ptr<TraceSource> src =
            makeCellTrace(opts, spec, accesses);
        TraceV2Writer w(path);
        MemAccess buf[4096];
        std::size_t n;
        const auto start = std::chrono::steady_clock::now();
        while ((n = src->fill(buf, 4096)) > 0)
            for (std::size_t i = 0; i < n; ++i)
                w.append(buf[i]);
        w.close();
        const double secs = secondsSince(start);
        if (w.written() != accesses)
            ATLB_FATAL("streamed import wrote {} of {} accesses",
                       w.written(), accesses);
        r.import_maccess_s =
            secs > 0.0 ? static_cast<double>(accesses) / secs / 1e6
                       : 0.0;
    }
    r.file_bytes = fileBytes(path);
    {
        TraceV2Source src(path);
        r.replay_maccess_s = drainRate(src, accesses) / 1e6;
    }
    r.peak_rss_bytes = peakRssBytes();
    std::remove(path.c_str());
    return r;
}

StreamReport
measureStream(const SimOptions &options, const std::string &workload,
              const std::string &stem)
{
    const WorkloadSpec spec = scaledWorkloadSpec(options, workload);
    const std::string v1_path = stem + ".atlbtrc1";
    const std::string v2_path = stem + ".atlbtrc2";

    StreamReport report;
    report.workload = workload;
    report.accesses = options.accesses;

    // Materialise the stream once; write both containers from it.
    std::vector<MemAccess> stream;
    stream.reserve(options.accesses);
    {
        const std::unique_ptr<TraceSource> src =
            makeCellTrace(options, spec, options.accesses);
        MemAccess a;
        while (src->next(a))
            stream.push_back(a);
    }

    {
        TraceWriter w(v1_path);
        for (const MemAccess &a : stream)
            w.append(a);
    }
    {
        const auto start = std::chrono::steady_clock::now();
        TraceV2Writer w(v2_path);
        for (const MemAccess &a : stream)
            w.append(a);
        w.close();
        const double secs = secondsSince(start);
        report.encode_maccess_s =
            secs > 0.0 ? static_cast<double>(stream.size()) / secs / 1e6
                       : 0.0;
    }

    report.v1_bytes = fileBytes(v1_path);
    report.v2_bytes = fileBytes(v2_path);
    report.ratio = static_cast<double>(report.v2_bytes) /
                   static_cast<double>(report.v1_bytes);

    {
        MappedTraceSource src(v1_path);
        report.v1_mmap_maccess_s = drainRate(src, stream.size()) / 1e6;
    }
    {
        TraceV2Source src(v2_path);
        report.v2_maccess_s = drainRate(src, stream.size()) / 1e6;
    }
    if (const SimdLevel active = simdLevel();
        active != SimdLevel::Scalar) {
        // The source captures its unpack kernel at construction, so
        // forcing the level around the constructor pins the decode
        // flavour for the whole drain.
        forceSimdLevel(SimdLevel::Scalar);
        TraceV2Source src(v2_path);
        forceSimdLevel(active);
        report.v2_scalar_maccess_s = drainRate(src, stream.size()) / 1e6;
    } else {
        report.v2_scalar_maccess_s = report.v2_maccess_s;
    }

    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
    return report;
}

struct UnpackReport
{
    unsigned width = 0;
    double scalar_melem_s = 0.0;
    double simd_melem_s = 0.0;

    double speedup() const
    {
        return scalar_melem_s > 0.0 ? simd_melem_s / scalar_melem_s
                                    : 1.0;
    }
};

/**
 * Raw bit-unpack kernel at one width, isolated from the codec: pack
 * @p count random @p width-bit values with putBits, then time
 * scalarUnpackBits against the dispatched SIMD kernel over the same
 * buffer. This is the piece the whole-block decoder amortises; the
 * full-file v2 columns above dilute it with I/O, checksumming and
 * delta accumulation.
 */
UnpackReport
measureUnpack(unsigned width, std::size_t count, unsigned reps)
{
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    std::vector<std::uint8_t> packed((count * width + 7) / 8 + 8, 0);
    Rng rng(0x5eedULL + width);
    std::uint64_t bitpos = 0;
    for (std::size_t i = 0; i < count; ++i, bitpos += width)
        putBits(packed.data(), bitpos, rng.next() & mask, width);

    AlignedU64Buffer out;
    out.reset(count);
    std::uint64_t sink = 0;

    UnpackReport r;
    r.width = width;
    {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned rep = 0; rep < reps; ++rep) {
            scalarUnpackBits(packed.data(), packed.size(), width,
                             out.data(), count);
            sink ^= out[count - 1];
        }
        const double secs = secondsSince(start);
        r.scalar_melem_s = static_cast<double>(count) * reps / secs / 1e6;
    }
    // The Scalar and NEON kernel is scalarUnpackBits itself: nothing
    // else to time.
    if (const SimdUnpackFn fn = simdBlockUnpackFn(simdLevel());
        fn != &scalarUnpackBits) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned rep = 0; rep < reps; ++rep) {
            fn(packed.data(), packed.size(), width, out.data(), count);
            sink ^= out[count - 1];
        }
        const double secs = secondsSince(start);
        r.simd_melem_s = static_cast<double>(count) * reps / secs / 1e6;
    } else {
        r.simd_melem_s = r.scalar_melem_s;
    }
    if (sink == 0x1234567887654321ULL)
        std::cerr << ""; // never taken; defeats dead-code elimination
    return r;
}

/**
 * Widths covering the packed encoder's real range: small deltas
 * (strided streams), the gups-like mid widths where bit-packing beats
 * varint hardest, and the widest vectorised bucket (58+ falls back to
 * scalar extraction by design).
 */
const std::vector<unsigned> &
unpackWidths()
{
    static const std::vector<unsigned> widths = {8, 16, 24, 33, 44, 52};
    return widths;
}

/**
 * Allowed peak-RSS growth between the short and 8x-longer streamed
 * run. The decoder holds one compressed block, one decoded block
 * (512KB at the default capacity) and O(1)-per-block index entries
 * (~50KB at 100M accesses), so the honest delta is well under 1MB;
 * the slack absorbs allocator and page-cache jitter while still
 * catching any O(n) stage (even 1 byte/access at the default
 * 100M-access length costs ~87MB, beyond the slack).
 */
constexpr std::uint64_t kStreamRssSlackBytes = 64ull << 20;

void
emitJson(const std::string &path, const SimOptions &opts,
         const std::vector<StreamReport> &streams, double worst_ratio,
         const StreamedReport &stream_short,
         const StreamedReport &stream_long,
         const std::vector<UnpackReport> &unpacks)
{
    std::ofstream out(path);
    if (!out)
        ATLB_FATAL("cannot write '{}'", path);
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "bench_trace_codec");
    json.field("accesses_per_stream", opts.accesses);
    json.field("footprint_scale", opts.footprint_scale);
    json.field("block_capacity", traceV2DefaultBlockCapacity);
    json.field("ratio_target", 0.60);
    json.field("simd_level", simdLevelName(simdLevel()));
    json.key("streamed_import");
    json.beginObject();
    for (const StreamedReport *r : {&stream_short, &stream_long}) {
        json.key(r == &stream_short ? "short" : "long");
        json.beginObject();
        json.field("accesses", r->accesses);
        json.field("file_bytes", r->file_bytes);
        json.field("import_maccess_per_s", r->import_maccess_s);
        json.field("replay_maccess_per_s", r->replay_maccess_s);
        json.field("peak_rss_bytes", r->peak_rss_bytes);
        json.endObject();
    }
    json.field("rss_slack_bytes", kStreamRssSlackBytes);
    json.field("rss_independent_of_length",
               stream_long.peak_rss_bytes <=
                   stream_short.peak_rss_bytes + kStreamRssSlackBytes);
    json.endObject();
    json.key("streams");
    json.beginArray();
    for (const StreamReport &s : streams) {
        json.beginObject();
        json.field("workload", s.workload);
        json.field("accesses", s.accesses);
        json.field("v1_bytes", s.v1_bytes);
        json.field("v2_bytes", s.v2_bytes);
        json.field("v2_over_v1", s.ratio);
        json.field("encode_maccess_per_s", s.encode_maccess_s);
        json.field("v1_mmap_maccess_per_s", s.v1_mmap_maccess_s);
        json.field("v2_decode_maccess_per_s", s.v2_maccess_s);
        json.field("v2_decode_scalar_maccess_per_s",
                   s.v2_scalar_maccess_s);
        json.field("v2_decode_simd_vs_scalar",
                   s.v2_scalar_maccess_s > 0.0
                       ? s.v2_maccess_s / s.v2_scalar_maccess_s
                       : 1.0);
        json.endObject();
    }
    json.endArray();
    double min_unpack_speedup = std::numeric_limits<double>::infinity();
    json.key("unpack_kernels");
    json.beginArray();
    for (const UnpackReport &u : unpacks) {
        min_unpack_speedup = std::min(min_unpack_speedup, u.speedup());
        json.beginObject();
        json.field("width_bits", u.width);
        json.field("scalar_melem_per_s", u.scalar_melem_s);
        json.field("simd_melem_per_s", u.simd_melem_s);
        json.field("speedup", u.speedup());
        json.endObject();
    }
    json.endArray();
    json.field("worst_v2_over_v1", worst_ratio);
    json.field("all_within_target", worst_ratio <= 0.60);
    // Worst width's kernel speedup; trivially 1.0 on scalar-only hosts.
    json.field("simd_unpack_speedup", min_unpack_speedup);
    json.field("simd_unpack_at_least_scalar", min_unpack_speedup >= 1.0);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        opts.accesses = 1'000'000;

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_trace_codec.json";

    printHeader("Trace codec: ATLBTRC2 vs flat v1 (size and throughput)");
    std::cout << opts.accesses << " accesses/stream, v2 block capacity "
              << traceV2DefaultBlockCapacity << "\n\n";

    // Streamed phase first: ru_maxrss is a process-wide high-water
    // mark, so the materialising phases below must not run yet.
    const std::uint64_t stream_long_n =
        envU64("ANCHORTLB_STREAM_ACCESSES", 100'000'000);
    const std::uint64_t stream_short_n = std::max<std::uint64_t>(
        1, stream_long_n / 8);
    std::cout << "streamed import (no materialisation), mcf pattern:\n";
    const StreamedReport stream_short =
        runStreamed(opts, stream_short_n, "bench_codec_stream_tmp");
    std::cout << "  short: " << stream_short.accesses << " accesses, "
              << stream_short.file_bytes / 1e6 << " MB, import "
              << stream_short.import_maccess_s << " Maccess/s, replay "
              << stream_short.replay_maccess_s
              << " Maccess/s, peak RSS "
              << stream_short.peak_rss_bytes / 1e6 << " MB\n";
    const StreamedReport stream_long =
        runStreamed(opts, stream_long_n, "bench_codec_stream_tmp");
    std::cout << "  long:  " << stream_long.accesses << " accesses, "
              << stream_long.file_bytes / 1e6 << " MB, import "
              << stream_long.import_maccess_s << " Maccess/s, replay "
              << stream_long.replay_maccess_s
              << " Maccess/s, peak RSS "
              << stream_long.peak_rss_bytes / 1e6 << " MB\n";
    if (stream_long.peak_rss_bytes >
        stream_short.peak_rss_bytes + kStreamRssSlackBytes)
        ATLB_FATAL("streamed replay peak RSS grew {} -> {} bytes over "
                   "an 8x longer trace: decoder memory is not O(block)",
                   stream_short.peak_rss_bytes,
                   stream_long.peak_rss_bytes);
    std::cout << "  peak RSS delta "
              << (stream_long.peak_rss_bytes -
                  stream_short.peak_rss_bytes) /
                     1e6
              << " MB over an 8x longer trace (slack "
              << kStreamRssSlackBytes / 1e6 << " MB): O(block) holds\n\n";

    Table table("Codec comparison (sizes in MB, rates in Maccess/s)",
                {"workload", "v1 MB", "v2 MB", "v2/v1", "encode",
                 "v1 mmap", "v2 read", "v2 scalar"});

    std::vector<StreamReport> streams;
    double worst_ratio = 0.0;
    for (const char *workload : kWorkloads) {
        const StreamReport r =
            measureStream(opts, workload, "bench_codec_tmp");
        worst_ratio = std::max(worst_ratio, r.ratio);
        table.beginRow();
        table.cell(r.workload);
        table.cell(r.v1_bytes / 1e6, 1);
        table.cell(r.v2_bytes / 1e6, 1);
        table.cell(r.ratio, 3);
        table.cell(r.encode_maccess_s, 1);
        table.cell(r.v1_mmap_maccess_s, 1);
        table.cell(r.v2_maccess_s, 1);
        table.cell(r.v2_scalar_maccess_s, 1);
        streams.push_back(r);
    }
    table.printAscii(std::cout);

    std::cout << "\nbit-unpack kernels (simd level "
              << simdLevelName(simdLevel()) << "), " << "1Mi elems, "
              << "Melem/s:\n";
    std::vector<UnpackReport> unpacks;
    for (const unsigned width : unpackWidths()) {
        const UnpackReport u = measureUnpack(width, 1 << 20, 32);
        std::cout << "  width " << width << ": scalar "
                  << u.scalar_melem_s << ", simd " << u.simd_melem_s
                  << " (" << u.speedup() << "x)\n";
        unpacks.push_back(u);
    }

    std::cout << "\nworst v2/v1 ratio: " << worst_ratio
              << (worst_ratio <= 0.60 ? " (within 0.60 target)"
                                      : " (MISSES 0.60 target)")
              << "\n";

    emitJson(json_path, opts, streams, worst_ratio, stream_short,
             stream_long, unpacks);
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
