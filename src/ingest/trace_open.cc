#include "trace_open.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/logging.hh"
#include "ingest/trace_v1.hh"
#include "ingest/trace_v2.hh"

namespace atlb
{

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::V1: return "atlbtrc1";
      case TraceKind::V2: return "atlbtrc2";
    }
    return "?";
}

std::optional<TraceKind>
tryTraceKind(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    if (!in)
        error = atlb::format("cannot open trace file '{}'", path);
    else if (!in.read(magic, 8))
        error = atlb::format("'{}' is too short to be a trace file", path);
    else if (std::memcmp(magic, traceV1Magic, 8) == 0)
        return TraceKind::V1;
    else if (std::memcmp(magic, "ATLBTRC2", 8) == 0)
        return TraceKind::V2;
    else
        error = atlb::format(
            "'{}' is neither an ATLBTRC1 nor an ATLBTRC2 trace file", path);
    return std::nullopt;
}

TraceKind
sniffTraceKind(const std::string &path)
{
    std::string error;
    const std::optional<TraceKind> kind = tryTraceKind(path, error);
    if (!kind)
        ATLB_FATAL("{}", error);
    return *kind;
}

std::optional<TraceFileInfo>
tryInspectTraceFile(const std::string &path, std::string &error)
{
    const std::optional<TraceKind> kind = tryTraceKind(path, error);
    if (!kind)
        return std::nullopt;
    TraceFileInfo info;
    info.kind = *kind;
    if (info.kind == TraceKind::V2) {
        const std::optional<TraceV2Layout> layout =
            traceV2Layout(path, error);
        if (!layout)
            return std::nullopt;
        info.file_bytes = layout->file_bytes;
        info.accesses = layout->total;
        info.min_vaddr = info.accesses > 0 ? layout->min_vaddr : 0;
        info.max_vaddr = info.accesses > 0 ? layout->max_vaddr : 0;
        info.block_capacity = layout->block_capacity;
        info.blocks = layout->index.size();
        return info;
    }
    const std::optional<std::uint64_t> count = traceV1Count(path, error);
    if (!count)
        return std::nullopt;
    info.file_bytes = 16 + *count * 8; // the size traceV1Count checked
    info.accesses = *count;
    // v1 stores no bounds; one sequential pass over the mapping.
    MappedTraceSource src(path);
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    MemAccess batch[1024];
    std::size_t got;
    while ((got = src.fill(batch, 1024)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            lo = std::min(lo, batch[i].vaddr.raw());
            hi = std::max(hi, batch[i].vaddr.raw());
        }
    }
    info.min_vaddr = info.accesses > 0 ? lo : 0;
    info.max_vaddr = info.accesses > 0 ? hi : 0;
    return info;
}

TraceFileInfo
inspectTraceFile(const std::string &path)
{
    std::string error;
    const std::optional<TraceFileInfo> info =
        tryInspectTraceFile(path, error);
    if (!info)
        ATLB_FATAL("{}", error);
    return *info;
}

std::unique_ptr<TraceSource>
openTraceFile(const std::string &path)
{
    switch (sniffTraceKind(path)) {
      case TraceKind::V1:
        return std::make_unique<MappedTraceSource>(path);
      case TraceKind::V2:
        return std::make_unique<TraceV2Source>(path);
    }
    ATLB_PANIC("unreachable trace kind");
}

ClampedTraceSource::ClampedTraceSource(std::unique_ptr<TraceSource> inner,
                                       std::uint64_t limit)
    : inner_(std::move(inner)), limit_(limit)
{
    ATLB_ASSERT(inner_ != nullptr, "clamping a null trace source");
}

std::size_t
ClampedTraceSource::fill(MemAccess *out, std::size_t max)
{
    const std::uint64_t left = limit_ - consumed_;
    if (left == 0)
        return 0;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, left));
    const std::size_t got = inner_->fill(out, want);
    consumed_ += got;
    return got;
}

void
ClampedTraceSource::reset()
{
    inner_->reset();
    consumed_ = 0;
}

} // namespace atlb
