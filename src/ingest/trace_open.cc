#include "trace_open.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/logging.hh"
#include "ingest/mapped_trace.hh"
#include "ingest/trace_v2.hh"

namespace atlb
{

namespace
{

std::uint64_t
fileBytes(std::ifstream &in)
{
    in.seekg(0, std::ios::end);
    const std::uint64_t bytes = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);
    return bytes;
}

} // namespace

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::V1: return "atlbtrc1";
      case TraceKind::V2: return "atlbtrc2";
    }
    return "?";
}

TraceKind
sniffTraceKind(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        ATLB_FATAL("cannot open trace file '{}'", path);
    char magic[8] = {};
    if (!in.read(magic, 8))
        ATLB_FATAL("'{}' is too short to be a trace file", path);
    if (std::memcmp(magic, "ATLBTRC1", 8) == 0)
        return TraceKind::V1;
    if (std::memcmp(magic, "ATLBTRC2", 8) == 0)
        return TraceKind::V2;
    ATLB_FATAL("'{}' is neither an ATLBTRC1 nor an ATLBTRC2 trace file",
               path);
}

TraceFileInfo
inspectTraceFile(const std::string &path)
{
    TraceFileInfo info;
    info.kind = sniffTraceKind(path);
    {
        std::ifstream in(path, std::ios::binary);
        info.file_bytes = fileBytes(in);
    }
    if (info.kind == TraceKind::V2) {
        TraceV2Source src(path);
        info.accesses = src.length();
        info.min_vaddr = src.length() > 0 ? src.minVaddr() : 0;
        info.max_vaddr = src.length() > 0 ? src.maxVaddr() : 0;
        info.block_capacity = src.blockCapacity();
        info.blocks = src.blockCount();
        return info;
    }
    // v1 stores no bounds; one sequential pass over the mapping.
    MappedTraceSource src(path);
    info.accesses = src.length();
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

bool
ClampedTraceSource::next(MemAccess &out)
{
    if (consumed_ >= limit_)
        return false;
    if (!inner_->next(out))
        return false;
    ++consumed_;
    return true;
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
