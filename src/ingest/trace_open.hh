/**
 * @file
 * Format-dispatching open/inspect entry points for binary trace files.
 *
 * Everything downstream of ingestion (the CLI, the experiment grid, the
 * benches) should not care whether a trace on disk is ATLBTRC1 or
 * ATLBTRC2. openTraceFile() sniffs the magic and returns the right
 * TraceSource — the mmap zero-copy reader for v1, the block decoder for
 * v2 — and inspectTraceFile() answers the cheap metadata questions
 * (count, vaddr bounds) without replaying anything, which is what the
 * grid needs to size an address space for a trace-driven workload.
 */

#ifndef ANCHORTLB_INGEST_TRACE_OPEN_HH
#define ANCHORTLB_INGEST_TRACE_OPEN_HH

#include <cstdint>
#include <memory>
#include <string>

#include "trace/access.hh"

namespace atlb
{

/** On-disk trace container formats. */
enum class TraceKind
{
    V1, //!< ATLBTRC1: fixed 8-byte words
    V2, //!< ATLBTRC2: delta-compressed blocks + index
};

/** Short name for messages and JSON ("atlbtrc1" / "atlbtrc2"). */
const char *traceKindName(TraceKind kind);

/** Read the magic of @p path; fatal if it is neither trace format. */
TraceKind sniffTraceKind(const std::string &path);

/** Cheap metadata about a trace file (no replay). */
struct TraceFileInfo
{
    TraceKind kind = TraceKind::V1;
    std::uint64_t file_bytes = 0;
    std::uint64_t accesses = 0;
    std::uint64_t min_vaddr = 0; //!< 0 when the trace is empty
    std::uint64_t max_vaddr = 0;
    std::uint64_t block_capacity = 0; //!< v2 only, else 0
    std::uint64_t blocks = 0;         //!< v2 only, else 0
};

/**
 * Validate @p path and return its metadata. v2 answers from the
 * trailer; v1 stores no bounds, so the record words are scanned (one
 * sequential mmap pass, no decode into MemAccess).
 */
TraceFileInfo inspectTraceFile(const std::string &path);

/** Open @p path with the reader matching its format; fatal on error. */
std::unique_ptr<TraceSource> openTraceFile(const std::string &path);

/**
 * Limit an underlying source to its first @p limit accesses. The grid
 * replays trace prefixes when the requested cell accesses are fewer
 * than the trace length; next/fill/reset all respect the clamp.
 */
class ClampedTraceSource : public TraceSource
{
  public:
    ClampedTraceSource(std::unique_ptr<TraceSource> inner,
                       std::uint64_t limit);

    bool next(MemAccess &out) override;
    std::size_t fill(MemAccess *out, std::size_t max) override;
    void reset() override;

    std::uint64_t length() const { return limit_; }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t limit_;
    std::uint64_t consumed_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_INGEST_TRACE_OPEN_HH
