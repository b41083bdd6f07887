/**
 * @file
 * mmap-backed zero-copy reader for ATLBTRC1 trace files.
 *
 * TraceFileSource (trace_io.hh) pulls fixed-width records through an
 * ifstream one read at a time; for replaying large captured traces the
 * kernel's page cache is the better buffer. MappedTraceSource maps the
 * whole file read-only and decodes records straight out of the mapping
 * in the batched fill() hot path — no user-space buffering and no
 * seeks. bench_trace_codec records the measured throughput advantage
 * over the ifstream reader.
 *
 * The v1 format is the natural fit for zero-copy (records are fixed
 * 8-byte words); ATLBTRC2 blocks must be decoded anyway, so the v2
 * reader keeps its own buffering. ingest/trace_open.hh picks the right
 * reader per file.
 */

#ifndef ANCHORTLB_INGEST_MAPPED_TRACE_HH
#define ANCHORTLB_INGEST_MAPPED_TRACE_HH

#include <cstdint>
#include <string>

#include "trace/access.hh"

namespace atlb
{

/** Zero-copy TraceSource over an mmap'd ATLBTRC1 file. */
class MappedTraceSource : public TraceSource
{
  public:
    /**
     * Map @p path; fatal on missing file, bad magic, or a file size
     * inconsistent with the header count (16 + count * 8 bytes).
     */
    explicit MappedTraceSource(const std::string &path);
    ~MappedTraceSource() override;

    MappedTraceSource(const MappedTraceSource &) = delete;
    MappedTraceSource &operator=(const MappedTraceSource &) = delete;

    bool next(MemAccess &out) override;

    /** Decode up to @p max records straight from the mapping. */
    std::size_t fill(MemAccess *out, std::size_t max) override;

    void reset() override;

    std::uint64_t length() const { return count_; }

  private:
    void *base_ = nullptr;
    std::size_t mapped_bytes_ = 0;
    const unsigned char *records_ = nullptr;
    std::uint64_t count_ = 0;
    std::uint64_t consumed_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_INGEST_MAPPED_TRACE_HH
