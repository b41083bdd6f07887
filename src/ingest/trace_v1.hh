/**
 * @file
 * ATLBTRC1: the flat binary trace format, its writer and its reader.
 *
 * Users with real traces (e.g. Pin captures) can convert them to this
 * format and drive the simulator from disk instead of the synthetic
 * generators. The format is deliberately simple:
 *
 *   [0..8)   magic "ATLBTRC1"
 *   [8..16)  little-endian access count
 *   then per access: 8-byte little-endian word whose low bit is the
 *   write flag and whose remaining 63 bits are vaddr >> 1 (vaddr's own
 *   low bit is never meaningful for a memory access).
 *
 * Fixed 8-byte records make v1 the natural fit for zero-copy replay:
 * MappedTraceSource maps the whole file read-only and decodes records
 * straight out of the mapping in fill(), with no user-space buffering
 * and no seeks. ATLBTRC2 (trace_v2.hh) compresses the same stream and
 * keeps its own buffering; ingest/trace_open.hh picks the reader per
 * file.
 */

#ifndef ANCHORTLB_INGEST_TRACE_V1_HH
#define ANCHORTLB_INGEST_TRACE_V1_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "trace/access.hh"

namespace atlb
{

/** The first eight bytes of every ATLBTRC1 file. */
inline constexpr char traceV1Magic[8] = {'A', 'T', 'L', 'B',
                                         'T', 'R', 'C', '1'};

/**
 * Check @p path's ATLBTRC1 header against the file: the access count
 * it declares, or nullopt with the reason in @p error when the file
 * cannot be read, lacks the magic, or does not hold exactly
 * 16 + count * 8 bytes. A workload check uses it to refuse a file
 * without dying; MappedTraceSource makes the same check fatal.
 */
std::optional<std::uint64_t> traceV1Count(const std::string &path,
                                          std::string &error);

/** Streaming writer for the ATLBTRC1 format. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one access. */
    void append(const MemAccess &access);

    /** Flush and patch the header count; called by the destructor too. */
    void close();

    std::uint64_t written() const { return count_; }

  private:
    std::ofstream out_;
    std::string path_;
    std::uint64_t count_ = 0;
    bool closed_ = false;
};

/** Zero-copy TraceSource over an mmap'd ATLBTRC1 file. */
class MappedTraceSource : public TraceSource
{
  public:
    /** Map @p path; fatal on any file traceV1Count() refuses. */
    explicit MappedTraceSource(const std::string &path);
    ~MappedTraceSource() override;

    MappedTraceSource(const MappedTraceSource &) = delete;
    MappedTraceSource &operator=(const MappedTraceSource &) = delete;

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

#endif // ANCHORTLB_INGEST_TRACE_V1_HH
