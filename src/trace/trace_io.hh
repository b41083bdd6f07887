/**
 * @file
 * Binary trace-file format: capture and replay of access streams.
 *
 * Users with real traces (e.g. Pin captures) can convert them to this
 * format and drive the simulator with TraceFileSource instead of the
 * synthetic generators. The format is deliberately simple:
 *
 *   [0..8)   magic "ATLBTRC1"
 *   [8..16)  little-endian access count
 *   then per access: 8-byte little-endian word whose low bit is the
 *   write flag and whose remaining 63 bits are vaddr >> 1 (vaddr's own
 *   low bit is never meaningful for a memory access).
 */

#ifndef ANCHORTLB_TRACE_TRACE_IO_HH
#define ANCHORTLB_TRACE_TRACE_IO_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "trace/access.hh"

namespace atlb
{

/** Streaming writer for the binary trace format. */
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

/** TraceSource replaying a file written by TraceWriter. */
class TraceFileSource : public TraceSource
{
  public:
    /** Open @p path; fatal on missing file or bad magic. */
    explicit TraceFileSource(const std::string &path);

    bool next(MemAccess &out) override;

    void reset() override;

    std::uint64_t length() const { return count_; }

  private:
    std::ifstream in_;
    std::string path_;
    std::uint64_t count_ = 0;
    std::uint64_t consumed_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_TRACE_TRACE_IO_HH
