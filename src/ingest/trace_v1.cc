#include "trace_v1.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace atlb
{

namespace
{

constexpr std::uint64_t headerBytes = 16;

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::array<char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), 8);
}

/** traceV1Count() over @p fd, open on @p path. */
std::optional<std::uint64_t>
headerCount(int fd, const std::string &path, std::string &error)
{
    struct stat st = {};
    unsigned char head[headerBytes] = {};
    if (::fstat(fd, &st) != 0) {
        error = atlb::format("cannot stat trace file '{}': {}", path,
                             std::strerror(errno));
        return std::nullopt;
    }
    const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
    if (file_bytes < headerBytes) {
        error = atlb::format("'{}' is too short for an ATLBTRC1 trace file",
                             path);
        return std::nullopt;
    }
    if (::pread(fd, head, headerBytes, 0) !=
        static_cast<ssize_t>(headerBytes)) {
        error = atlb::format("cannot read trace file '{}'", path);
        return std::nullopt;
    }
    if (std::memcmp(head, traceV1Magic, sizeof(traceV1Magic)) != 0) {
        error = atlb::format("'{}' is not an ATLBTRC1 trace file", path);
        return std::nullopt;
    }
    std::uint64_t count = 0;
    for (int i = 0; i < 8; ++i)
        count |= static_cast<std::uint64_t>(head[8 + i]) << (8 * i);
    // Don't trust the header count blindly: a truncated copy would fail
    // mid-replay and a padded one silently drop its tail. Bound the
    // count by division before multiplying: a crafted count can make
    // count * 8 wrap past 2^64, pass the equality and send fill()
    // reading far beyond the mapping.
    if (count > (file_bytes - headerBytes) / 8 ||
        headerBytes + count * 8 != file_bytes) {
        error = atlb::format("'{}': header counts {} accesses but the "
                             "file holds {} bytes (truncated or oversized)",
                             path, count, file_bytes);
        return std::nullopt;
    }
    return count;
}

} // namespace

std::optional<std::uint64_t>
traceV1Count(const std::string &path, std::string &error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = atlb::format("cannot open trace file '{}': {}", path,
                             std::strerror(errno));
        return std::nullopt;
    }
    const std::optional<std::uint64_t> count = headerCount(fd, path, error);
    ::close(fd);
    return count;
}

TraceWriter::TraceWriter(const std::string &path)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        ATLB_FATAL("cannot open trace file '{}' for writing", path);
    out_.write(traceV1Magic, sizeof(traceV1Magic));
    putU64(out_, 0); // count patched in close()
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const MemAccess &access)
{
    ATLB_ASSERT(!closed_, "append to a closed trace writer");
    const std::uint64_t word = // lint-allow: page-shift
        (access.vaddr.raw() >> 1 << 1) | (access.write ? 1 : 0);
    putU64(out_, word);
    ++count_;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    out_.seekp(sizeof(traceV1Magic), std::ios::beg);
    putU64(out_, count_);
    out_.flush();
    if (!out_)
        ATLB_FATAL("error writing trace file '{}'", path_);
    out_.close();
}

MappedTraceSource::MappedTraceSource(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        ATLB_FATAL("cannot open trace file '{}': {}", path,
                   std::strerror(errno));
    std::string error;
    const std::optional<std::uint64_t> count = headerCount(fd, path, error);
    if (!count) {
        ::close(fd);
        ATLB_FATAL("{}", error);
    }
    count_ = *count;
    mapped_bytes_ = static_cast<std::size_t>(headerBytes + count_ * 8);
    void *map =
        ::mmap(nullptr, mapped_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);
    if (map == MAP_FAILED)
        ATLB_FATAL("cannot mmap trace file '{}': {}", path,
                   std::strerror(map_err));
    base_ = map;
    ::madvise(base_, mapped_bytes_, MADV_SEQUENTIAL);
    records_ = static_cast<const unsigned char *>(base_) + headerBytes;
}

MappedTraceSource::~MappedTraceSource()
{
    if (base_ != nullptr)
        ::munmap(base_, mapped_bytes_);
}

std::size_t
MappedTraceSource::fill(MemAccess *out, std::size_t max)
{
    const std::uint64_t left = count_ - consumed_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, left));
    const unsigned char *p = records_ + consumed_ * 8;
    for (std::size_t i = 0; i < n; ++i, p += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, 8); // files are written little-endian
        out[i].vaddr = VirtAddr{word & ~1ULL};
        out[i].write = word & 1;
    }
    consumed_ += n;
    return n;
}

void
MappedTraceSource::reset()
{
    consumed_ = 0;
}

} // namespace atlb
