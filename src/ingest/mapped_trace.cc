#include "mapped_trace.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace atlb
{

namespace
{

constexpr char magic[8] = {'A', 'T', 'L', 'B', 'T', 'R', 'C', '1'};
constexpr std::uint64_t headerBytes = 16;

std::uint64_t
readU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

MappedTraceSource::MappedTraceSource(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        ATLB_FATAL("cannot open trace file '{}': {}", path,
                   std::strerror(errno));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        ATLB_FATAL("cannot stat trace file '{}': {}", path,
                   std::strerror(err));
    }
    const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
    if (file_bytes < headerBytes) {
        ::close(fd);
        ATLB_FATAL("'{}' is too short for an anchortlb trace file",
                   path);
    }

    void *map = ::mmap(nullptr, static_cast<std::size_t>(file_bytes),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);
    if (map == MAP_FAILED)
        ATLB_FATAL("cannot mmap trace file '{}': {}", path,
                   std::strerror(map_err));
    base_ = map;
    mapped_bytes_ = static_cast<std::size_t>(file_bytes);
    ::madvise(base_, mapped_bytes_, MADV_SEQUENTIAL);

    const auto *head = static_cast<const unsigned char *>(base_);
    if (std::memcmp(head, magic, 8) != 0)
        ATLB_FATAL("'{}' is not an anchortlb trace file", path);
    count_ = readU64(head + 8);
    // Bound the count by division before multiplying: a crafted header
    // whose count makes count_ * 8 wrap past 2^64 would otherwise pass
    // the size check and send fill() reading far beyond the mapping.
    if (count_ > (file_bytes - headerBytes) / 8 ||
        headerBytes + count_ * 8 != file_bytes)
        ATLB_FATAL("'{}': header counts {} accesses but the file holds "
                   "{} bytes (truncated or oversized)",
                   path, count_, file_bytes);
    records_ = head + headerBytes;
}

MappedTraceSource::~MappedTraceSource()
{
    if (base_ != nullptr)
        ::munmap(base_, mapped_bytes_);
}

bool
MappedTraceSource::next(MemAccess &out)
{
    return fill(&out, 1) == 1;
}

std::size_t
MappedTraceSource::fill(MemAccess *out, std::size_t max)
{
    const std::uint64_t left = count_ - consumed_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, left));
    const unsigned char *p = records_ + consumed_ * 8;
    for (std::size_t i = 0; i < n; ++i, p += 8) {
        std::uint64_t word;
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
