#include "trace_io.hh"

#include <array>
#include <cstring>

#include "common/logging.hh"

namespace atlb
{

namespace
{

constexpr char magic[8] = {'A', 'T', 'L', 'B', 'T', 'R', 'C', '1'};

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::array<char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), 8);
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    std::array<char, 8> buf;
    if (!is.read(buf.data(), 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        ATLB_FATAL("cannot open trace file '{}' for writing", path);
    out_.write(magic, sizeof(magic));
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
    out_.seekp(sizeof(magic), std::ios::beg);
    putU64(out_, count_);
    out_.flush();
    if (!out_)
        ATLB_FATAL("error writing trace file '{}'", path_);
    out_.close();
}

TraceFileSource::TraceFileSource(const std::string &path)
    : in_(path, std::ios::binary), path_(path)
{
    if (!in_)
        ATLB_FATAL("cannot open trace file '{}'", path);
    in_.seekg(0, std::ios::end);
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
    char got[8];
    if (!in_.read(got, 8) || std::memcmp(got, magic, 8) != 0)
        ATLB_FATAL("'{}' is not an anchortlb trace file", path);
    if (!getU64(in_, count_))
        ATLB_FATAL("'{}': truncated trace header", path);
    // Don't trust the header count blindly: a truncated copy would
    // otherwise fail mid-replay (or an oversized one silently drop its
    // tail), so reconcile it with the actual size up front. Bound the
    // count by division before multiplying — a crafted count can make
    // count_ * 8 wrap past 2^64 and sneak through the equality check.
    if (count_ > (file_bytes - 16) / 8 || 16 + count_ * 8 != file_bytes)
        ATLB_FATAL("'{}': header counts {} accesses but the file holds "
                   "{} bytes (truncated or oversized)",
                   path, count_, file_bytes);
}

bool
TraceFileSource::next(MemAccess &out)
{
    if (consumed_ >= count_)
        return false;
    std::uint64_t word = 0;
    if (!getU64(in_, word))
        ATLB_FATAL("'{}': truncated trace body at record {}", path_,
                   consumed_);
    out.vaddr = VirtAddr{word & ~1ULL};
    out.write = word & 1;
    ++consumed_;
    return true;
}

void
TraceFileSource::reset()
{
    in_.clear();
    in_.seekg(16, std::ios::beg);
    consumed_ = 0;
}

} // namespace atlb
