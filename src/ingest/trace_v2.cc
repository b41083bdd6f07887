#include "trace_v2.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/bitpack.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace atlb
{

namespace
{

constexpr char magicHead[8] = {'A', 'T', 'L', 'B', 'T', 'R', 'C', '2'};
constexpr char magicTail[8] = {'A', 'T', 'L', 'B', 'E', 'N', 'D', '2'};
constexpr std::uint64_t trailerBytes = 64;
constexpr std::uint64_t indexEntryBytes = 32;
constexpr std::uint64_t headerBytes = 16;

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::array<char, 8> buf;
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(buf.data(), 8);
}

std::uint64_t
readU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
zigzag(std::int64_t d)
{
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t
varintBytes(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

unsigned
bitWidth(std::uint64_t v)
{
    unsigned w = 0;
    while (v != 0) {
        v >>= 1;
        ++w;
    }
    return w;
}

// putBits/getBits live in common/bitpack.hh now, shared with the SIMD
// unpack kernels and the width-exhaustive round-trip tests.

/** Block-body encodings (the body's first byte). */
constexpr std::uint8_t encodingVarint = traceV2EncodingVarint;
constexpr std::uint8_t encodingPacked = traceV2EncodingPacked;

} // namespace

TraceV2Writer::TraceV2Writer(const std::string &path,
                             std::uint64_t block_capacity)
    : out_(path, std::ios::binary), path_(path),
      block_capacity_(block_capacity), cursor_(headerBytes)
{
    if (!out_)
        ATLB_FATAL("cannot open trace file '{}' for writing", path);
    if (block_capacity_ == 0)
        ATLB_FATAL("ATLBTRC2 block capacity must be positive");
    out_.write(magicHead, sizeof(magicHead));
    putU64(out_, block_capacity_);
}

TraceV2Writer::~TraceV2Writer()
{
    close();
}

void
TraceV2Writer::append(const MemAccess &access)
{
    ATLB_ASSERT(!closed_, "append to a closed trace writer");
    // Codec bit packing, not page math. lint-allow: page-shift
    if (access.vaddr.raw() >> 63)
        ATLB_FATAL("ATLBTRC2 cannot encode vaddr {} (needs 64 bits; "
                   "63 supported)",
                   access.vaddr);
    const std::uint64_t word = // lint-allow: page-shift
        (access.vaddr.raw() << 1) | (access.write ? 1 : 0);
    const std::int64_t delta =
        static_cast<std::int64_t>(word - prev_word_);
    deltas_.push_back(zigzag(delta));
    prev_word_ = word;
    ++total_;
    min_vaddr_ = std::min(min_vaddr_, access.vaddr.raw());
    max_vaddr_ = std::max(max_vaddr_, access.vaddr.raw());
    if (deltas_.size() == block_capacity_)
        flushBlock();
}

void
TraceV2Writer::flushBlock()
{
    if (deltas_.empty())
        return;

    // Size both encodings; emit the smaller. The block's first delta
    // IS its base word (prev 0), typically far larger than the rest,
    // so the packed encoding keeps it as a varint and sizes the width
    // from the real deltas only.
    std::size_t varint_bytes = 1;
    for (const std::uint64_t z : deltas_)
        varint_bytes += varintBytes(z);

    unsigned width = 0;
    for (std::size_t i = 1; i < deltas_.size(); ++i)
        width = std::max(width, bitWidth(deltas_[i]));
    const std::size_t packed_bytes =
        2 + varintBytes(deltas_.front()) +
        ((deltas_.size() - 1) * width + 7) / 8;

    body_.clear();
    if (packed_bytes < varint_bytes) {
        body_.reserve(packed_bytes);
        body_.push_back(encodingPacked);
        body_.push_back(static_cast<std::uint8_t>(width));
        putVarint(body_, deltas_.front());
        const std::size_t payload = body_.size();
        body_.resize(packed_bytes, 0);
        std::uint64_t bitpos = 0;
        for (std::size_t i = 1; i < deltas_.size(); ++i) {
            putBits(body_.data() + payload, bitpos, deltas_[i], width);
            bitpos += width;
        }
    } else {
        body_.reserve(varint_bytes);
        body_.push_back(encodingVarint);
        for (const std::uint64_t z : deltas_)
            putVarint(body_, z);
    }

    BlockEntry entry;
    entry.offset = cursor_;
    entry.bytes = body_.size();
    entry.count = deltas_.size();
    entry.fnv = fnv1a64(body_.data(), body_.size());
    out_.write(reinterpret_cast<const char *>(body_.data()),
               static_cast<std::streamsize>(body_.size()));
    cursor_ += body_.size();
    index_.push_back(entry);
    deltas_.clear();
    prev_word_ = 0;
}

void
TraceV2Writer::close()
{
    if (closed_)
        return;
    closed_ = true;
    flushBlock();

    const std::uint64_t index_offset = cursor_;
    std::vector<std::uint8_t> raw;
    raw.reserve(index_.size() * indexEntryBytes);
    for (const BlockEntry &e : index_) {
        for (const std::uint64_t v :
             {e.offset, e.bytes, e.count, e.fnv}) {
            for (int i = 0; i < 8; ++i)
                raw.push_back(
                    static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
        }
    }
    out_.write(reinterpret_cast<const char *>(raw.data()),
               static_cast<std::streamsize>(raw.size()));

    putU64(out_, index_offset);
    putU64(out_, index_.size());
    putU64(out_, total_);
    putU64(out_, min_vaddr_);
    putU64(out_, max_vaddr_);
    putU64(out_, fnv1a64(raw.data(), raw.size()));
    putU64(out_, 0); // reserved
    out_.write(magicTail, sizeof(magicTail));
    out_.flush();
    if (!out_)
        ATLB_FATAL("error writing trace file '{}'", path_);
    out_.close();
}

TraceV2Source::TraceV2Source(const std::string &path)
    : in_(path, std::ios::binary), path_(path),
      unpack_fn_(simdBlockUnpackFn(simdLevel()))
{
    if (!in_)
        ATLB_FATAL("cannot open trace file '{}'", path);
    in_.seekg(0, std::ios::end);
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(in_.tellg());
    if (file_bytes < headerBytes + trailerBytes)
        ATLB_FATAL("'{}': too short for an ATLBTRC2 file ({} bytes)",
                   path, file_bytes);

    std::array<unsigned char, headerBytes> head;
    in_.seekg(0, std::ios::beg);
    if (!in_.read(reinterpret_cast<char *>(head.data()), head.size()) ||
        std::memcmp(head.data(), magicHead, 8) != 0)
        ATLB_FATAL("'{}' is not an ATLBTRC2 trace file", path);
    block_capacity_ = readU64(head.data() + 8);
    if (block_capacity_ == 0)
        ATLB_FATAL("'{}': zero block capacity in header", path);

    std::array<unsigned char, trailerBytes> tail;
    in_.seekg(static_cast<std::streamoff>(file_bytes - trailerBytes),
              std::ios::beg);
    if (!in_.read(reinterpret_cast<char *>(tail.data()), tail.size()))
        ATLB_FATAL("'{}': truncated ATLBTRC2 trailer", path);
    if (std::memcmp(tail.data() + 56, magicTail, 8) != 0)
        ATLB_FATAL("'{}': bad ATLBTRC2 trailer magic (corrupt or "
                   "truncated file)",
                   path);
    const std::uint64_t index_offset = readU64(tail.data());
    const std::uint64_t block_count = readU64(tail.data() + 8);
    total_ = readU64(tail.data() + 16);
    min_vaddr_ = readU64(tail.data() + 24);
    max_vaddr_ = readU64(tail.data() + 32);
    const std::uint64_t index_fnv = readU64(tail.data() + 40);

    // Bound block_count by division before any multiplication: a
    // crafted trailer with a huge count could wrap the geometry sum
    // past 2^64 into a pass, then blow up the index allocation below.
    if (block_count >
            (file_bytes - headerBytes - trailerBytes) / indexEntryBytes ||
        index_offset !=
            file_bytes - trailerBytes - block_count * indexEntryBytes)
        ATLB_FATAL("'{}': ATLBTRC2 index geometry disagrees with the "
                   "file size (truncated or oversized file)",
                   path);

    std::vector<unsigned char> raw(
        static_cast<std::size_t>(block_count * indexEntryBytes));
    in_.seekg(static_cast<std::streamoff>(index_offset), std::ios::beg);
    if (!raw.empty() &&
        !in_.read(reinterpret_cast<char *>(raw.data()),
                  static_cast<std::streamsize>(raw.size())))
        ATLB_FATAL("'{}': truncated ATLBTRC2 block index", path);
    if (fnv1a64(raw.data(), raw.size()) != index_fnv)
        ATLB_FATAL("'{}': ATLBTRC2 block index fails its checksum "
                   "(corrupt footer)",
                   path);

    index_.resize(static_cast<std::size_t>(block_count));
    std::uint64_t counted = 0;
    std::uint64_t expect_offset = headerBytes;
    for (std::size_t b = 0; b < index_.size(); ++b) {
        const unsigned char *p = raw.data() + b * indexEntryBytes;
        index_[b].offset = readU64(p);
        index_[b].bytes = readU64(p + 8);
        index_[b].count = readU64(p + 16);
        index_[b].fnv = readU64(p + 24);
        if (index_[b].offset != expect_offset ||
            index_[b].offset + index_[b].bytes > index_offset)
            ATLB_FATAL("'{}': ATLBTRC2 block {} lies outside the "
                       "payload region",
                       path, b);
        expect_offset += index_[b].bytes;
        const bool last = b + 1 == index_.size();
        if (index_[b].count == 0 ||
            (!last && index_[b].count != block_capacity_) ||
            (last && index_[b].count > block_capacity_))
            ATLB_FATAL("'{}': ATLBTRC2 block {} holds {} accesses "
                       "(capacity {})",
                       path, b, index_[b].count, block_capacity_);
        counted += index_[b].count;
    }
    if (expect_offset != index_offset)
        ATLB_FATAL("'{}': ATLBTRC2 payload ends at byte {} but the "
                   "block index starts at byte {} (gap or overlap)",
                   path, expect_offset, index_offset);
    if (counted != total_)
        ATLB_FATAL("'{}': ATLBTRC2 blocks hold {} accesses but the "
                   "trailer says {}",
                   path, counted, total_);
}

void
TraceV2Source::loadBlockRaw(std::size_t b)
{
    const BlockEntry &entry = index_[b];
    raw_.resize(static_cast<std::size_t>(entry.bytes));
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(entry.offset), std::ios::beg);
    if (!raw_.empty() &&
        !in_.read(reinterpret_cast<char *>(raw_.data()),
                  static_cast<std::streamsize>(raw_.size())))
        ATLB_FATAL("'{}': short read of ATLBTRC2 block {}", path_, b);
    if (fnv1a64(raw_.data(), raw_.size()) != entry.fnv)
        ATLB_FATAL("'{}': ATLBTRC2 block {} fails its checksum "
                   "(corrupt block body)",
                   path_, b);
    if (raw_.empty())
        ATLB_FATAL("'{}': ATLBTRC2 block {} has an empty body", path_, b);
    loaded_block_ = b;
    block_unpacked_ = false;
    restartBlockDecode();
}

void
TraceV2Source::restartBlockDecode()
{
    const std::size_t b = loaded_block_;
    emitted_ = 0;
    word_ = 0;
    encoding_ = raw_[0];
    if (encoding_ == encodingVarint) {
        pos_ = 1;
    } else if (encoding_ == encodingPacked) {
        if (raw_.size() < 2)
            ATLB_FATAL("'{}': ATLBTRC2 block {} too short for a packed "
                       "header",
                       path_, b);
        width_ = raw_[1];
        if (width_ > 64)
            ATLB_FATAL("'{}': ATLBTRC2 block {} declares packed width "
                       "{} > 64",
                       path_, b, width_);
        pos_ = 2;
    } else {
        ATLB_FATAL("'{}': ATLBTRC2 block {} uses unknown encoding {}",
                   path_, b, encoding_);
    }
}

std::uint64_t
TraceV2Source::readVarintAt()
{
    std::uint64_t z = 0;
    unsigned shift = 0;
    while (true) {
        if (pos_ >= raw_.size())
            ATLB_FATAL("'{}': ATLBTRC2 block {} truncated inside "
                       "access {}",
                       path_, loaded_block_, emitted_);
        const std::uint8_t byte = raw_[pos_++];
        z |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            break;
        shift += 7;
        if (shift >= 64)
            ATLB_FATAL("'{}': ATLBTRC2 block {} holds an over-long "
                       "varint at access {}",
                       path_, loaded_block_, emitted_);
    }
    return z;
}

void
TraceV2Source::decodeNext()
{
    const BlockEntry &entry = index_[loaded_block_];
    std::uint64_t z;
    if (encoding_ == encodingVarint) {
        z = readVarintAt();
        // Exactly at block end the byte cursor must land on the last
        // byte — same trailing-bytes check the one-shot decoder made,
        // deferred to the moment the block completes.
        if (emitted_ + 1 == entry.count && pos_ != raw_.size())
            ATLB_FATAL("'{}': ATLBTRC2 block {} carries {} trailing "
                       "bytes",
                       path_, loaded_block_, raw_.size() - pos_);
    } else if (emitted_ == 0) {
        // Packed block: the base word is one varint; the remaining
        // count-1 deltas follow bit-packed, so the geometry can only
        // be validated once the varint's width is known.
        z = readVarintAt();
        packed_base_ = pos_;
        if (packed_base_ + ((entry.count - 1) * width_ + 7) / 8 !=
            raw_.size())
            ATLB_FATAL("'{}': ATLBTRC2 block {} packed payload size "
                       "disagrees with its access count",
                       path_, loaded_block_);
        // Vectorised path: unpack the whole block's deltas once (and
        // only once — a restartBlockDecode over the same cached block
        // reuses the buffer). Byte-identical to per-delta getBits; the
        // tests pin that per width.
        if (unpack_fn_ != nullptr && !block_unpacked_ &&
            entry.count > 1) {
            unpacked_.resize(
                static_cast<std::size_t>(entry.count - 1));
            unpack_fn_(raw_.data() + packed_base_,
                       raw_.size() - packed_base_, width_,
                       unpacked_.data(), unpacked_.size());
            block_unpacked_ = true;
        }
    } else if (block_unpacked_) {
        z = unpacked_[static_cast<std::size_t>(emitted_ - 1)];
    } else {
        z = getBits(raw_.data() + packed_base_, (emitted_ - 1) * width_,
                    width_);
    }
    word_ += static_cast<std::uint64_t>(unzigzag(z));
    ++emitted_;
}

TraceV2BlockStats
TraceV2Source::blockStats(std::size_t b)
{
    ATLB_ASSERT(b < index_.size(), "'{}': block {} out of range", path_,
                b);
    TraceV2BlockStats s;
    s.count = index_[b].count;
    s.bytes = index_[b].bytes;
    // The loaded block's body is already in memory; otherwise peek the
    // 1-2 header bytes without disturbing the replay cursor.
    std::uint8_t head[2] = {0, 0};
    if (b == loaded_block_) {
        head[0] = raw_[0];
        if (raw_.size() > 1)
            head[1] = raw_[1];
    } else {
        in_.clear();
        in_.seekg(static_cast<std::streamoff>(index_[b].offset),
                  std::ios::beg);
        const std::streamsize want =
            static_cast<std::streamsize>(std::min<std::uint64_t>(
                2, index_[b].bytes));
        if (want == 0 ||
            !in_.read(reinterpret_cast<char *>(head), want))
            ATLB_FATAL("'{}': short read of ATLBTRC2 block {} header",
                       path_, b);
    }
    s.encoding = head[0];
    if (s.encoding == encodingPacked)
        s.packed_width = head[1];
    return s;
}

bool
TraceV2Source::next(MemAccess &out)
{
    return fill(&out, 1) == 1;
}

std::size_t
TraceV2Source::fill(MemAccess *out, std::size_t max)
{
    std::size_t produced = 0;
    while (produced < max && consumed_ < total_) {
        const std::size_t block =
            static_cast<std::size_t>(consumed_ / block_capacity_);
        if (block != loaded_block_)
            loadBlockRaw(block);
        const std::uint64_t target = consumed_ % block_capacity_;
        if (emitted_ > target) {
            // reset() back into the cached block: the delta chain only
            // runs forward, restart it.
            restartBlockDecode();
        }
        const std::uint64_t run = std::min<std::uint64_t>(
            max - produced, index_[block].count - target);
        for (std::uint64_t i = 0; i < run; ++i) {
            decodeNext();
            out[produced].vaddr = VirtAddr{word_ >> 1};
            out[produced].write = (word_ & 1) != 0;
            ++produced;
        }
        consumed_ += run;
    }
    return produced;
}

void
TraceV2Source::reset()
{
    consumed_ = 0;
}

} // namespace atlb
