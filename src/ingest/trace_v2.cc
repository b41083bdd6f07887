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

/**
 * One LEB128 varint at @p p, advancing it: false when it runs into
 * @p end or past 64 bits.
 */
bool
readVarint(const std::uint8_t *&p, const std::uint8_t *end,
           std::uint64_t &z)
{
    z = 0;
    for (unsigned shift = 0; p != end && shift < 64; shift += 7) {
        const std::uint8_t byte = *p++;
        z |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false;
}

/** Why readVarint() failed at @p p, for access @p access. */
std::string
varintError(const std::uint8_t *p, const std::uint8_t *end,
            std::uint64_t access)
{
    return p == end ? atlb::format("truncated inside access {}", access)
                    : atlb::format("holds an over-long varint at access {}",
                                   access);
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

} // namespace

TraceV2Writer::TraceV2Writer(const std::string &path,
                             std::uint64_t block_capacity)
    : path_(path), block_capacity_(block_capacity), cursor_(headerBytes)
{
    if (block_capacity_ == 0 || block_capacity_ > traceV2MaxBlockCapacity)
        ATLB_FATAL("ATLBTRC2 block capacity {} is outside [1, {}]",
                   block_capacity_, traceV2MaxBlockCapacity);
    out_.open(path, std::ios::binary);
    if (!out_)
        ATLB_FATAL("cannot open trace file '{}' for writing", path);
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
        body_.push_back(traceV2EncodingPacked);
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
        body_.push_back(traceV2EncodingVarint);
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

namespace
{

/** traceV2Layout() over @p in, open on @p path. */
std::optional<TraceV2Layout>
readLayout(std::istream &in, const std::string &path, std::string &error)
{
    in.seekg(0, std::ios::end);
    const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
    if (file_bytes < headerBytes + trailerBytes) {
        error = atlb::format("'{}': too short for an ATLBTRC2 file ({} "
                             "bytes)",
                             path, file_bytes);
        return std::nullopt;
    }

    TraceV2Layout layout;
    std::array<unsigned char, headerBytes> head;
    in.seekg(0, std::ios::beg);
    if (!in.read(reinterpret_cast<char *>(head.data()), head.size()) ||
        std::memcmp(head.data(), magicHead, 8) != 0) {
        error = atlb::format("'{}' is not an ATLBTRC2 trace file", path);
        return std::nullopt;
    }
    layout.file_bytes = file_bytes;
    layout.block_capacity = readU64(head.data() + 8);
    if (layout.block_capacity == 0 ||
        layout.block_capacity > traceV2MaxBlockCapacity) {
        error = atlb::format("'{}': ATLBTRC2 block capacity {} in header "
                             "is outside [1, {}]",
                             path, layout.block_capacity,
                             traceV2MaxBlockCapacity);
        return std::nullopt;
    }

    std::array<unsigned char, trailerBytes> tail;
    in.seekg(static_cast<std::streamoff>(file_bytes - trailerBytes),
             std::ios::beg);
    if (!in.read(reinterpret_cast<char *>(tail.data()), tail.size())) {
        error = atlb::format("'{}': truncated ATLBTRC2 trailer", path);
        return std::nullopt;
    }
    if (std::memcmp(tail.data() + 56, magicTail, 8) != 0) {
        error = atlb::format("'{}': bad ATLBTRC2 trailer magic (corrupt "
                             "or truncated file)",
                             path);
        return std::nullopt;
    }
    const std::uint64_t index_offset = readU64(tail.data());
    const std::uint64_t block_count = readU64(tail.data() + 8);
    layout.total = readU64(tail.data() + 16);
    layout.min_vaddr = readU64(tail.data() + 24);
    layout.max_vaddr = readU64(tail.data() + 32);
    const std::uint64_t index_fnv = readU64(tail.data() + 40);

    // Bound block_count by division before any multiplication: a
    // crafted trailer with a huge count could wrap the geometry sum
    // past 2^64 into a pass, then blow up the index allocation below.
    if (block_count >
            (file_bytes - headerBytes - trailerBytes) / indexEntryBytes ||
        index_offset !=
            file_bytes - trailerBytes - block_count * indexEntryBytes) {
        error = atlb::format("'{}': ATLBTRC2 index geometry disagrees "
                             "with the file size (truncated or oversized "
                             "file)",
                             path);
        return std::nullopt;
    }

    std::vector<unsigned char> raw(
        static_cast<std::size_t>(block_count * indexEntryBytes));
    in.seekg(static_cast<std::streamoff>(index_offset), std::ios::beg);
    if (!raw.empty() &&
        !in.read(reinterpret_cast<char *>(raw.data()),
                 static_cast<std::streamsize>(raw.size()))) {
        error = atlb::format("'{}': truncated ATLBTRC2 block index", path);
        return std::nullopt;
    }
    if (fnv1a64(raw.data(), raw.size()) != index_fnv) {
        error = atlb::format("'{}': ATLBTRC2 block index fails its "
                             "checksum (corrupt footer)",
                             path);
        return std::nullopt;
    }

    layout.index.resize(static_cast<std::size_t>(block_count));
    std::uint64_t counted = 0;
    std::uint64_t expect_offset = headerBytes;
    for (std::size_t b = 0; b < layout.index.size(); ++b) {
        TraceV2Layout::Block &block = layout.index[b];
        const unsigned char *p = raw.data() + b * indexEntryBytes;
        block.offset = readU64(p);
        block.bytes = readU64(p + 8);
        block.count = readU64(p + 16);
        block.fnv = readU64(p + 24);
        if (block.offset != expect_offset ||
            block.offset + block.bytes > index_offset) {
            error = atlb::format("'{}': ATLBTRC2 block {} lies outside "
                                 "the payload region",
                                 path, b);
            return std::nullopt;
        }
        expect_offset += block.bytes;
        const bool last = b + 1 == layout.index.size();
        if (block.count == 0 ||
            (!last && block.count != layout.block_capacity) ||
            (last && block.count > layout.block_capacity)) {
            error = atlb::format("'{}': ATLBTRC2 block {} holds {} "
                                 "accesses (capacity {})",
                                 path, b, block.count,
                                 layout.block_capacity);
            return std::nullopt;
        }
        counted += block.count;
    }
    if (expect_offset != index_offset) {
        error = atlb::format("'{}': ATLBTRC2 payload ends at byte {} but "
                             "the block index starts at byte {} (gap or "
                             "overlap)",
                             path, expect_offset, index_offset);
        return std::nullopt;
    }
    if (counted != layout.total) {
        error = atlb::format("'{}': ATLBTRC2 blocks hold {} accesses but "
                             "the trailer says {}",
                             path, counted, layout.total);
        return std::nullopt;
    }
    return layout;
}

} // namespace

std::optional<TraceV2Layout>
traceV2Layout(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = atlb::format("cannot open trace file '{}'", path);
        return std::nullopt;
    }
    return readLayout(in, path, error);
}

bool
decodeTraceV2Block(const std::uint8_t *body, std::size_t bytes,
                   std::uint64_t count, SimdUnpackFn unpack,
                   std::vector<std::uint64_t> &words, std::string &error)
{
    if (count == 0 || count > traceV2MaxBlockCapacity) {
        error = atlb::format("holds {} accesses (outside [1, {}])", count,
                             traceV2MaxBlockCapacity);
        return false;
    }
    if (bytes == 0) {
        error = "has an empty body";
        return false;
    }
    const std::uint8_t *const end = body + bytes;
    const std::uint8_t *p = body + 1;
    if (body[0] == traceV2EncodingVarint) {
        // Every varint takes a byte at least: refuse a body too short
        // for its count before sizing words to it.
        if (count > bytes - 1) {
            error = atlb::format("is too short for {} varint accesses",
                                 count);
            return false;
        }
        words.resize(static_cast<std::size_t>(count));
        std::uint64_t *const out = words.data();
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < words.size(); ++i) {
            std::uint64_t z = 0;
            if (!readVarint(p, end, z)) {
                error = varintError(p, end, i);
                return false;
            }
            word += static_cast<std::uint64_t>(unzigzag(z));
            out[i] = word;
        }
        if (p != end) {
            error = atlb::format("carries {} trailing bytes", end - p);
            return false;
        }
        return true;
    }
    if (body[0] != traceV2EncodingPacked) {
        error = atlb::format("uses unknown encoding {}",
                             static_cast<unsigned>(body[0]));
        return false;
    }
    if (bytes < 2) {
        error = "too short for a packed header";
        return false;
    }
    const unsigned width = body[1];
    if (width > 64) {
        error = atlb::format("declares packed width {} > 64", width);
        return false;
    }
    p = body + 2;
    std::uint64_t first = 0;
    if (!readVarint(p, end, first)) {
        error = varintError(p, end, 0);
        return false;
    }
    // The remaining count-1 deltas must fill the payload exactly.
    // Divide before multiplying, so no count can wrap the product.
    const std::uint64_t deltas = count - 1;
    const std::uint64_t payload = static_cast<std::uint64_t>(end - p);
    if ((width != 0 && deltas > payload * 8 / width) ||
        (deltas * width + 7) / 8 != payload) {
        error = "packed payload size disagrees with its access count";
        return false;
    }
    words.resize(static_cast<std::size_t>(count));
    words[0] = static_cast<std::uint64_t>(unzigzag(first));
    unpack(p, static_cast<std::size_t>(payload), width, words.data() + 1,
           static_cast<std::size_t>(deltas));
    for (std::size_t i = 1; i < words.size(); ++i)
        words[i] = words[i - 1] +
                   static_cast<std::uint64_t>(unzigzag(words[i]));
    return true;
}

TraceV2Source::TraceV2Source(const std::string &path)
    : in_(path, std::ios::binary), path_(path),
      unpack_(simdBlockUnpackFn(simdLevel()))
{
    if (!in_)
        ATLB_FATAL("cannot open trace file '{}'", path);
    std::string error;
    std::optional<TraceV2Layout> layout = readLayout(in_, path, error);
    if (!layout)
        ATLB_FATAL("{}", error);
    layout_ = std::move(*layout);
}

void
TraceV2Source::loadBlock(std::size_t b)
{
    const TraceV2Layout::Block &entry = layout_.index[b];
    loaded_block_ = ~std::size_t{0}; // until block b decodes whole
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
    std::string error;
    if (!decodeTraceV2Block(raw_.data(), raw_.size(), entry.count, unpack_,
                            words_, error))
        ATLB_FATAL("'{}': ATLBTRC2 block {} {}", path_, b, error);
    loaded_block_ = b;
}

TraceV2BlockStats
TraceV2Source::blockStats(std::size_t b)
{
    ATLB_ASSERT(b < layout_.index.size(), "'{}': block {} out of range",
                path_, b);
    const TraceV2Layout::Block &entry = layout_.index[b];
    // Peek the 1-2 header bytes; fill() serves the loaded block from
    // words_ and loadBlock() seeks for itself, so replay is undisturbed.
    std::uint8_t head[2] = {0, 0};
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(entry.offset), std::ios::beg);
    const auto want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(2, entry.bytes));
    if (want == 0 || !in_.read(reinterpret_cast<char *>(head), want))
        ATLB_FATAL("'{}': short read of ATLBTRC2 block {} header", path_,
                   b);
    const bool packed = head[0] == traceV2EncodingPacked;
    return {entry.count, entry.bytes, head[0],
            packed ? head[1] : std::uint8_t{0}};
}

std::size_t
TraceV2Source::fill(MemAccess *out, std::size_t max)
{
    std::size_t produced = 0;
    while (produced < max && consumed_ < layout_.total) {
        const std::size_t block =
            static_cast<std::size_t>(consumed_ / layout_.block_capacity);
        if (block != loaded_block_)
            loadBlock(block);
        const std::size_t at =
            static_cast<std::size_t>(consumed_ % layout_.block_capacity);
        const std::size_t run =
            std::min(max - produced, words_.size() - at);
        for (std::size_t i = 0; i < run; ++i) {
            const std::uint64_t word = words_[at + i];
            out[produced + i].vaddr = VirtAddr{word >> 1};
            out[produced + i].write = (word & 1) != 0;
        }
        produced += run;
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
