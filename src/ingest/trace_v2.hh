/**
 * @file
 * ATLBTRC2: block-based compressed, seekable on-disk trace format.
 *
 * The v1 format (trace_v1.hh) spends a fixed 8 bytes per access, which
 * makes real captured traces impractically large: a 2B-access stream is
 * 16GB. Real access streams are highly local — most accesses land on or
 * near the previous page — so v2 delta-encodes them:
 *
 *   [0..8)   magic "ATLBTRC2"
 *   [8..16)  little-endian block capacity (accesses per full block,
 *            1 to traceV2MaxBlockCapacity)
 *   blocks   back to back; block i holds exactly `capacity` accesses
 *            (the last block holds the remainder)
 *   index    one 32-byte entry per block:
 *            {file offset, payload bytes, access count, FNV-1a checksum}
 *   trailer  64 bytes: {index offset, block count, total accesses,
 *            min vaddr, max vaddr, index FNV-1a, reserved,
 *            magic "ATLBEND2"}
 *
 * A block encodes words word = (vaddr << 1) | write as zigzagged
 * first-order deltas (the first access of a block deltas against 0, so
 * every block decodes independently). Virtual addresses must fit 63
 * bits (x86-64 uses 57); the writer rejects larger ones. The block body
 * starts with one encoding-tag byte; the writer picks whichever
 * encoding is smaller for that block:
 *
 *   tag 0  varint: each delta is one LEB128 varint. Wins on local
 *          streams, where most deltas fit 1-2 bytes.
 *   tag 1  bit-packed: a width byte w, the first word as one varint,
 *          then the remaining count-1 zigzag deltas packed at w bits
 *          each (little-endian bit order). Wins on uniformly scattered
 *          streams (gups-like), where varint's per-byte continuation
 *          bits waste ~12% and every delta is large anyway.
 *
 * Why this shape:
 *  - Fixed access count per block means the block holding access i is
 *    i / capacity: a reader locates any access from the index alone,
 *    without reading or decoding the blocks before it.
 *  - Per-block checksums mean a flipped bit is detected at decode time
 *    with a fatal diagnostic instead of silently simulating garbage;
 *    the checksummed index means footer corruption is caught at open.
 *  - Delta coding brings paper-style streams to ~2-3 bytes/access and
 *    caps pathological random streams near 4.5 (bench_trace_codec
 *    records the measured ratio against v1).
 *
 * Where the checks live: traceV2Layout() checks the header, trailer
 * and index, decodeTraceV2Block() checks a block body. A reader
 * decodes one block whole, into 8 bytes per access, so the capacity
 * cap bounds what any file can make it hold.
 */

#ifndef ANCHORTLB_INGEST_TRACE_V2_HH
#define ANCHORTLB_INGEST_TRACE_V2_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hh" // fnv1a64: the v2 payload/index checksum
#include "common/simd.hh"
#include "trace/access.hh"

namespace atlb
{

/** Accesses per full block; 64Ki keeps blocks ~100-200KB encoded. */
constexpr std::uint64_t traceV2DefaultBlockCapacity = 64 * 1024;

/**
 * Largest block capacity a file may declare: a reader holds one decoded
 * block, 8 MiB of words at this cap. traceV2Layout() refuses a larger
 * header and TraceV2Writer refuses to write one.
 */
constexpr std::uint64_t traceV2MaxBlockCapacity = std::uint64_t{1} << 20;

/** Block-body encoding tags (the body's first byte). */
constexpr std::uint8_t traceV2EncodingVarint = 0;
constexpr std::uint8_t traceV2EncodingPacked = 1;

/** Streaming writer for the ATLBTRC2 format. */
class TraceV2Writer
{
  public:
    /**
     * Open @p path for writing; fatal on failure.
     * @param block_capacity accesses per block — the seek granularity;
     *        tests shrink it to force multi-block files on tiny streams.
     *        Fatal outside [1, traceV2MaxBlockCapacity].
     */
    explicit TraceV2Writer(
        const std::string &path,
        std::uint64_t block_capacity = traceV2DefaultBlockCapacity);
    ~TraceV2Writer();

    TraceV2Writer(const TraceV2Writer &) = delete;
    TraceV2Writer &operator=(const TraceV2Writer &) = delete;

    /** Append one access; fatal if vaddr needs more than 63 bits. */
    void append(const MemAccess &access);

    /** Flush the tail block, index and trailer; idempotent. */
    void close();

    std::uint64_t written() const { return total_; }

  private:
    struct BlockEntry
    {
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint64_t count = 0;
        std::uint64_t fnv = 0;
    };

    void flushBlock();

    std::ofstream out_;
    std::string path_;
    std::uint64_t block_capacity_;
    std::vector<std::uint64_t> deltas_;  //!< zigzag deltas, current block
    std::vector<std::uint8_t> body_;     //!< encode scratch
    std::uint64_t prev_word_ = 0;        //!< delta base within the block
    std::uint64_t cursor_;               //!< next block's file offset
    std::vector<BlockEntry> index_;
    std::uint64_t total_ = 0;
    std::uint64_t min_vaddr_ = ~0ULL;
    std::uint64_t max_vaddr_ = 0;
    bool closed_ = false;
};

/**
 * Per-block encoding facts for `anchortlb trace info`. count/bytes come
 * from the (already checksummed) index; encoding and packed_width from
 * the block body's 1-2 header bytes.
 */
struct TraceV2BlockStats
{
    std::uint64_t count = 0;      //!< accesses encoded in the block
    std::uint64_t bytes = 0;      //!< payload bytes incl. the tag byte
    std::uint8_t encoding = 0;    //!< traceV2EncodingVarint / ...Packed
    std::uint8_t packed_width = 0; //!< delta bit width (packed only)
};

/** What an ATLBTRC2 file's header, trailer and block index declare. */
struct TraceV2Layout
{
    /** One block index entry. */
    struct Block
    {
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint64_t count = 0;
        std::uint64_t fnv = 0;
    };

    std::uint64_t file_bytes = 0; //!< the file's size
    std::uint64_t block_capacity = 0;
    std::uint64_t total = 0;     //!< accesses, from the trailer
    std::uint64_t min_vaddr = 0; //!< smallest vaddr, from the trailer
    std::uint64_t max_vaddr = 0; //!< largest vaddr, from the trailer
    std::vector<Block> index;
};

/**
 * Check @p path's ATLBTRC2 header, trailer and block index against the
 * file and each other: its size, both magics, the block capacity (at
 * most traceV2MaxBlockCapacity), the index geometry and checksum, and
 * every index entry. Returns what they declare, or nullopt with the
 * reason in @p error. A workload check uses it to refuse a file without
 * dying; TraceV2Source makes the same checks fatal. Block bodies are
 * checked only as they are decoded (decodeTraceV2Block).
 */
std::optional<TraceV2Layout> traceV2Layout(const std::string &path,
                                           std::string &error);

/**
 * Decode one whole block body, @p bytes bytes at @p body holding
 * @p count accesses, into @p words: one `vaddr << 1 | write` word per
 * access. Packed deltas go through @p unpack (simdBlockUnpackFn). Every
 * body check is here: @p count in [1, traceV2MaxBlockCapacity], the
 * tag, a packed width of at most 64, truncated or over-long varints,
 * trailing bytes and the packed payload size. Reads nothing outside
 * [body, body + bytes) and sizes @p words only once the body can hold
 * @p count accesses. Returns false with the reason in @p error.
 */
bool decodeTraceV2Block(const std::uint8_t *body, std::size_t bytes,
                        std::uint64_t count, SimdUnpackFn unpack,
                        std::vector<std::uint64_t> &words,
                        std::string &error);

/**
 * TraceSource replaying an ATLBTRC2 file, one block at a time: loading
 * a block reads and checksums its body, then decodeTraceV2Block turns
 * it into words with the unpack kernel of the SIMD level at
 * construction. fill() copies out of the loaded block's words, so a
 * reset() back into that block costs nothing. The reader holds one
 * compressed body and one block of words, O(block) bytes however long
 * the trace (asserted by bench_trace_codec's peak-RSS phase).
 */
class TraceV2Source : public TraceSource
{
  public:
    /** Open @p path; fatal on anything traceV2Layout() refuses. */
    explicit TraceV2Source(const std::string &path);

    /** Copy up to @p max accesses; fatal on a corrupt block. */
    std::size_t fill(MemAccess *out, std::size_t max) override;

    void reset() override;

    std::uint64_t length() const { return layout_.total; }
    std::uint64_t blockCapacity() const { return layout_.block_capacity; }
    std::uint64_t blockCount() const { return layout_.index.size(); }
    /** Smallest/largest vaddr in the stream (from the trailer). */
    std::uint64_t minVaddr() const { return layout_.min_vaddr; }
    std::uint64_t maxVaddr() const { return layout_.max_vaddr; }

    /**
     * Encoding facts of block @p b for `trace info` reports. Reads at
     * most two bytes from the block head; does not disturb the replay
     * cursor (the loaded block stays decoded).
     */
    TraceV2BlockStats blockStats(std::size_t b);

  private:
    /** Read, checksum and decode block @p b into words_. */
    void loadBlock(std::size_t b);

    std::ifstream in_;
    std::string path_;
    TraceV2Layout layout_;
    SimdUnpackFn unpack_;
    std::vector<std::uint8_t> raw_;    //!< the loaded block's body
    std::vector<std::uint64_t> words_; //!< the loaded block, decoded
    std::size_t loaded_block_ = ~std::size_t{0};
    std::uint64_t consumed_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_INGEST_TRACE_V2_HH
