/**
 * @file
 * ATLBTRC2: block-based compressed, seekable on-disk trace format.
 *
 * The v1 format (trace_io.hh) spends a fixed 8 bytes per access, which
 * makes real captured traces impractically large: a 2B-access stream is
 * 16GB. Real access streams are highly local — most accesses land on or
 * near the previous page — so v2 delta-encodes them:
 *
 *   [0..8)   magic "ATLBTRC2"
 *   [8..16)  little-endian block capacity (accesses per full block)
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
 */

#ifndef ANCHORTLB_INGEST_TRACE_V2_HH
#define ANCHORTLB_INGEST_TRACE_V2_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hh" // fnv1a64: the v2 payload/index checksum
#include "common/simd.hh"
#include "trace/access.hh"

namespace atlb
{

/** Accesses per full block; 64Ki keeps blocks ~100-200KB encoded. */
constexpr std::uint64_t traceV2DefaultBlockCapacity = 64 * 1024;

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

/**
 * TraceSource replaying an ATLBTRC2 file.
 *
 * The decoder is *streamed*: fill() runs the delta decode directly into
 * the caller's buffer, so the only per-source allocation is one block's
 * compressed body (raw_). There is no decoded std::vector<MemAccess>
 * stage anywhere — replaying a 2B-access capture holds O(block) bytes,
 * independent of trace length (asserted by bench_trace_codec's
 * peak-RSS phase).
 */
class TraceV2Source : public TraceSource
{
  public:
    /** Open and validate @p path; fatal on any inconsistency. */
    explicit TraceV2Source(const std::string &path);

    bool next(MemAccess &out) override;

    /** Streamed decode straight into @p out (no intermediate buffer). */
    std::size_t fill(MemAccess *out, std::size_t max) override;

    void reset() override;

    std::uint64_t length() const { return total_; }
    std::uint64_t blockCapacity() const { return block_capacity_; }
    std::uint64_t blockCount() const { return index_.size(); }
    /** Smallest/largest vaddr in the stream (from the trailer). */
    std::uint64_t minVaddr() const { return min_vaddr_; }
    std::uint64_t maxVaddr() const { return max_vaddr_; }

    /**
     * Encoding facts of block @p b for `trace info` reports. Reads at
     * most two bytes from the block head; does not disturb the replay
     * cursor (the loaded block's body stays cached).
     */
    TraceV2BlockStats blockStats(std::size_t b);

  private:
    struct BlockEntry
    {
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint64_t count = 0;
        std::uint64_t fnv = 0;
    };

    /** Read + checksum block @p b's compressed body into raw_. */
    void loadBlockRaw(std::size_t b);
    /** Restart the incremental decoder at the loaded block's head. */
    void restartBlockDecode();
    /** Decode the loaded block's next word into word_. */
    void decodeNext();
    /** One bounds-checked LEB128 varint at pos_. */
    std::uint64_t readVarintAt();

    std::ifstream in_;
    std::string path_;
    std::uint64_t block_capacity_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t min_vaddr_ = ~0ULL;
    std::uint64_t max_vaddr_ = 0;
    std::vector<BlockEntry> index_;

    /** Compressed body of the loaded block (the only block storage). */
    std::vector<std::uint8_t> raw_;
    /**
     * Vectorised decode (construction-time SIMD level != scalar): a
     * packed block's count-1 deltas are unpacked once, here, by
     * unpack_fn_ — width-specialised AVX2 kernels, or the shared
     * scalar unpack on NEON. Sized by one block, so the O(block)
     * peak-RSS contract of the streamed decoder is unchanged. The
     * scalar reference path (unpack_fn_ == nullptr) extracts each
     * delta on demand with getBits and never touches this buffer.
     */
    std::vector<std::uint64_t> unpacked_;
    bool block_unpacked_ = false; //!< unpacked_ matches loaded_block_
    SimdUnpackFn unpack_fn_ = nullptr;
    std::size_t loaded_block_ = ~std::size_t{0};
    /** Incremental decode cursor within the loaded block. */
    std::uint64_t emitted_ = 0;     //!< words decoded so far
    std::uint64_t word_ = 0;        //!< running delta accumulator
    std::size_t pos_ = 0;           //!< byte cursor (varints)
    std::size_t packed_base_ = 0;   //!< first byte of the packed bits
    std::uint8_t encoding_ = 0;
    unsigned width_ = 0;            //!< packed delta width

    std::uint64_t consumed_ = 0;
};

} // namespace atlb

#endif // ANCHORTLB_INGEST_TRACE_V2_HH
