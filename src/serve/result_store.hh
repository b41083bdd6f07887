/**
 * @file
 * Content-addressed persistent store of finished experiment cells.
 *
 * One file holds SimResult records keyed by CellKey (the canonical
 * FNV-1a content address of every input shaping a cell — see
 * sim/experiment.hh cellKeyFor and DESIGN.md section 13). The format
 * is append-only and corruption-tolerant:
 *
 *   [0..8)  magic "ATLBRES1"
 *   records back to back, each:
 *           u32 payload bytes | u8 kind | u8[3] reserved |
 *           u64 key | u64 FNV-1a(payload) | payload
 *
 * kind 1 records carry an encoded SimResult; kind 2 is a tombstone
 * (explicit invalidation) whose payload is empty. Within the file the
 * *latest* record for a key wins, so store() and invalidate() are
 * plain appends — crash-safe up to the last complete record. open()
 * replays the log into memory; a truncated or checksum-corrupt tail
 * (the typical torn-write outcome) is dropped by truncating the file
 * back to the last intact record, never fatal. A wrong magic *is*
 * fatal: that is not a torn write but a different file.
 *
 * Invalidation is mostly implicit: every input (trace content hash,
 * MmuConfig, sweep knobs) is folded into the key, so a changed input
 * addresses a different cell and simply misses. Tombstones and gc()
 * exist for explicit eviction and for compacting superseded records.
 *
 * Single-writer guard: opening a store takes an exclusive flock on the
 * sidecar "<path>.lock" file, held until destruction. A second open of
 * a live store — e.g. `store gc` against a running server's store,
 * which would truncate in-flight appends as a "corrupt tail" and then
 * rename the file out from under the server — is refused with a fatal
 * diagnostic instead. The lock lives in a sidecar (not the data file)
 * so gc()'s rename cannot detach it.
 */

#ifndef ANCHORTLB_SERVE_RESULT_STORE_HH
#define ANCHORTLB_SERVE_RESULT_STORE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/experiment.hh"

namespace atlb
{

/** Encode @p result as a store payload (ByteWriter sequence). */
std::string encodeSimResult(const SimResult &result);

/**
 * Decode a store payload; false on any malformation (short buffer,
 * trailing bytes). Exact inverse of encodeSimResult, including the
 * bit pattern of the one double.
 */
bool decodeSimResult(const std::string &payload, SimResult &out);

/**
 * The on-disk store of finished cells (thread-safe). `anchortlb serve`
 * (SweepServer) answers cells from it and appends the ones it computes;
 * `anchortlb store` inspects and compacts it.
 */
class ResultStore
{
  public:
    /**
     * Open (or create) the store at @p path and replay its log; fatal
     * on an unwritable path, foreign magic, or when another ResultStore
     * (this process or any other) holds the store open — see the
     * single-writer guard in the file comment. Tolerant of a corrupt
     * tail (dropped and counted in counters().corrupt_dropped).
     */
    explicit ResultStore(const std::string &path);

    /** Releases the store lock. */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The stored result for @p key, if any. */
    std::optional<SimResult> lookup(CellKey key);

    /** Record @p result as the cell @p key's value (an append). */
    void store(CellKey key, const SimResult &result);

    /** Append a tombstone for @p key (idempotent). */
    void invalidate(CellKey key);

    /**
     * Compact: rewrite the file with one record per live cell,
     * dropping superseded records and tombstones. Returns the number
     * of records dropped.
     */
    std::uint64_t gc();

    /** Effectiveness and health counters (monotonic per open). */
    struct Counters
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t appends = 0;
        std::uint64_t invalidations = 0;
        /** Corrupt-tail records dropped at open. */
        std::uint64_t corrupt_dropped = 0;
        std::uint64_t gc_evicted = 0;
    };

    Counters counters() const;

    /** A point-in-time shape summary for `anchortlb store info`. */
    struct Info
    {
        std::string path;
        std::uint64_t file_bytes = 0;
        std::uint64_t live_cells = 0;
        /** Records in the log (live + superseded + tombstones). */
        std::uint64_t records = 0;
    };

    Info info() const;

  private:
    void acquireLock();
    void openAndReplay();
    void appendRecord(std::uint8_t kind, CellKey key,
                      const std::string &payload);

    mutable std::mutex mutex_;
    std::string path_;
    /** fd of "<path>.lock", exclusively flock'd for our lifetime. */
    int lock_fd_ = -1;
    std::unordered_map<std::uint64_t, SimResult> cells_;
    std::uint64_t records_ = 0; //!< records currently in the log
    Counters counters_;
};

} // namespace atlb

#endif // ANCHORTLB_SERVE_RESULT_STORE_HH
