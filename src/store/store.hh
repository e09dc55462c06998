/**
 * @file
 * Content-addressed result store: "never simulate the same config
 * twice" (STORE.md is the normative on-disk spec;
 * DESIGN.md §5j the design discussion).
 *
 * Every sweep run is a pure function of its SimulationOptions, and
 * configFingerprint() (src/harness/sweep.hh) already names that
 * function's input with a stable 64-bit hash. The store persists the
 * run's exact output bytes - the result JSON writeSimulationResultJson
 * emits plus the full stats dump and stats text, all kept as opaque
 * strings - under <dir>/<fp[0:2]>/<fp>.vsvres, so any later sweep
 * that reaches the same fingerprint replays the recorded bytes
 * instead of simulating.
 *
 * Durability discipline mirrors WarmupSnapshotCache: entries are
 * written to a per-process temp name and rename()d into place, so a
 * concurrent reader (or a killed sweep) never observes a partial
 * entry, and concurrent writers of the same fingerprint race benignly
 * (last rename wins; both wrote identical payloads). Each entry is a
 * checksummed envelope - FNV-1a 64 over the uncompressed payload -
 * and the payload is LZSS-compressed when that helps, so the store
 * stays compact under sweep load with zero external dependencies. A
 * corrupt entry is quarantined (renamed to `.bad`) on first read and
 * degrades to a miss, never to a failed run.
 *
 * Inserts run on a small background writer pool: the sweep's hot path
 * only enqueues the entry; serialization, compression, checksumming
 * and the write+rename all happen off-thread. flush() (and the
 * destructor) drain the queue, so callers can publish effectiveness
 * counters knowing every insert has landed.
 *
 * This library deliberately knows nothing about SweepOutcome or the
 * harness: it stores fingerprint-keyed records of opaque strings.
 * The adapters between StoreEntry and SweepOutcome live in
 * src/harness/sweep.hh, keeping the layering acyclic
 * (common/stats <- store <- harness).
 */

#ifndef VSV_STORE_STORE_HH
#define VSV_STORE_STORE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace vsv
{
namespace store
{

/** Bumped on any incompatible envelope or payload schema change. */
constexpr std::uint8_t kStoreFormatVersion = 1;

/**
 * One stored run: everything a sweep needs to replay the outcome
 * byte-identically. The three documents are opaque strings - the
 * store never re-serializes them through a parser, so the bytes that
 * went in are the bytes that come out.
 */
struct StoreEntry
{
    /** configFingerprint() of the options that produced the run. */
    std::string fingerprint;
    /** Executions the recorded sweep needed (includes retries). */
    unsigned attempts = 1;
    /** writeSimulationResultJson bytes (includes the original run's
     *  host-dependent throughput block - stripped by consumers that
     *  compare manifests, preserved for provenance). */
    std::string resultJson;
    /** StatRegistry::dumpJson document. */
    std::string statsJson;
    /** StatRegistry::dump text. */
    std::string statsText;
};

/** Store effectiveness counters, echoed in the sweep manifest's
 *  `store` block (enabled=false omits the block entirely). */
struct ResultStoreStats
{
    bool enabled = false;
    /** Lookups served from a valid on-disk entry. */
    std::uint64_t hits = 0;
    /** Lookups with no usable entry (absent, invalid or corrupt). */
    std::uint64_t misses = 0;
    /** Entries written (an already-present fingerprint is skipped). */
    std::uint64_t inserts = 0;
    /** Entries rejected and quarantined as `.bad` (each also counted
     *  as a miss; the run re-simulates and re-inserts). */
    std::uint64_t corrupt = 0;
    /** Inserts that could not be persisted (disk trouble); the sweep
     *  itself is unaffected. */
    std::uint64_t writeFailures = 0;
};

/**
 * A persistent result store rooted at one directory. Thread-safe: any
 * number of threads may lookup() and insert() concurrently, and any
 * number of processes may share one directory (the rename discipline
 * makes cross-process races benign).
 */
class ResultStore
{
  public:
    /**
     * @param dir store root; created (with parents) if absent,
     *            fatal() if that fails
     * @param writerThreads background insert workers (min 1)
     */
    explicit ResultStore(std::string dir, unsigned writerThreads = 2);

    /** Drains every queued insert, then stops the writers. */
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Fetch the entry for a fingerprint. nullopt on a miss - absent
     * file, malformed fingerprint, or a corrupt entry (which is
     * quarantined as `<entry>.bad` with a warn() naming the path, so
     * it is read and rejected at most once).
     */
    std::optional<StoreEntry> lookup(const std::string &fingerprint);

    /**
     * Queue an entry for insertion and return immediately; a
     * background writer checksums, compresses and persists it. An
     * entry whose fingerprint is already on disk, queued or being
     * persisted is skipped (the store is content-addressed: same
     * fingerprint, same bytes). Invalid fingerprints are dropped with
     * a warn().
     */
    void insert(StoreEntry entry);

    /** Block until every queued insert has been persisted (or failed
     *  with a counted writeFailure). */
    void flush();

    /** Counters so far; inserts/writeFailures are only final after
     *  flush(). */
    ResultStoreStats stats() const;

    const std::string &dir() const { return dir_; }

    /** `<dir>/<fp[0:2]>/<fp>.vsvres`; exposed for tests and ops. */
    std::string entryPath(const std::string &fingerprint) const;

    /** 16 lowercase hex digits - the only shape lookup/insert accept
     *  (a fingerprint becomes a file path, so anything else is
     *  rejected before it can name one). */
    static bool validFingerprint(const std::string &fingerprint);

  private:
    void writerLoop();
    void persist(const StoreEntry &entry);
    void quarantine(const std::string &path, const std::string &why);

    std::string dir_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable queueIdle_;
    std::deque<StoreEntry> queue_;
    /** Fingerprints queued or being persisted; duplicates are dropped. */
    std::unordered_set<std::string> pending_;
    unsigned inProgress_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> writers_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> writeFailures_{0};
};

namespace detail
{

// Exposed for unit tests; everything below is an implementation
// detail of the .vsvres envelope.

/**
 * LZSS-compress `input` (64 KiB window, 4..259-byte matches, 8-flag
 * control bytes). Returns nullopt when compression does not shrink
 * the input - the caller stores it raw.
 */
std::optional<std::string> lzssCompress(const std::string &input);

/**
 * Inverse of lzssCompress. Throws std::runtime_error on any
 * malformed stream, when the output size differs from
 * `expectedSize` (the envelope records it), or - before allocating
 * anything - when `expectedSize` exceeds what `input` can expand to.
 */
std::string lzssDecompress(const std::string &input,
                           std::size_t expectedSize);

/** Serialize an entry into the JSON payload stored inside the
 *  envelope. */
std::string encodeEntryPayload(const StoreEntry &entry);

/** Parse a payload back; throws std::runtime_error on any shape
 *  problem (including a fingerprint that differs from `expected`). */
StoreEntry decodeEntryPayload(const std::string &payload,
                              const std::string &expected);

/** Wrap a payload in the checksummed (optionally compressed)
 *  envelope. */
std::string encodeEnvelope(const std::string &payload);

/** Unwrap an envelope; throws std::runtime_error on a bad magic,
 *  version, size, codec or checksum. */
std::string decodeEnvelope(const std::string &envelope);

} // namespace detail

} // namespace store
} // namespace vsv

#endif // VSV_STORE_STORE_HH
