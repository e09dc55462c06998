/**
 * @file
 * Warmup snapshot cache: deduplicates functional warmup across the
 * runs of a sweep.
 *
 * Most sweeps run many configurations of the same benchmark (Figure 4
 * alone runs three VSV policies per workload), and every one of those
 * runs pays for an identical functional warmup. The cache keys each
 * run by warmupFingerprint() - a hash of exactly the options that can
 * influence post-warmup state - and makes the first run per
 * fingerprint warm up for everyone: it serializes its post-warmup
 * state (src/snapshot/snapshot.hh) and later runs restore from the
 * bytes instead of re-warming, with bit-identical results (enforced
 * by tests/integration/snapshot_equivalence_test and the golden-stats
 * gate).
 *
 * Concurrency: first-worker-computes. Under a parallel sweep the
 * first worker to reach a fingerprint claims it (a shared_future in
 * the entry map); a later acquire of the same fingerprint restores
 * from the published bytes, waiting for them if they are still being
 * computed. So each fingerprint is warmed exactly once per sweep no
 * matter the thread count. A failed computation publishes null and
 * the waiters fall back to fresh warmups, so a poisoned entry can
 * never wedge the sweep.
 *
 * Planning: SweepRunner::run tells the cache how many acquires each
 * fingerprint will get (plan()). Under a plan a warmup is encoded only
 * when a later acquire will restore it (or --snapshot-dir persists
 * it), and the cache lets go of the bytes once the last planned
 * acquire has taken them. The sweep also learns when each warmup is
 * published, so its workers start other tasks instead of waiting on a
 * warmup in flight. An acquire outside any plan (a direct runOne call,
 * a retry beyond the plan) publishes and keeps its bytes for the
 * cache's lifetime.
 *
 * Persistence: with a non-empty disk directory (--snapshot-dir),
 * snapshots are also written as <dir>/<fingerprint>.vsvsnap
 * (write-to-temp + rename, so readers never see partial files) and
 * probed before computing, letting warmup survive across sweeps.
 * A corrupt or stale file is a miss - logged and counted, never
 * fatal.
 */

#ifndef VSV_HARNESS_WARMUP_CACHE_HH
#define VSV_HARNESS_WARMUP_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "harness/simulator.hh"

namespace vsv
{

/** Cache effectiveness counters, echoed in the sweep manifest. */
struct SnapshotCacheStats
{
    bool enabled = false;
    /** Runs that restored from in-memory snapshot bytes. */
    std::uint64_t hits = 0;
    /** Fresh warmups computed (== distinct fingerprints warmed). */
    std::uint64_t misses = 0;
    /** Snapshots successfully loaded from the disk directory. */
    std::uint64_t diskHits = 0;
    /** Unusable snapshots (corrupt, truncated, mismatched); each one
     *  degraded to a fresh warmup, never to a failed run. */
    std::uint64_t failures = 0;
};

/**
 * Shared warmup-state cache for one sweep. Thread-safe; one
 * instance is shared by every worker of a SweepRunner.
 */
class WarmupSnapshotCache
{
  public:
    /** @param disk_dir optional snapshot directory ("" = memory only);
     *         created if absent, fatal() if that fails. */
    explicit WarmupSnapshotCache(std::string disk_dir = {});

    /** Told a planned acquire's fingerprint once that warmup's bytes
     *  are published or its computation failed; may repeat. */
    using WarmedCallback = std::function<void(const std::string &)>;

    /**
     * Plan the next sweep: `consumers[fp]` acquires of fingerprint
     * `fp` will follow. Replaces any earlier plan; an empty map ends
     * it. `onWarmed` runs on the acquiring worker's thread, outside
     * the cache's lock, and must stay callable until the plan ends.
     */
    void plan(const std::map<std::string, std::size_t> &consumers,
              WarmedCallback onWarmed = {});

    /**
     * Produce a warmed-up Simulator for `options`, by restoring a
     * cached snapshot when one exists for the warmup fingerprint and
     * by running (and publishing) the warmup otherwise. The returned
     * simulator is exclusively the caller's; only the snapshot bytes
     * are shared. Throws/fatal()s only for errors a fresh warmup
     * would also hit (bad configuration, abort hook).
     */
    std::unique_ptr<Simulator> acquire(const SimulationOptions &options);

    SnapshotCacheStats stats() const;

    /** Snapshot bytes the cache itself still holds in memory. */
    std::size_t residentBytes() const;

    /** Snapshot bytes encoded since construction. */
    std::uint64_t encodedBytes() const
    {
        return encodedBytes_.load(std::memory_order_relaxed);
    }

    const std::string &diskDir() const { return diskDir_; }

  private:
    /** Published snapshot bytes; null marks a failed computation. */
    using Bytes = std::shared_ptr<const std::string>;

    std::string snapshotPath(const std::string &fingerprint) const;
    Bytes loadFromDisk(const std::string &fingerprint) const;
    void saveToDisk(const std::string &fingerprint,
                    const std::string &bytes) const;

    /**
     * Rename a rejected on-disk snapshot to `<path>.bad` so no later
     * worker (or sweep sharing the directory) reads and rejects
     * the same bytes again; the quarantined file stays around for a
     * post-mortem. warn()s with the quarantined path.
     */
    void quarantineSnapshot(const std::string &fingerprint) const;

    /**
     * Restore `sim` from snapshot bytes; false (with a warning) on
     * any structural problem. A false return leaves `sim` partially
     * restored - the caller must discard it and build a fresh one.
     */
    static bool tryRestore(Simulator &sim, std::string_view bytes,
                           const std::string &fingerprint);

    struct Entry
    {
        /** Eventually-published bytes; invalid until claimed. */
        std::shared_future<Bytes> bytes;
        /** Planned acquires still to come. */
        std::size_t planned = 0;
    };

    std::string diskDir_;
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
    WarmedCallback onWarmed_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> encodedBytes_{0};
};

} // namespace vsv

#endif // VSV_HARNESS_WARMUP_CACHE_HH
