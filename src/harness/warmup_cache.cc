#include "warmup_cache.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

WarmupSnapshotCache::WarmupSnapshotCache(std::string disk_dir)
    : diskDir_(std::move(disk_dir))
{
    if (diskDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(diskDir_, ec);
    if (ec) {
        fatal("cannot create snapshot directory " + diskDir_ + ": " +
              ec.message());
    }
}

std::string
WarmupSnapshotCache::snapshotPath(const std::string &fingerprint) const
{
    return diskDir_ + "/" + fingerprint + ".vsvsnap";
}

bool
WarmupSnapshotCache::tryRestore(Simulator &sim, std::string_view bytes,
                                const std::string &fingerprint)
{
    try {
        // restoreFrom reports structural problems through fatal();
        // turn those into exceptions (the guard nests safely inside a
        // sweep worker's own) so a bad snapshot degrades to a fresh
        // warmup instead of failing the run.
        ScopedThrowingFatal guard;
        SnapshotView view(bytes);
        std::istream is(&view);
        sim.restoreFrom(is, fingerprint);
        return true;
    } catch (const std::exception &e) {
        warn("warmup snapshot " + fingerprint + " rejected: " + e.what());
        return false;
    }
}

WarmupSnapshotCache::Bytes
WarmupSnapshotCache::loadFromDisk(const std::string &fingerprint) const
{
    std::ifstream is(snapshotPath(fingerprint),
                     std::ios::binary | std::ios::ate);
    if (!is)
        return nullptr;  // nothing on disk for this fingerprint
    std::string bytes(static_cast<std::size_t>(is.tellg()), '\0');
    is.seekg(0);
    // A file that shrank under us leaves a short buffer; the restore
    // rejects it as truncated.
    if (!is.read(bytes.data(), static_cast<std::streamsize>(bytes.size())))
        bytes.resize(static_cast<std::size_t>(is.gcount()));
    return std::make_shared<const std::string>(std::move(bytes));
}

void
WarmupSnapshotCache::saveToDisk(const std::string &fingerprint,
                                const std::string &bytes) const
{
    // Write-to-temp + rename so a concurrent reader (or a killed
    // campaign) never sees a partial snapshot; the temp name is
    // per-process so two campaigns sharing a directory cannot
    // interleave writes. Disk trouble only costs persistence, never
    // the run.
    const std::string path = snapshotPath(fingerprint);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os ||
        !os.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()))) {
        warn("cannot write warmup snapshot " + tmp +
             "; caching in memory only");
        std::remove(tmp.c_str());
        return;
    }
    os.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot move warmup snapshot into place: " + path);
        std::remove(tmp.c_str());
    }
}

void
WarmupSnapshotCache::quarantineSnapshot(
    const std::string &fingerprint) const
{
    // Without the quarantine a corrupt snapshot was re-read and
    // re-rejected by every later worker and every later campaign
    // sharing the directory. rename() is atomic, so of several
    // processes rejecting the same file concurrently exactly one
    // wins and the rest find it already gone - both fine.
    const std::string path = snapshotPath(fingerprint);
    const std::string bad = path + ".bad";
    if (std::rename(path.c_str(), bad.c_str()) == 0)
        warn("quarantined corrupt warmup snapshot as " + bad);
    // else: already quarantined by a sibling process, or the
    // directory is read-only - nothing further to do either way.
}

void
WarmupSnapshotCache::plan(
    const std::map<std::string, std::size_t> &consumers,
    WarmedCallback onWarmed)
{
    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = entries.begin(); it != entries.end();) {
        it->second.planned = 0;
        // An unclaimed entry only carried an old plan's count.
        it = it->second.bytes.valid() ? std::next(it) : entries.erase(it);
    }
    for (const auto &[fingerprint, count] : consumers)
        entries[fingerprint].planned = count;
    onWarmed_ = std::move(onWarmed);
}

std::unique_ptr<Simulator>
WarmupSnapshotCache::acquire(const SimulationOptions &options)
{
    const std::string fingerprint = warmupFingerprint(options);

    std::promise<Bytes> promise;
    std::shared_future<Bytes> future;
    bool computer = false;
    // Whether the bytes this worker computes stay in memory: outside a
    // plan always, under one only while planned acquires remain.
    bool keep = true;
    WarmedCallback warmed;
    {
        std::lock_guard<std::mutex> lock(mutex);
        Entry &entry = entries[fingerprint];
        const bool planned = entry.planned > 0;
        if (planned) {
            --entry.planned;
            warmed = onWarmed_;
        }
        if (entry.bytes.valid()) {
            future = entry.bytes;
            // The last planned acquire takes the cache's reference
            // with it: the bytes are freed once its restore is done.
            if (planned && entry.planned == 0)
                entries.erase(fingerprint);
        } else {
            future = promise.get_future().share();
            entry.bytes = future;
            computer = true;
            keep = !planned || entry.planned > 0;
        }
    }

    if (!computer) {
        // Another worker owns this fingerprint; block until it
        // publishes. Null bytes mean its computation failed - fall
        // back to a fresh warmup, which will surface the same error
        // under this run's id if the configuration itself is bad.
        const Bytes bytes = future.get();
        if (warmed)
            warmed(fingerprint);
        if (bytes) {
            auto sim = std::make_unique<Simulator>(options);
            if (tryRestore(*sim, *bytes, fingerprint)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return sim;
            }
            // A partially restored simulator is unusable; discard it
            // and warm a fresh one.
            failures_.fetch_add(1, std::memory_order_relaxed);
        }
        auto sim = std::make_unique<Simulator>(options);
        sim->warmup();
        return sim;
    }

    // Publish exactly once, unblocking any waiters; bytes nobody will
    // restore from memory leave the map straight away.
    const auto publish = [&](Bytes bytes) {
        promise.set_value(std::move(bytes));
        if (!keep) {
            std::lock_guard<std::mutex> lock(mutex);
            entries.erase(fingerprint);
        }
        if (warmed)
            warmed(fingerprint);
    };

    // This worker computes the fingerprint's warmup: probe the disk,
    // else warm up fresh.
    try {
        if (!diskDir_.empty()) {
            if (const Bytes bytes = loadFromDisk(fingerprint)) {
                auto sim = std::make_unique<Simulator>(options);
                if (tryRestore(*sim, *bytes, fingerprint)) {
                    diskHits_.fetch_add(1, std::memory_order_relaxed);
                    publish(bytes);
                    return sim;
                }
                failures_.fetch_add(1, std::memory_order_relaxed);
                quarantineSnapshot(fingerprint);
            }
        }

        misses_.fetch_add(1, std::memory_order_relaxed);
        auto sim = std::make_unique<Simulator>(options);
        sim->warmup();
        // Encode only bytes something reads back: a later acquire in
        // memory, or a later campaign from the disk directory.
        Bytes bytes;
        if (keep || !diskDir_.empty()) {
            std::ostringstream os;
            sim->snapshotTo(os, fingerprint);
            bytes = std::make_shared<const std::string>(std::move(os).str());
            encodedBytes_.fetch_add(bytes->size(),
                                    std::memory_order_relaxed);
            if (!diskDir_.empty())
                saveToDisk(fingerprint, *bytes);
        }
        publish(std::move(bytes));
        return sim;
    } catch (...) {
        // Unblock the waiters before propagating; they warm up fresh.
        publish(nullptr);
        throw;
    }
}

SnapshotCacheStats
WarmupSnapshotCache::stats() const
{
    SnapshotCacheStats out;
    out.enabled = true;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.diskHits = diskHits_.load(std::memory_order_relaxed);
    out.failures = failures_.load(std::memory_order_relaxed);
    return out;
}

std::size_t
WarmupSnapshotCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t total = 0;
    for (const auto &[fingerprint, entry] : entries) {
        if (!entry.bytes.valid() ||
            entry.bytes.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
            continue;
        if (const Bytes &bytes = entry.bytes.get())
            total += bytes->size();
    }
    return total;
}

} // namespace vsv
