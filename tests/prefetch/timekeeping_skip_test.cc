/**
 * @file
 * Cross-checks the Time-Keeping engine's skipping decay sweep against
 * a reference engine that has no deadline bounds at all: every slice
 * evaluates the death predicate for every valid, unhandled frame, as
 * the paper's decay counters do.
 *
 * Both engines see the same randomized stream of L1D hits, misses,
 * fills with victims, refills, buffer probes and buffer fills. They
 * must issue the same prefetches at the same ticks, end with the same
 * counters and hold the same predictor. The grid covers slice counts
 * that divide the set count, slice counts that do not (3, 5), one
 * slice, more slices than sets, a non-power-of-two associativity, and
 * a snapshot/restore of the engine under test halfway through (the
 * reference runs on uninterrupted).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/fnv1a.hh"
#include "power/model.hh"
#include "prefetch/timekeeping.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace
{

/** The engine's semantics with a plain full-slice sweep. */
class ReferenceEngine : public Prefetcher
{
  public:
    ReferenceEngine(const TimekeepingConfig &config,
                    const CacheConfig &l1d)
        : config(config), blockBytes(l1d.blockBytes), assoc(l1d.assoc)
    {
        numSets = static_cast<std::uint32_t>(
            l1d.sizeBytes / (l1d.blockBytes * l1d.assoc));
        frames.resize(static_cast<std::size_t>(numSets) * assoc);
        predictor.resize(config.predictorEntries);
    }

    void setIssuer(PrefetchIssuer *new_issuer) override
    {
        issuer = new_issuer;
    }

    void
    notifyL1DAccess(Addr addr, bool hit, Tick now) override
    {
        if (!hit)
            return;
        for (Frame &frame : setFrames(blockOf(addr))) {
            if (frame.blockAddr == blockOf(addr)) {
                frame.lastAccess = now;
                frame.deadHandled = false;
                return;
            }
        }
    }

    void
    notifyL1DFill(Addr block, Addr victim, Tick now) override
    {
        if (victim != invalidAddr && victim != block) {
            const std::int64_t delta =
                (static_cast<std::int64_t>(block) -
                 static_cast<std::int64_t>(victim)) /
                static_cast<std::int64_t>(setStride());
            if (delta != 0 && delta <= config.maxDeltaTags &&
                delta >= -config.maxDeltaTags) {
                Entry &entry = predictor[signature(victim)];
                if (entry.confidence > 0 && entry.delta == delta) {
                    entry.confidence = std::min(entry.confidence + 1, 3);
                } else if (entry.confidence > 0) {
                    --entry.confidence;
                } else {
                    entry.delta = static_cast<std::int32_t>(delta);
                    entry.confidence = 1;
                }
                ++trainedPairs;
            }
        }
        std::vector<Frame *> ways;
        for (Frame &frame : setFrames(block))
            ways.push_back(&frame);
        Frame *target = nullptr;
        for (Frame *frame : ways) {
            if (frame->blockAddr == block) {
                target = frame;
                break;
            }
            if (frame->blockAddr == invalidAddr && !target)
                target = frame;
        }
        if (!target) {
            target = ways[0];
            for (Frame *frame : ways) {
                if (frame->lastAccess < target->lastAccess)
                    target = frame;
            }
        }
        *target = {block, now, now, false};
    }

    bool
    probeBuffer(Addr addr, Tick) override
    {
        if (!bufferSet.erase(blockOf(addr)))
            return false;
        ++bufferHits;
        return true;
    }

    void
    fillBuffer(Addr block, Tick) override
    {
        if (bufferSet.count(block))
            return;
        while (bufferSet.size() >= config.bufferEntries) {
            const Addr head = bufferFifo.front();
            bufferFifo.pop_front();
            if (bufferSet.erase(head))
                ++bufferReplacements;
        }
        bufferFifo.push_back(block);
        bufferSet.insert(block);
        ++bufferInsertions;
        while (bufferFifo.size() > 4 * config.bufferEntries &&
               !bufferSet.count(bufferFifo.front())) {
            bufferFifo.pop_front();
        }
    }

    void
    tick(Tick now)
    {
        if (now < nextSweep)
            return;
        nextSweep = now + config.decayResolution;
        const std::uint32_t sets =
            std::max<std::uint32_t>(1, numSets / config.sweepSlices);
        for (std::uint32_t i = 0; i < sets; ++i) {
            const std::uint32_t set = (cursor + i) % numSets;
            for (std::uint32_t way = 0; way < assoc; ++way)
                sweep(frames[static_cast<std::size_t>(set) * assoc + way],
                      now);
        }
        cursor = (cursor + sets) % numSets;
    }

    Tick nextSweepAt() const { return nextSweep; }

    /** issued, deadPredictions, trainedPairs, bufferHits,
     *  bufferInsertions, bufferReplacements, predictorMisses. */
    std::array<double, 7>
    counters() const
    {
        return {issued, deadPredictions, trainedPairs, bufferHits,
                bufferInsertions, bufferReplacements, predictorMisses};
    }

    std::vector<std::pair<std::int32_t, std::uint8_t>>
    dumpPredictor() const
    {
        std::vector<std::pair<std::int32_t, std::uint8_t>> out;
        for (const Entry &entry : predictor)
            out.emplace_back(entry.delta,
                             static_cast<std::uint8_t>(entry.confidence));
        return out;
    }

  private:
    struct Frame
    {
        Addr blockAddr = invalidAddr;
        Tick fillTime = 0;
        Tick lastAccess = 0;
        bool deadHandled = false;
    };

    struct Entry
    {
        std::int32_t delta = 0;
        int confidence = 0;
    };

    Addr blockOf(Addr addr) const { return addr & ~Addr(blockBytes - 1); }
    Addr setStride() const { return Addr(numSets) * blockBytes; }
    std::uint32_t
    setOf(Addr block) const
    {
        return static_cast<std::uint32_t>((block / blockBytes) % numSets);
    }

    std::span<Frame>
    setFrames(Addr block)
    {
        return {frames.data() + std::size_t(setOf(block)) * assoc, assoc};
    }

    std::uint32_t
    signature(Addr block) const
    {
        const Addr tag = block / setStride();
        const std::uint32_t tag_part =
            static_cast<std::uint32_t>(tag) & ((1u << config.tagSigBits) - 1);
        const std::uint32_t index_part =
            setOf(block) & ((1u << config.indexSigBits) - 1);
        return ((tag_part << config.indexSigBits) | index_part) &
               (config.predictorEntries - 1);
    }

    void
    sweep(Frame &frame, Tick now)
    {
        if (frame.blockAddr == invalidAddr || frame.deadHandled)
            return;
        const Tick live = std::max<Tick>(frame.lastAccess - frame.fillTime,
                                         config.minLiveTime);
        const Tick idle = now - frame.lastAccess;
        if (static_cast<double>(idle) <=
            config.deadMultiplier * static_cast<double>(live)) {
            return;
        }
        frame.deadHandled = true;
        ++deadPredictions;
        const Entry &entry = predictor[signature(frame.blockAddr)];
        if (entry.confidence < config.confidenceThreshold) {
            ++predictorMisses;
            return;
        }
        const std::int64_t target =
            static_cast<std::int64_t>(frame.blockAddr) +
            static_cast<std::int64_t>(entry.delta) *
                static_cast<std::int64_t>(setStride());
        if (target < 0 || bufferSet.count(static_cast<Addr>(target)))
            return;
        issuer->issueHardwarePrefetch(static_cast<Addr>(target), now);
        ++issued;
    }

    TimekeepingConfig config;
    std::uint32_t blockBytes;
    std::uint32_t assoc;
    std::uint32_t numSets;
    std::vector<Frame> frames;
    std::vector<Entry> predictor;
    std::deque<Addr> bufferFifo;
    std::unordered_set<Addr> bufferSet;
    PrefetchIssuer *issuer = nullptr;
    Tick nextSweep = 0;
    std::uint32_t cursor = 0;
    double issued = 0, deadPredictions = 0, trainedPairs = 0,
           bufferHits = 0, bufferInsertions = 0, bufferReplacements = 0,
           predictorMisses = 0;
};

/** Records every issue; issued blocks reach the buffer later. */
class RecordingIssuer : public PrefetchIssuer
{
  public:
    void
    issueHardwarePrefetch(Addr addr, Tick now) override
    {
        issues.emplace_back(addr, now);
        pending.emplace(now + 25 + addr % 7, addr);
    }

    /** Hand every arrival due by `now` to the engine's buffer. */
    void
    deliver(Prefetcher &engine, Tick now)
    {
        while (!pending.empty() && pending.begin()->first <= now) {
            engine.fillBuffer(pending.begin()->second, now);
            pending.erase(pending.begin());
        }
    }

    std::vector<std::pair<Addr, Tick>> issues;
    std::multimap<Tick, Addr> pending;
};

/** Local generator, so the script never depends on vsv::Rng. */
struct SplitMix
{
    std::uint64_t x;

    std::uint64_t
    next()
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct Case
{
    std::uint32_t sweepSlices;
    std::uint32_t assoc;
    double deadMultiplier;
    std::uint32_t minLiveTime;
};

constexpr std::uint32_t blockBytes = 32;
constexpr std::uint32_t numSets = 128;

CacheConfig
geometry(std::uint32_t assoc)
{
    return {"l1d", numSets * assoc * blockBytes, assoc, blockBytes, 2};
}

std::string
describe(const Case &c, bool restore)
{
    return "slices " + std::to_string(c.sweepSlices) + ", " +
           std::to_string(c.assoc) + "-way, multiplier " +
           std::to_string(c.deadMultiplier) + ", min live " +
           std::to_string(c.minLiveTime) +
           (restore ? ", restored halfway" : "");
}

/**
 * Drives the engine under test and the reference in lockstep. A shadow
 * LRU L1D turns accesses into hits or misses and misses into fills
 * with victims, so both see a stream shaped like the hierarchy's.
 */
class Lockstep
{
  public:
    explicit Lockstep(const Case &c)
        : config(configFor(c)), l1d(geometry(c.assoc)), ref(config, l1d),
          ways(numSets, std::vector<Addr>(c.assoc, invalidAddr))
    {
        build();
        ref.setIssuer(&refIssuer);
    }

    void
    run(bool restore_halfway, std::uint64_t seed)
    {
        rng.x = seed;
        constexpr std::uint64_t steps = 20'000;
        Tick t = 0;
        for (std::uint64_t step = 0; step < steps; ++step) {
            if (restore_halfway && step == steps / 2)
                reincarnate();
            const std::uint64_t gap = rng.below(16) == 0
                                          ? 100 + rng.below(900)
                                          : rng.below(5);
            for (Tick end = t + gap; t < end; ++t)
                advance(t);
            event(t);
        }
        for (Tick end = t + 4000; t < end; ++t)
            advance(t);
    }

    void
    expectSame() const
    {
        ASSERT_EQ(issuer.issues.size(), refIssuer.issues.size());
        for (std::size_t i = 0; i < issuer.issues.size(); ++i) {
            ASSERT_EQ(issuer.issues[i], refIssuer.issues[i])
                << "prefetch #" << i;
        }
        const char *names[] = {"issued", "deadPredictions",
                               "trainedPairs", "bufferHits",
                               "bufferInsertions", "bufferReplacements",
                               "predictorMisses"};
        const std::array<double, 7> want = ref.counters();
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(registry->scalarValue(std::string("tk.") + names[i]),
                      want[i])
                << names[i];
        }
        EXPECT_EQ(tk->dumpPredictor(), ref.dumpPredictor());
        EXPECT_EQ(tk->nextSweepAt(), ref.nextSweepAt());
    }

    std::size_t issues() const { return issuer.issues.size(); }

  private:
    static TimekeepingConfig
    configFor(const Case &c)
    {
        TimekeepingConfig config;
        config.sweepSlices = c.sweepSlices;
        config.deadMultiplier = c.deadMultiplier;
        config.minLiveTime = c.minLiveTime;
        return config;
    }

    void
    build()
    {
        tk = std::make_unique<TimekeepingPrefetcher>(config, l1d, power);
        tk->setIssuer(&issuer);
        registry = std::make_unique<StatRegistry>();
        tk->regStats(*registry, "tk");
    }

    void
    reincarnate()
    {
        std::stringstream bytes;
        {
            SnapshotWriter writer(bytes, "skip");
            tk->snapshot(writer);
            writer.finish();
        }
        build();
        SnapshotReader reader(bytes);
        tk->restore(reader);
        reader.expectEnd();
    }

    void
    advance(Tick now)
    {
        issuer.deliver(*tk, now);
        refIssuer.deliver(ref, now);
        tk->tick(now);
        ref.tick(now);
    }

    /** Two regular scans, a random region and a hot set. */
    Addr
    pickBlock()
    {
        const std::uint64_t r = rng.below(100);
        if (r < 45) {
            scanA = (scanA + 1) % (8 * numSets);
            return 0x100000 + scanA * blockBytes;
        }
        if (r < 65) {
            scanB = (scanB + 3) % (23 * numSets);
            return 0x400000 + scanB * blockBytes;
        }
        if (r < 85)
            return 0x800000 + rng.below(32 * numSets) * blockBytes;
        return 0x20000 + rng.below(numSets / 2) * blockBytes;
    }

    void
    both(Addr addr, bool hit, Tick now)
    {
        tk->notifyL1DAccess(addr, hit, now);
        ref.notifyL1DAccess(addr, hit, now);
    }

    void
    fill(Addr block, Addr victim, Tick now)
    {
        tk->notifyL1DFill(block, victim, now);
        ref.notifyL1DFill(block, victim, now);
    }

    void
    event(Tick now)
    {
        if (rng.below(100) < 3) {
            // Refill of a block the engines already track.
            const std::vector<Addr> &set = ways[rng.below(numSets)];
            const Addr block = set[rng.below(set.size())];
            if (block != invalidAddr)
                fill(block, invalidAddr, now);
            return;
        }
        const Addr block = pickBlock();
        const Addr addr = block + rng.below(blockBytes);
        std::vector<Addr> &set = ways[(block / blockBytes) % numSets];
        const auto it = std::find(set.begin(), set.end(), block);
        const bool hit = it != set.end();
        both(addr, hit, now);
        if (hit) {
            std::rotate(set.begin(), it, it + 1);  // MRU first
            return;
        }
        // A miss probes the buffer, then fills over the LRU way.
        EXPECT_EQ(tk->probeBuffer(addr, now), ref.probeBuffer(addr, now));
        const Addr victim = set.back();
        std::rotate(set.begin(), set.end() - 1, set.end());
        set.front() = block;
        fill(block, victim, now);
    }

    TimekeepingConfig config;
    CacheConfig l1d;
    PowerModel power;
    RecordingIssuer issuer;
    RecordingIssuer refIssuer;
    std::unique_ptr<TimekeepingPrefetcher> tk;
    std::unique_ptr<StatRegistry> registry;
    ReferenceEngine ref;
    SplitMix rng{0};
    std::uint64_t scanA = 0;
    std::uint64_t scanB = 0;
    std::vector<std::vector<Addr>> ways;
};

const Case cases[] = {
    {16, 2, 2.0, 64},    // the paper's 16 slices: 8 sets each
    {16, 2, 1.7, 5},     // non-integer products on the boundary
    {3, 2, 2.0, 64},     // 42 sets per slice: 21 groups of 2
    {5, 3, 1.7, 5},      // 25 sets per slice: groups of 1, 3 ways
    {1, 2, 2.0, 64},     // the whole cache each sweep
    {128, 3, 2.0, 64},   // one set per slice
    {1000, 2, 1.7, 64},  // more slices than sets
};

TEST(TimekeepingSkip, MatchesAFullSweep)
{
    for (const Case &c : cases) {
        for (const bool restore : {false, true}) {
            SCOPED_TRACE(describe(c, restore));
            Lockstep lockstep(c);
            lockstep.run(restore, 0x5eed + c.sweepSlices);
            lockstep.expectSame();
            EXPECT_GT(lockstep.issues(), 100u);
        }
    }
}

/**
 * Overwrite bytes of a one-section "tk" snapshot's payload, `at` bytes
 * from its start (or, if negative, from its end), and reseal its
 * checksum.
 */
template <typename T>
std::string
patched(std::string bytes, std::ptrdiff_t at, T value)
{
    // Header: magic, version, fingerprint; then tag, size, payload,
    // checksum.
    std::size_t pos = 8;
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    pos += 4 + len;
    std::memcpy(&len, bytes.data() + pos, 4);
    pos += 4 + len;
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + pos, 8);
    pos += 8;
    const std::size_t offset = at >= 0 ? at : size + at;
    std::memcpy(bytes.data() + pos + offset, &value, sizeof(value));
    const std::uint64_t checksum =
        fnv1a64(std::string_view(bytes.data() + pos, size));
    std::memcpy(bytes.data() + pos + size, &checksum, 8);
    return bytes;
}

TEST(TimekeepingSkip, RestoreRejectsStateNoSweepCanReach)
{
    TimekeepingConfig config;
    config.sweepSlices = 16;  // 8 sets per slice
    PowerModel power;
    TimekeepingPrefetcher tk(config, geometry(2), power);
    std::ostringstream os;
    {
        SnapshotWriter writer(os, "skip");
        tk.snapshot(writer);
        writer.finish();
    }
    const auto restore = [&](const std::string &bytes) {
        std::istringstream is(bytes);
        TimekeepingPrefetcher fresh(config, geometry(2), power);
        SnapshotReader reader(is);
        fresh.restore(reader);
    };
    // The cursor sits before the seven trailing scalars; it must
    // start a slice.
    const std::ptrdiff_t cursor_at = -7 * 8 - 4;
    EXPECT_NO_THROW(restore(patched(os.str(), cursor_at, 8u * 15)));
    EXPECT_THROW(restore(patched(os.str(), cursor_at, 4u)), SnapshotError);
    EXPECT_THROW(restore(patched(os.str(), cursor_at, numSets)),
                 SnapshotError);

    // Frames follow the two table sizes, 25 bytes each; frame 0 lives
    // in set 0, so it cannot hold a set-1 block.
    const std::ptrdiff_t frame0_at = 8;
    EXPECT_NO_THROW(restore(patched(os.str(), frame0_at,
                                    Addr{numSets * blockBytes})));
    EXPECT_THROW(restore(patched(os.str(), frame0_at, Addr{blockBytes})),
                 SnapshotError);
}

} // namespace
} // namespace vsv
