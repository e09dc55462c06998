/**
 * @file
 * Pins the Time-Keeping engine: a scripted stream of L1D fills, hits,
 * misses, refills, prefetch-buffer probes and buffer fills, with the
 * decay sweep ticked every tick, must issue the same prefetches in the
 * same order at the same ticks, end with the same seven counters and
 * leave the same predictor contents.
 *
 * The expected values were recorded from the original sweep, which
 * evaluated the death predicate for every valid frame of each slice.
 * The script runs with dead multipliers 2.0 and 1.7 and minimum live
 * times 64 and 5, so non-integer multiplier * live products land on
 * the predicate's boundary. It also runs once more with a
 * snapshot/restore into a fresh engine halfway through.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "power/model.hh"
#include "prefetch/timekeeping.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace
{

/** FNV-1a 64 over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
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

class DigestIssuer : public PrefetchIssuer
{
  public:
    void
    issueHardwarePrefetch(Addr addr, Tick now) override
    {
        digest.add(addr);
        digest.add(now);
        ++count;
        pending.emplace(now + 25 + addr % 7, addr);
    }

    Fnv digest;
    std::uint64_t count = 0;
    /** Issued blocks arrive in the prefetch buffer some ticks later. */
    std::multimap<Tick, Addr> pending;
};

/** Everything the pin asserts. */
struct Outcome
{
    std::uint64_t issuedCount = 0;
    std::uint64_t issuedDigest = 0;
    std::array<double, 7> counters{};
    std::uint64_t predictorDigest = 0;
};

constexpr std::uint32_t blockBytes = 32;

CacheConfig
geometry()
{
    // 128 sets x 2 ways: a full sweep every 16 slices of 8 sets.
    return {"l1d", 8 * 1024, 2, blockBytes, 2};
}

/**
 * Drives one engine through the script. A shadow 2-way LRU L1D turns
 * accesses into hits or misses and misses into fills with victims, so
 * the engine sees a stream shaped like the hierarchy's.
 */
class Script
{
  public:
    Script(const TimekeepingConfig &config) : config(config)
    {
        build();
    }

    Outcome
    run(bool restore_halfway)
    {
        constexpr std::uint64_t steps = 60'000;
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

        Outcome out;
        out.issuedCount = issuer.count;
        out.issuedDigest = issuer.digest.h;
        const char *names[] = {"issued", "deadPredictions",
                               "trainedPairs", "bufferHits",
                               "bufferInsertions", "bufferReplacements",
                               "predictorMisses"};
        for (std::size_t i = 0; i < out.counters.size(); ++i)
            out.counters[i] =
                registry->scalarValue(std::string("tk.") + names[i]);
        Fnv pred;
        for (const auto &[delta, confidence] : tk->dumpPredictor()) {
            pred.add(static_cast<std::uint32_t>(delta));
            pred.add(confidence);
        }
        out.predictorDigest = pred.h;
        return out;
    }

  private:
    void
    build()
    {
        tk = std::make_unique<TimekeepingPrefetcher>(config, geometry(),
                                                     power);
        tk->setIssuer(&issuer);
        registry = std::make_unique<StatRegistry>();
        tk->regStats(*registry, "tk");
    }

    /** Snapshot the engine and continue in a freshly built one. */
    void
    reincarnate()
    {
        std::stringstream bytes;
        {
            SnapshotWriter writer(bytes, "pin");
            tk->snapshot(writer);
            writer.finish();
        }
        build();
        SnapshotReader reader(bytes);
        tk->restore(reader);
        reader.expectEnd();
    }

    /** One tick: deliver due buffer fills, then the decay sweep. */
    void
    advance(Tick now)
    {
        while (!issuer.pending.empty() &&
               issuer.pending.begin()->first <= now) {
            tk->fillBuffer(issuer.pending.begin()->second, now);
            issuer.pending.erase(issuer.pending.begin());
        }
        tk->tick(now);
    }

    /** Pick a block: two regular scans, a random region, a hot set. */
    Addr
    pickBlock()
    {
        const std::uint64_t r = rng.below(100);
        if (r < 45) {
            scanA = (scanA + 1) % 1024;  // 4x the L1D, stride 1 block
            return 0x100000 + scanA * blockBytes;
        }
        if (r < 65) {
            scanB = (scanB + 3) % 3000;  // stride 3 blocks
            return 0x400000 + scanB * blockBytes;
        }
        if (r < 85)
            return 0x800000 + rng.below(4096) * blockBytes;
        return 0x20000 + rng.below(64) * blockBytes;
    }

    std::uint32_t
    setOf(Addr block) const
    {
        return static_cast<std::uint32_t>((block / blockBytes) % 128);
    }

    void
    event(Tick now)
    {
        const std::uint64_t kind = rng.below(100);
        if (kind < 3) {
            // Refill: a fill notification for a block the engine
            // already tracks (no victim).
            const std::uint32_t set = static_cast<std::uint32_t>(
                rng.below(128));
            const Addr block = ways[set][rng.below(2)];
            if (block != invalidAddr)
                tk->notifyL1DFill(block, invalidAddr, now);
            return;
        }
        const Addr block = pickBlock();
        const Addr addr = block + rng.below(blockBytes);
        std::array<Addr, 2> &set = ways[setOf(block)];
        const bool hit = set[0] == block || set[1] == block;
        tk->notifyL1DAccess(addr, hit, now);
        if (hit) {
            if (set[1] == block)
                std::swap(set[0], set[1]);  // MRU first
            return;
        }
        // A miss probes the buffer; with or without a buffer hit the
        // block fills the L1D now, evicting the LRU way.
        tk->probeBuffer(addr, now);
        const Addr victim = set[1];
        set[1] = set[0];
        set[0] = block;
        tk->notifyL1DFill(block, victim, now);
    }

    TimekeepingConfig config;
    PowerModel power;
    DigestIssuer issuer;
    std::unique_ptr<TimekeepingPrefetcher> tk;
    std::unique_ptr<StatRegistry> registry;
    SplitMix rng{0x5eed};
    std::uint64_t scanA = 0;
    std::uint64_t scanB = 0;
    std::array<std::array<Addr, 2>, 128> ways = [] {
        std::array<std::array<Addr, 2>, 128> w;
        for (auto &s : w)
            s = {invalidAddr, invalidAddr};
        return w;
    }();
};

struct Pin
{
    double deadMultiplier;
    std::uint32_t minLiveTime;
    Outcome expect;
};

/** Recorded from the original per-frame predicate sweep. */
const Pin pins[] = {
    {2.0, 64, {17480, 0xc91e44538edcbb4cULL,
               {17480, 56725, 14033, 12311, 17480, 5079, 36735},
               0xd37c881b2dd392bdULL}},
    {1.7, 64, {17470, 0x9e5833a57b86963dULL,
               {17470, 56877, 14033, 12265, 17470, 5115, 36892},
               0xd37c881b2dd392bdULL}},
    {2.0, 5, {17464, 0xe25ab3f141f68e25ULL,
              {17464, 56858, 14033, 12183, 17464, 5190, 36870},
              0xd37c881b2dd392bdULL}},
    {1.7, 5, {17463, 0x546828583c54b173ULL,
              {17463, 56995, 14033, 12184, 17463, 5188, 37005},
              0xd37c881b2dd392bdULL}},
};

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

std::string
describe(const Pin &pin, const Outcome &o)
{
    std::string s = "    {" + std::to_string(pin.deadMultiplier) + ", " +
                    std::to_string(pin.minLiveTime) + ", {" +
                    std::to_string(o.issuedCount) + ", " +
                    hex(o.issuedDigest) + "ULL, {";
    for (std::size_t i = 0; i < o.counters.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", o.counters[i]);
        s += (i ? ", " : "") + std::string(buf);
    }
    return s + "}, " + hex(o.predictorDigest) + "ULL}},";
}

void
expectPinned(const Pin &pin, const Outcome &got)
{
    const Outcome &want = pin.expect;
    EXPECT_EQ(got.issuedCount, want.issuedCount) << describe(pin, got);
    EXPECT_EQ(hex(got.issuedDigest), hex(want.issuedDigest));
    for (std::size_t i = 0; i < got.counters.size(); ++i)
        EXPECT_EQ(got.counters[i], want.counters[i]) << "counter " << i;
    EXPECT_EQ(hex(got.predictorDigest), hex(want.predictorDigest));
}

TimekeepingConfig
configFor(const Pin &pin)
{
    TimekeepingConfig config;
    config.deadMultiplier = pin.deadMultiplier;
    config.minLiveTime = pin.minLiveTime;
    return config;
}

TEST(TimekeepingPin, ScriptedStream)
{
    for (const Pin &pin : pins) {
        SCOPED_TRACE(describe(pin, pin.expect));
        expectPinned(pin, Script(configFor(pin)).run(false));
    }
}

TEST(TimekeepingPin, RestoredHalfwayMatchesTheSamePin)
{
    for (const Pin &pin : pins) {
        SCOPED_TRACE(describe(pin, pin.expect));
        expectPinned(pin, Script(configFor(pin)).run(true));
    }
}

TEST(TimekeepingPin, ScriptExercisesEveryPath)
{
    for (const Pin &pin : pins) {
        const Outcome &o = pin.expect;
        EXPECT_GT(o.issuedCount, 100u);
        for (double c : o.counters)
            EXPECT_GT(c, 0.0);
    }
}

} // namespace
} // namespace vsv
