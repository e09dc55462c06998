/**
 * @file
 * Pins the core's scheduler: exact counters and per-structure
 * energies for fixed instruction streams over a grid of RUU sizes and
 * issue widths, with the idle-cycle fast-forward off and on.
 *
 * The expected values were recorded from the original walk-based
 * scheduler (a head-to-tail RUU walk in the issue, complete and
 * fast-forward paths). Any scheduler must reproduce them bit for bit:
 * oldest-first selection, seq-ordered completion, the side effects of
 * failed issue attempts and the order in which energy is charged all
 * show up in these numbers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "cpu/core.hh"

namespace vsv
{
namespace
{

enum class Stream : std::uint8_t
{
    Deps,    ///< short dependency chains, long-latency FP/int ops
    MemBr    ///< loads, stores, prefetches and noisy branches
};

WorkloadProfile
profileFor(Stream stream)
{
    WorkloadProfile p;
    if (stream == Stream::Deps) {
        p.name = "deps";
        p.seed = 21;
        p.loadFrac = 0.05;
        p.storeFrac = 0.02;
        p.branchFrac = 0.05;
        p.fpFrac = 0.4;
        p.intMulFrac = 0.1;
        p.intDivFrac = 0.02;
        p.fpDivFrac = 0.05;
        p.meanDepDist = 1.5;
        p.secondSrcProb = 0.8;
        p.loadConsumerProb = 0.3;
        return p;
    }
    p.name = "membr";
    p.seed = 23;
    p.loadFrac = 0.32;
    p.storeFrac = 0.16;
    p.branchFrac = 0.2;
    p.branchNoise = 0.2;
    p.meanDepDist = 4.0;
    p.loadConsumerProb = 0.4;
    p.coldConsumerProb = 0.05;
    p.coldFrac = 0.35;
    p.coldBurst = 8;
    p.coldPattern = ColdPattern::Random;
    p.warmFrac = 0.2;
    p.hotFootprint = 512;  // small: stores and loads alias often
    p.swPrefetchCoverage = 0.3;
    return p;
}

/**
 * Core plus substrates, driven tick by tick under a fixed supply
 * schedule that cycles through the high-power mode (VDDH, every tick
 * a pipeline edge), the low-power mode (VDDL, level-converting
 * latches, edges on even ticks) and a mid-ramp voltage. Every tick
 * closes the power model, so access pricing, idle banking and the
 * active-tick charge are all exercised.
 */
struct PinRig
{
    static constexpr Tick phaseTicks = 700;

    PinRig(Stream stream, CoreConfig cc, HierarchyConfig hc)
        : mem(hc, power),
          workload(profileFor(stream)),
          core(cc, workload, mem, predictor, power)
    {
        core.regStats(registry, "cpu");
    }

    void
    warm(std::uint64_t n)
    {
        const WorkloadProfile &p = workload.profile();
        mem.setWarmupMode(true);
        Tick t = 0;
        for (Addr off = 0; off < p.hotFootprint; off += 32)
            mem.warmupDataAccess(WorkloadRegions::hot + off, false, t++);
        for (Addr off = 0; off < p.warmFootprint; off += 32)
            mem.warmupDataAccess(WorkloadRegions::warm + off, false, t++);
        for (Addr off = 0; off < p.codeFootprint; off += 32)
            mem.warmupInstAccess(WorkloadRegions::code + off, t++);
        for (std::uint64_t i = 0; i < n; ++i) {
            const MicroOp op = workload.next();
            mem.warmupInstAccess(op.pc, t);
            if (isMemOp(op.cls)) {
                mem.warmupDataAccess(op.addr, op.cls == OpClass::Store,
                                     t);
            } else if (op.cls == OpClass::Branch) {
                predictor.resolve(op, predictor.predict(op));
            }
            ++t;
        }
        mem.setWarmupMode(false);
    }

    static unsigned phase(Tick t) { return (t / phaseTicks) % 3; }
    static Tick phaseEnd(Tick t) { return t - t % phaseTicks + phaseTicks; }
    static bool isEdge(Tick t) { return phase(t) != 1 || t % 2 == 0; }

    /** Run until `insts` commit; returns the ticks used. */
    Tick
    run(std::uint64_t insts, bool fast_forward)
    {
        const PowerModelConfig &pc = power.config();
        Tick now = 0;
        while (core.committedInstructions() < insts && now < 50'000'000) {
            switch (phase(now)) {
              case 0:
                power.setPipelineVdd(pc.vddHigh);
                power.setLowPowerPath(false);
                break;
              case 1:
                power.setPipelineVdd(pc.vddLow);
                power.setLowPowerPath(true);
                break;
              default:
                power.setPipelineVdd(0.5 * (pc.vddHigh + pc.vddLow));
                power.setLowPowerPath(true);
                break;
            }

            if (fast_forward && skipIdle(now))
                continue;

            mem.service(now);
            const bool edge = isEdge(now);
            if (edge)
                core.cycle(now);
            power.tick(edge);
            ++now;
        }
        return now;
    }

    /**
     * Bulk-skip ticks the core proves are pure stall cycles, bounded
     * by the next memory event and the end of the supply phase.
     */
    bool
    skipIdle(Tick &now)
    {
        const Cycle budget = core.cyclesUntilProgress();
        const Tick stop = std::min(mem.nextEventTick(), phaseEnd(now));
        Tick t = now;
        Cycle edges = 0;
        while (budget > 0 && t < stop && !(isEdge(t) && edges == budget)) {
            edges += isEdge(t) ? 1 : 0;
            ++t;
        }
        if (t == now)
            return false;
        core.skipIdleCycles(edges);
        power.accrueIdleTicks(edges, t - now - edges);
        now = t;
        return true;
    }

    /** FNV-1a over the bit patterns of every structure's energy. */
    std::uint64_t
    energyDigest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::size_t i = 0; i < numPowerStructures; ++i) {
            const double e =
                power.structureEnergyPj(static_cast<PowerStructure>(i));
            std::uint64_t bits = std::bit_cast<std::uint64_t>(e);
            for (int b = 0; b < 8; ++b, bits >>= 8) {
                h ^= bits & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
        return h;
    }

    std::uint64_t
    stat(const char *name) const
    {
        return static_cast<std::uint64_t>(
            registry.scalarValue(std::string("cpu.") + name));
    }

    PowerModel power;
    MemoryHierarchy mem;
    BranchPredictor predictor;
    WorkloadGenerator workload;
    Core core;
    StatRegistry registry;
};

/** One pinned configuration and its recorded outcome. */
struct Pin
{
    Stream stream;
    std::uint32_t ruuSize;
    std::uint32_t issueWidth;
    std::uint32_t l1dHitLatency;  ///< 0 = the default hierarchy
    std::uint64_t committed;
    std::uint64_t issued;
    std::uint64_t zeroIssueCycles;
    std::uint64_t branches;
    std::uint64_t mispredictRecoveries;
    std::uint64_t memRetries;
    std::uint64_t storeForwards;
    std::uint64_t pipelineCycles;
    std::uint64_t energyDigest;
};

constexpr std::uint64_t pinInstructions = 8000;
constexpr std::uint64_t pinWarmup = 4000;

// clang-format off
// Recorded from the walk-based scheduler; see the file comment.
const Pin pins[] = {
    {Stream::Deps, 4, 1, 0, 8000, 8002, 10957, 379, 120, 0, 0, 18959, 0x166706e649fc1dbaULL},
    {Stream::Deps, 4, 8, 0, 8000, 8002, 11395, 379, 120, 0, 0, 18169, 0x99e5778e36a0171dULL},
    {Stream::Deps, 37, 1, 0, 8000, 8005, 7987, 379, 120, 0, 0, 15992, 0xa561a8753daa977aULL},
    {Stream::Deps, 37, 8, 0, 8000, 8016, 8005, 380, 120, 0, 0, 13652, 0xe53d78dc670dba61ULL},
    {Stream::Deps, 128, 1, 0, 8000, 8005, 7552, 379, 120, 0, 0, 15557, 0x941fb9508e6f78c3ULL},
    {Stream::Deps, 128, 8, 0, 8000, 8024, 7341, 380, 120, 0, 0, 12664, 0x3b10e6a11b548c74ULL},
    {Stream::Deps, 200, 1, 0, 8000, 8005, 7552, 379, 120, 0, 0, 15557, 0x40ba9cd23d494996ULL},
    {Stream::Deps, 200, 8, 0, 8000, 8024, 7217, 380, 120, 0, 0, 12502, 0xfb7bdd3a62cce0e1ULL},
    {Stream::MemBr, 4, 1, 0, 8001, 8003, 50804, 1518, 611, 318, 7, 58807, 0xf2a199fc4cfc9c08ULL},
    {Stream::MemBr, 4, 8, 0, 8001, 8003, 51664, 1518, 611, 261, 7, 57190, 0xdb868d97fb85d698ULL},
    {Stream::MemBr, 37, 1, 0, 8004, 8010, 36579, 1518, 611, 4836, 13, 44589, 0xa548a94acbeccd5bULL},
    {Stream::MemBr, 37, 8, 0, 8002, 8012, 37641, 1519, 611, 5493, 23, 42023, 0x7265d57decb719e3ULL},
    {Stream::MemBr, 128, 1, 0, 8004, 8044, 35355, 1524, 614, 4945, 26, 43399, 0x7bb7f7e149c4c0c4ULL},
    {Stream::MemBr, 128, 8, 0, 8002, 8044, 36580, 1524, 614, 5777, 34, 40975, 0x0f15cfc77fc46c79ULL},
    {Stream::MemBr, 200, 1, 0, 8004, 8044, 35355, 1524, 614, 4945, 26, 43399, 0x87213738a70dae3cULL},
    {Stream::MemBr, 200, 8, 0, 8002, 8044, 36580, 1524, 614, 5777, 34, 40975, 0x520fc12e4e2ee04eULL},
    {Stream::Deps, 1, 1, 0, 8000, 8000, 28692, 379, 120, 0, 0, 36692, 0xd5c1546ad2d4c90fULL},
    {Stream::MemBr, 64, 4, 0, 8002, 8044, 36722, 1524, 614, 5645, 31, 41148, 0x8b77fb08314a1467ULL},
    {Stream::MemBr, 128, 8, 70, 8006, 8012, 101668, 1519, 611, 4852, 26, 106265, 0xe03b4551a61c3bf1ULL},
};
// clang-format on

std::string
pinLine(const Pin &p)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "    {Stream::%s, %u, %u, %u, %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", 0x%016" PRIx64 "ULL},",
        p.stream == Stream::Deps ? "Deps" : "MemBr", p.ruuSize,
        p.issueWidth, p.l1dHitLatency, p.committed, p.issued,
        p.zeroIssueCycles, p.branches, p.mispredictRecoveries,
        p.memRetries, p.storeForwards, p.pipelineCycles, p.energyDigest);
    return buf;
}

Pin
measure(const Pin &want, bool fast_forward)
{
    CoreConfig cc;
    cc.ruuSize = want.ruuSize;
    cc.issueWidth = want.issueWidth;
    HierarchyConfig hc;
    hc.l1dMshrs = 4;  // few MSHRs: loads and store writes get retried
    if (want.l1dHitLatency != 0)
        hc.l1d.hitLatency = want.l1dHitLatency;

    PinRig rig(want.stream, cc, hc);
    rig.warm(pinWarmup);
    rig.run(pinInstructions, fast_forward);

    Pin got = want;
    got.committed = rig.stat("committed");
    got.issued = rig.stat("issued");
    got.zeroIssueCycles = rig.stat("zeroIssueCycles");
    got.branches = rig.stat("branches");
    got.mispredictRecoveries = rig.stat("mispredictRecoveries");
    got.memRetries = rig.stat("memRetries");
    got.storeForwards = rig.stat("storeForwards");
    got.pipelineCycles = rig.core.pipelineCycles();
    got.energyDigest = rig.energyDigest();
    return got;
}

void
expectPinned(const Pin &want, bool fast_forward)
{
    const Pin got = measure(want, fast_forward);
    const std::string ctx = pinLine(want) + (fast_forward ? " ff" : "");
    EXPECT_EQ(got.committed, want.committed) << ctx;
    EXPECT_EQ(got.issued, want.issued) << ctx;
    EXPECT_EQ(got.zeroIssueCycles, want.zeroIssueCycles) << ctx;
    EXPECT_EQ(got.branches, want.branches) << ctx;
    EXPECT_EQ(got.mispredictRecoveries, want.mispredictRecoveries) << ctx;
    EXPECT_EQ(got.memRetries, want.memRetries) << ctx;
    EXPECT_EQ(got.storeForwards, want.storeForwards) << ctx;
    EXPECT_EQ(got.pipelineCycles, want.pipelineCycles) << ctx;
    EXPECT_EQ(got.energyDigest, want.energyDigest) << ctx;
    if (::testing::Test::HasFailure())
        std::printf("measured:\n%s\n", pinLine(got).c_str());
}

TEST(SchedulerPinTest, GridMatchesRecordedValues)
{
    ASSERT_GT(std::size(pins), 0u);
    for (const Pin &pin : pins)
        expectPinned(pin, false);
}

TEST(SchedulerPinTest, FastForwardMatchesRecordedValues)
{
    for (const Pin &pin : pins)
        expectPinned(pin, true);
}

} // namespace
} // namespace vsv
