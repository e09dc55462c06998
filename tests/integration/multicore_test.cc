/**
 * @file
 * Multi-core contracts: per-core stats that sum to the aggregates,
 * shared-rail lockstep behavior, fast-forward and snapshot/restore
 * bit-identity with 2 cores, warmup-snapshot sharing across rail
 * policies, and the N=1 guarantee that the multi-core simulator
 * registers exactly the legacy stat surface.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

SimulationOptions
twoCoreOptions(RailPolicy policy, bool with_vsv)
{
    SimulationOptions options = makeOptions("mcf", false, 20000, 5000);
    options.cores = 2;
    options.railPolicy = policy;
    if (with_vsv)
        options.vsv = fsmVsvConfig();
    return options;
}

/** 2-core grid: both rail policies x {baseline, VSV-FSM}. */
std::vector<SweepJob>
twoCoreGrid(bool fast_forward)
{
    std::vector<SweepJob> jobs;
    for (const RailPolicy policy :
         {RailPolicy::PerCore, RailPolicy::SharedVote}) {
        for (const bool vsv : {false, true}) {
            SimulationOptions options = twoCoreOptions(policy, vsv);
            options.fastForward = fast_forward;
            jobs.push_back({std::string("mcf-2c/") +
                                std::string(railPolicyName(policy)) +
                                (vsv ? "/fsm" : "/base"),
                            options});
        }
    }
    return jobs;
}

TEST(MulticoreTest, PerCoreStatsSumToAggregates)
{
    SimulationOptions options =
        twoCoreOptions(RailPolicy::PerCore, true);
    options.coreBenchmarks = {"mcf", "ammp"};
    const SweepOutcome out = SweepRunner::runOne({"mix", options});

    ASSERT_EQ(out.result.perCore.size(), 2u);
    EXPECT_EQ(out.result.perCore[0].benchmark, "mcf");
    EXPECT_EQ(out.result.perCore[1].benchmark, "ammp");

    // The whole-run numbers are sums of the per-core breakdown.
    std::uint64_t insts = 0, downs = 0, ups = 0;
    for (const CoreRunResult &pc : out.result.perCore) {
        insts += pc.instructions;
        downs += pc.downTransitions;
        ups += pc.upTransitions;
        EXPECT_GT(pc.instructions, 0u) << pc.benchmark;
    }
    EXPECT_EQ(out.result.instructions, insts);
    EXPECT_EQ(out.result.downTransitions, downs);
    EXPECT_EQ(out.result.upTransitions, ups);

    // Per-core scalar trees exist and agree with the breakdown.
    ASSERT_TRUE(out.scalars.count("core0.cpu.committed"));
    ASSERT_TRUE(out.scalars.count("core1.cpu.committed"));
    EXPECT_EQ(out.scalars.at("core0.cpu.committed") +
                  out.scalars.at("core1.cpu.committed"),
              static_cast<double>(insts));
    // The shared hierarchy registers once, unprefixed.
    EXPECT_TRUE(out.scalars.count("mem.demandL2Misses"));
    EXPECT_FALSE(out.scalars.count("core0.mem.demandL2Misses"));
}

TEST(MulticoreTest, SharedRailMovesInLockstep)
{
    const SweepOutcome out = SweepRunner::runOne(
        {"shared", twoCoreOptions(RailPolicy::SharedVote, true)});

    ASSERT_EQ(out.result.perCore.size(), 2u);
    const CoreRunResult &a = out.result.perCore[0];
    const CoreRunResult &b = out.result.perCore[1];
    // One physical rail: both cores transition at the same ticks and
    // spend identical time on the low-power path.
    EXPECT_GT(a.downTransitions, 0u);
    EXPECT_EQ(a.downTransitions, b.downTransitions);
    EXPECT_EQ(a.upTransitions, b.upTransitions);
    EXPECT_DOUBLE_EQ(a.lowModeFraction, b.lowModeFraction);

    // The arbiter accounts its votes; every group down needs at least
    // one vote per core.
    ASSERT_TRUE(out.scalars.count("rail.groupDowns"));
    const double group_downs = out.scalars.at("rail.groupDowns");
    EXPECT_EQ(group_downs, static_cast<double>(a.downTransitions));
    EXPECT_GE(out.scalars.at("rail.votes"), 2.0 * group_downs);
}

TEST(MulticoreTest, TwoCoreFastForwardIsBitIdentical)
{
    SweepRunner runner(4);
    const std::vector<SweepOutcome> on = runner.run(twoCoreGrid(true));
    const std::vector<SweepOutcome> off = runner.run(twoCoreGrid(false));
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
        ASSERT_EQ(on[i].id, off[i].id);
        EXPECT_EQ(on[i].scalars, off[i].scalars) << on[i].id;
        EXPECT_EQ(on[i].statsJson, off[i].statsJson) << on[i].id;
        EXPECT_EQ(on[i].result.ticks, off[i].result.ticks) << on[i].id;
        EXPECT_EQ(off[i].result.fastForwardedTicks, 0u) << on[i].id;
        // The stall-heavy 2-core VSV runs must actually skip ticks or
        // the multi-core fast-forward is dead code.
        if (on[i].id.find("/fsm") != std::string::npos) {
            EXPECT_GT(on[i].result.fastForwardedTicks, 0u) << on[i].id;
        }
    }
}

TEST(MulticoreTest, TwoCoreSnapshotRestoreIsBitIdentical)
{
    // warmup -> snapshot -> restore -> run must equal warmup -> run
    // with 2 cores too: per-core power banking, the shared hierarchy
    // and both workload streams all round-trip through the snapshot.
    const SimulationOptions options =
        twoCoreOptions(RailPolicy::SharedVote, true);
    const std::string fp = warmupFingerprint(options);

    Simulator reference(options);
    reference.warmup();
    std::ostringstream snap;
    reference.snapshotTo(snap, fp);
    const SimulationResult ref_result = reference.run();

    Simulator restored(options);
    std::istringstream is(snap.str());
    restored.restoreFrom(is, fp);
    const SimulationResult result = restored.run();

    EXPECT_EQ(result.ticks, ref_result.ticks);
    EXPECT_EQ(result.instructions, ref_result.instructions);
    // Bit-equal energies prove the banked idle-tick accrual (pending
    // idle edges travel un-flushed in the snapshot) replays exactly,
    // for the per-core models and the uncore model alike.
    EXPECT_EQ(result.energyPj, ref_result.energyPj);
    for (std::size_t c = 0; c < result.perCore.size(); ++c) {
        EXPECT_EQ(result.perCore[c].energyPj,
                  ref_result.perCore[c].energyPj)
            << "core " << c;
    }
    EXPECT_EQ(reference.stats().scalarMap(),
              restored.stats().scalarMap());
}

TEST(MulticoreTest, RailPoliciesShareOneWarmupSnapshot)
{
    // Both rail policies (and baseline vs VSV) of the same 2-core
    // workload share a warmup fingerprint: a 4-job sweep warms up
    // exactly once. Their config fingerprints stay distinct, so the
    // result store still keys results correctly.
    WarmupSnapshotCache cache;
    SweepRunner runner(2);
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run(twoCoreGrid(true));

    ASSERT_EQ(outcomes.size(), 4u);
    for (const SweepOutcome &out : outcomes)
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id;
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 3u);

    // Same policy+VSV config -> same fingerprint; anything else
    // differs.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        for (std::size_t j = i + 1; j < outcomes.size(); ++j) {
            EXPECT_NE(outcomes[i].fingerprint, outcomes[j].fingerprint)
                << outcomes[i].id << " vs " << outcomes[j].id;
        }
    }
}

TEST(MulticoreTest, SingleCoreKeepsTheLegacyStatSurface)
{
    // cores=1 must be indistinguishable from the pre-multicore
    // simulator: legacy unprefixed stat names, no core0./rail. trees,
    // no perCore breakdown. (Bit-identical *values* are enforced by
    // the golden-stats gate.)
    SimulationOptions options = makeOptions("mcf", false, 20000, 5000);
    options.vsv = fsmVsvConfig();
    options.cores = 1;
    const SweepOutcome out = SweepRunner::runOne({"mcf-1c", options});

    EXPECT_TRUE(out.result.perCore.empty());
    for (const char *name :
         {"cpu.committed", "power.ticks", "vsv.downTransitions",
          "bpred.lookups", "mem.demandL2Misses"}) {
        EXPECT_TRUE(out.scalars.count(name)) << name;
    }
    for (const auto &[name, value] : out.scalars) {
        EXPECT_EQ(name.rfind("core0.", 0), std::string::npos) << name;
        EXPECT_EQ(name.rfind("rail.", 0), std::string::npos) << name;
    }
}

} // namespace
} // namespace vsv
