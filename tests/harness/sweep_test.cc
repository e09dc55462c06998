/**
 * @file
 * Tests of the parallel sweep runner: schedule-independent results,
 * deterministic seeding, and the sweep JSON document.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/warmup_cache.hh"

namespace vsv
{
namespace
{

std::vector<SweepJob>
smallGrid(std::uint64_t sweep_seed = 0)
{
    std::vector<SweepJob> jobs;
    for (const char *name : {"mcf", "ammp"}) {
        SimulationOptions base = makeOptions(name, false, 20000, 5000);
        applyRunSeed(base, sweep_seed);
        jobs.push_back({std::string(name) + "/base", base});

        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        jobs.push_back({std::string(name) + "/fsm", vsv});
    }
    return jobs;
}

TEST(SweepDispatchTest, TasksWaitingOnAWarmupInFlightGoLast)
{
    // Tasks A, A', B, B': A and A' share warmup 0, B and B' warmup 1.
    const std::vector<std::size_t> warmup = {0, 0, 1, 1};
    using P = WarmupPhase;

    // Nothing started: submission order.
    EXPECT_EQ(pickNextTask(warmup, {0, 0, 0, 0}, {P::Idle, P::Idle}), 0u);
    // A is warming: its follower A' waits while B can start.
    EXPECT_EQ(pickNextTask(warmup, {1, 0, 0, 0}, {P::InFlight, P::Idle}),
              2u);
    // A's bytes are published: A' is next again.
    EXPECT_EQ(pickNextTask(warmup, {1, 0, 0, 0},
                           {P::Published, P::Idle}),
              1u);
    // B is warming too: B' also waits, so A' is still the pick.
    EXPECT_EQ(pickNextTask(warmup, {1, 0, 1, 0},
                           {P::InFlight, P::InFlight}),
              1u);
    // Only A' is left: its worker waits on A's warmup in acquire.
    EXPECT_EQ(pickNextTask(warmup, {1, 0, 1, 1},
                           {P::InFlight, P::Published}),
              1u);
    // Everything started.
    EXPECT_EQ(pickNextTask(warmup, {1, 1, 1, 1},
                           {P::Published, P::Published}),
              4u);
    // A task without a warmup (a lockstep batch) never waits.
    EXPECT_EQ(pickNextTask({0, kNoWarmup}, {0, 0}, {P::InFlight}), 1u);
}

TEST(SweepRunnerTest, ParallelMatchesSerialBitIdentically)
{
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<SweepOutcome> serial = SweepRunner(1).run(jobs);
    const std::vector<SweepOutcome> threaded = SweepRunner(4).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(threaded.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].id, jobs[i].id);
        EXPECT_EQ(threaded[i].id, jobs[i].id);
        // Bit-identical: every scalar and the serialized documents.
        EXPECT_EQ(serial[i].scalars, threaded[i].scalars) << jobs[i].id;
        EXPECT_EQ(serial[i].statsJson, threaded[i].statsJson)
            << jobs[i].id;
        EXPECT_EQ(serial[i].result.ticks, threaded[i].result.ticks);
        EXPECT_EQ(serial[i].result.energyPj, threaded[i].result.energyPj);
    }
}

TEST(SweepRunnerTest, ZeroJobsPicksAtLeastOneThread)
{
    EXPECT_GE(SweepRunner(0).threads(), 1u);
    EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(SweepRunnerTest, EmptyGridYieldsEmptyOutcomes)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(MixSeedTest, ZeroSweepSeedIsIdentity)
{
    // The default keeps every profile's published seed, so figure
    // numbers are unchanged unless --seed is given explicitly.
    EXPECT_EQ(mixSeed(0, 42u), 42u);
    EXPECT_EQ(mixSeed(0, 0u), 0u);
}

TEST(MixSeedTest, MixingIsDeterministicAndSpreads)
{
    EXPECT_EQ(mixSeed(1, 42u), mixSeed(1, 42u));
    EXPECT_NE(mixSeed(1, 42u), 42u);
    EXPECT_NE(mixSeed(1, 42u), mixSeed(2, 42u));
    EXPECT_NE(mixSeed(1, 42u), mixSeed(1, 43u));
}

TEST(MixSeedTest, ApplyRunSeedRewritesTheProfileSeed)
{
    SimulationOptions options = makeOptions("mcf", false, 1000, 0);
    const std::uint64_t original = options.profile.seed;

    applyRunSeed(options, 0);
    EXPECT_EQ(options.profile.seed, original);

    applyRunSeed(options, 7);
    EXPECT_EQ(options.profile.seed, mixSeed(7, original));
}

TEST(SweepJsonTest, DocumentCarriesManifestAndEveryScalar)
{
    SimulationOptions options = makeOptions("mcf", false, 10000, 2000);
    const SweepOutcome outcome =
        SweepRunner::runOne({"mcf/base", options});
    EXPECT_FALSE(outcome.scalars.empty());

    SweepManifest manifest;
    manifest.tool = "sweep_test";
    manifest.seed = 9;
    manifest.threads = 2;
    manifest.wallSeconds = 0.25;
    manifest.config = {{"instructions", "10000"}};

    std::ostringstream os;
    writeSweepJson(os, manifest, {outcome});
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"manifest\""), std::string::npos);
    EXPECT_NE(doc.find("\"tool\":\"sweep_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"gitDescribe\""), std::string::npos);
    EXPECT_NE(doc.find("\"seed\":9"), std::string::npos);
    EXPECT_NE(doc.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"instructions\":\"10000\""), std::string::npos);
    EXPECT_NE(doc.find("\"id\":\"mcf/base\""), std::string::npos);

    // Every registered scalar appears by name in the document.
    for (const auto &[name, value] : outcome.scalars)
        EXPECT_NE(doc.find('"' + name + '"'), std::string::npos) << name;

    // The per-run result block is present too.
    EXPECT_NE(doc.find("\"result\":{\"benchmark\":\"mcf\""),
              std::string::npos);
}

/** The `warmupSeconds` member of a run's throughput block. */
double
exportedWarmupSeconds(const SimulationResult &result)
{
    std::ostringstream os;
    writeSimulationResultJson(os, result);
    const minijson::Value doc = minijson::parse(os.str());
    const minijson::Value &throughput = doc.at("throughput");
    EXPECT_TRUE(throughput.has("warmupSeconds"));
    return throughput.at("warmupSeconds").num();
}

TEST(SweepJsonTest, ThroughputCarriesWarmupSeconds)
{
    // Two runs sharing one warmup: the first warms up, the second
    // restores the snapshot and so spends no time in warmup.
    const SimulationOptions options =
        makeOptions("ammp", false, 5000, 20000);
    SimulationOptions vsv = options;
    vsv.vsv = fsmVsvConfig();
    WarmupSnapshotCache cache;
    const SweepOutcome warmed =
        SweepRunner::runOne({"ammp/base", options}, &cache);
    const SweepOutcome restored =
        SweepRunner::runOne({"ammp/fsm", vsv}, &cache);
    ASSERT_EQ(cache.stats().hits, 1u);

    EXPECT_GE(exportedWarmupSeconds(warmed.result), 0.0);
    EXPECT_GT(warmed.result.warmupSeconds, 0.0);
    EXPECT_EQ(exportedWarmupSeconds(restored.result), 0.0);

    // The sweep reader takes the field back.
    std::ostringstream os;
    writeSimulationResultJson(os, warmed.result);
    EXPECT_EQ(parseSimulationResultJson(minijson::parse(os.str()))
                  .warmupSeconds,
              warmed.result.warmupSeconds);
}

TEST(SweepJsonTest, AbsentWarmupSecondsReadsAsZero)
{
    SimulationResult result;
    result.warmupSeconds = 3.5;
    std::ostringstream os;
    writeSimulationResultJson(os, result);
    std::string text = os.str();
    const std::size_t at = text.find(",\"warmupSeconds\":");
    ASSERT_NE(at, std::string::npos);
    text.erase(at, text.find('}', at) - at);
    EXPECT_EQ(parseSimulationResultJson(minijson::parse(text))
                  .warmupSeconds,
              0.0);
}

TEST(SweepJsonTest, GitDescribeIsStamped)
{
    EXPECT_FALSE(buildGitDescribe().empty());
}

} // namespace
} // namespace vsv
