/**
 * @file
 * WarmupSnapshotCache contracts: one warmup per fingerprint under a
 * parallel sweep, the sweep plan (encode only what is restored, free
 * it after the last restore, retries outside the plan), the
 * fingerprint's sensitivity boundary (warmup-affecting knobs in,
 * measurement-only knobs out), disk persistence with corrupt or forged
 * files degrading to misses, and the cache counters' appearance in the
 * sweep manifest.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
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

/** Six jobs, two distinct warmup fingerprints (mcf and ammp). */
std::vector<SweepJob>
twoBenchmarkGrid()
{
    std::vector<SweepJob> jobs;
    for (const std::string name : {"mcf", "ammp"}) {
        SimulationOptions base = makeOptions(name, false, 5000, 3000);
        jobs.push_back({name + "/base", base});
        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});
        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }
    return jobs;
}

/** A scratch directory unique to this test, created empty. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(WarmupCacheTest, OneWarmupPerFingerprintUnderParallelSweep)
{
    SweepRunner runner(4);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run(twoBenchmarkGrid());

    for (const SweepOutcome &out : outcomes)
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id << out.error;

    const SnapshotCacheStats stats = cache.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(WarmupCacheTest, PlannedSweepFreesEverySnapshotItRestored)
{
    // Figure 4's shape: three runs per warmup. Each warmup is encoded
    // for its two restores and let go after the last one.
    SweepRunner runner(4);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    for (const SweepOutcome &out : runner.run(twoBenchmarkGrid()))
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id << out.error;

    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 4u);
    EXPECT_GT(cache.encodedBytes(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
}

TEST(WarmupCacheTest, SingleConsumerWarmupsAreNeverEncoded)
{
    // Table 2's shape: every warmup has exactly one run, so no
    // snapshot would ever be restored and none is made.
    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    // The abort hook is polled while each run executes: no snapshot
    // bytes may be resident at any of those points.
    std::atomic<unsigned> polls{0};
    std::vector<SweepJob> jobs;
    for (const std::string name : {"mcf", "ammp", "art"}) {
        SweepJob job{name, makeOptions(name, false, 5000, 3000)};
        job.options.abortHook = [&cache, &polls] {
            ++polls;
            EXPECT_EQ(cache.residentBytes(), 0u);
            return false;
        };
        jobs.push_back(job);
    }
    const std::vector<SweepOutcome> outcomes = runner.run(jobs);
    EXPECT_GT(polls.load(), 0u);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(outcomes[i].status, SweepStatus::Ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].statsJson,
                  SweepRunner::runOne(jobs[i]).statsJson);
    }
    const SnapshotCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, jobs.size());
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(cache.encodedBytes(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
}

TEST(WarmupCacheTest, SingleConsumerWarmupIsStillWrittenToDisk)
{
    // A later sweep reads the directory, so a warmup with one run
    // in this sweep is still persisted there - but not kept in memory.
    const std::string dir = freshDir("vsv_warmup_cache_single_disk");
    const SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    SweepRunner runner(1);
    WarmupSnapshotCache cache(dir);
    runner.enableWarmupSnapshots(cache);
    ASSERT_EQ(runner.run({{"mcf", options}})[0].status, SweepStatus::Ok);

    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + warmupFingerprint(options) + ".vsvsnap"));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.residentBytes(), 0u);

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, RetryBeyondThePlanStillSucceeds)
{
    // The follower's first attempt restores the last planned copy of
    // the snapshot, which the cache then lets go of, and is aborted in
    // its measured window. Its retry is an acquire outside the plan:
    // it warms up afresh and keeps its bytes, as a direct runOne does.
    const SimulationOptions base = makeOptions("mcf", false, 20000, 3000);
    SimulationOptions flaky = base;
    flaky.vsv = fsmVsvConfig();
    const SweepOutcome reference = SweepRunner::runOne({"mcf/fsm", flaky});
    auto polls = std::make_shared<std::atomic<int>>(0);
    flaky.abortHook = [polls] { return polls->fetch_add(1) == 0; };

    SweepRunner runner(1, 1);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run({{"mcf/base", base}, {"mcf/fsm", flaky}});

    EXPECT_EQ(outcomes[0].status, SweepStatus::Ok) << outcomes[0].error;
    ASSERT_EQ(outcomes[1].status, SweepStatus::Ok) << outcomes[1].error;
    EXPECT_EQ(outcomes[1].attempts, 2u);
    EXPECT_EQ(outcomes[1].statsJson, reference.statsJson);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_GT(cache.residentBytes(), 0u);
}

TEST(WarmupCacheTest, ManifestRecordsCacheCounters)
{
    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run(twoBenchmarkGrid());

    SweepManifest manifest;
    manifest.tool = "warmup_cache_test";
    manifest.threads = runner.threads();
    manifest.snapshotCache = cache.stats();
    std::ostringstream os;
    writeSweepJson(os, manifest, outcomes);

    EXPECT_NE(os.str().find("\"snapshotCache\":{\"enabled\":true"
                            ",\"hits\":4,\"misses\":2"
                            ",\"diskHits\":0,\"failures\":0}"),
              std::string::npos)
        << os.str().substr(0, 400);
}

TEST(WarmupCacheTest, DisabledCacheReportsDisabledInManifest)
{
    SweepManifest manifest;
    manifest.tool = "warmup_cache_test";
    std::ostringstream os;
    writeSweepJson(os, manifest, {});
    EXPECT_NE(os.str().find("\"snapshotCache\":{\"enabled\":false"),
              std::string::npos);
}

TEST(WarmupCacheTest, DiskPersistenceCarriesWarmupAcrossCampaigns)
{
    const std::string dir = freshDir("vsv_warmup_cache_disk");
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    SweepOutcome first;
    {
        WarmupSnapshotCache cache(dir);
        first = SweepRunner::runOne({"mcf", options}, &cache);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().diskHits, 0u);
        EXPECT_TRUE(std::filesystem::exists(dir + "/" + fp + ".vsvsnap"));
    }

    // A new cache (new sweep) must find the file and skip warmup.
    WarmupSnapshotCache cache(dir);
    const SweepOutcome second =
        SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().failures, 0u);

    EXPECT_EQ(first.scalars, second.scalars);
    EXPECT_EQ(first.statsJson, second.statsJson);
    EXPECT_EQ(first.result.ticks, second.result.ticks);

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, CorruptDiskFileIsAMissNotAnError)
{
    const std::string dir = freshDir("vsv_warmup_cache_corrupt");
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    SweepOutcome reference;
    {
        WarmupSnapshotCache cache;
        reference = SweepRunner::runOne({"mcf", options}, &cache);
    }

    std::filesystem::create_directories(dir);
    {
        std::ofstream os(dir + "/" + fp + ".vsvsnap",
                         std::ios::binary);
        os << "garbage, not a snapshot";
    }

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out =
        SweepRunner::runOne({"mcf", options}, &cache);
    const SnapshotCacheStats stats = cache.stats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.diskHits, 0u);

    // The rejected file was quarantined (renamed `.bad`), so no later
    // sweep sharing this directory re-reads and re-rejects it.
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + fp +
                                        ".vsvsnap.bad"));

    // The run fell back to a fresh warmup and matched exactly...
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(out.scalars, reference.scalars);
    EXPECT_EQ(out.statsJson, reference.statsJson);

    // ...and the recompute replaced the corrupt file with a good one.
    WarmupSnapshotCache reload(dir);
    const SweepOutcome again =
        SweepRunner::runOne({"mcf", options}, &reload);
    EXPECT_EQ(reload.stats().diskHits, 1u);
    EXPECT_EQ(reload.stats().failures, 0u);
    EXPECT_EQ(again.scalars, reference.scalars);

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, TruncatedDiskFileIsAMissNotAnError)
{
    const std::string dir = freshDir("vsv_warmup_cache_trunc");
    SimulationOptions options = makeOptions("ammp", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    // Produce a valid file, then chop it in half.
    {
        WarmupSnapshotCache cache(dir);
        SweepRunner::runOne({"ammp", options}, &cache);
    }
    const std::string path = dir + "/" + fp + ".vsvsnap";
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out =
        SweepRunner::runOne({"ammp", options}, &cache);
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(cache.stats().failures, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    // Quarantined, and the recompute wrote a fresh good file back
    // under the original name.
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    EXPECT_TRUE(std::filesystem::exists(path));

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, ForgedSectionSizeIsQuarantinedNotAllocated)
{
    // A snapshot whose first section declares 2^40 payload bytes is
    // corruption like any other: quarantined, warmed afresh, and the
    // run succeeds.
    const std::string dir = freshDir("vsv_warmup_cache_forged");
    const SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    const std::string path =
        dir + "/" + warmupFingerprint(options) + ".vsvsnap";
    {
        WarmupSnapshotCache cache(dir);
        SweepRunner::runOne({"mcf", options}, &cache);
    }
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        bytes = os.str();
    }
    // Header: magic(4) + version(4) + fingerprint length(4) + bytes;
    // then the first section's tag length(4) + tag, then its size.
    std::uint32_t fp_len = 0;
    std::memcpy(&fp_len, bytes.data() + 8, sizeof(fp_len));
    std::uint32_t tag_len = 0;
    std::memcpy(&tag_len, bytes.data() + 12 + fp_len, sizeof(tag_len));
    const std::size_t size_at = 12 + fp_len + 4 + tag_len;
    const std::uint64_t forged = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + size_at, &forged, sizeof(forged));
    bytes.resize(size_at + sizeof(forged) + 16);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes;
    }

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out = SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(cache.stats().failures, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    EXPECT_EQ(std::filesystem::file_size(path + ".bad"), bytes.size());

    std::filesystem::remove_all(dir);
}

TEST(WarmupFingerprintTest, MeasurementOnlyKnobsShareAFingerprint)
{
    const SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(base);

    SimulationOptions vsv_on = base;
    vsv_on.vsv = fsmVsvConfig();
    EXPECT_EQ(warmupFingerprint(vsv_on), fp);

    SimulationOptions longer = base;
    longer.measureInstructions *= 4;
    EXPECT_EQ(warmupFingerprint(longer), fp);

    SimulationOptions wide = base;
    wide.core.issueWidth += 1;
    EXPECT_EQ(warmupFingerprint(wide), fp);

    SimulationOptions no_ff = base;
    no_ff.fastForward = false;
    EXPECT_EQ(warmupFingerprint(no_ff), fp);
}

TEST(WarmupFingerprintTest, WarmupAffectingKnobsSplitTheFingerprint)
{
    const SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(base);

    SimulationOptions other_bench = makeOptions("art", false, 5000, 3000);
    EXPECT_NE(warmupFingerprint(other_bench), fp);

    SimulationOptions longer_warmup = base;
    longer_warmup.warmupInstructions += 1;
    EXPECT_NE(warmupFingerprint(longer_warmup), fp);

    SimulationOptions with_tk = base;
    with_tk.timekeeping = true;
    EXPECT_NE(warmupFingerprint(with_tk), fp);

    SimulationOptions other_seed = base;
    other_seed.profile.seed += 1;
    EXPECT_NE(warmupFingerprint(other_seed), fp);

    SimulationOptions small_l2 = base;
    small_l2.hierarchy.l2.sizeBytes /= 2;
    EXPECT_NE(warmupFingerprint(small_l2), fp);

    SimulationOptions fewer_mshrs = base;
    fewer_mshrs.hierarchy.l2Mshrs /= 2;
    EXPECT_NE(warmupFingerprint(fewer_mshrs), fp);

    // A custom profile hiding under a stock benchmark's name must not
    // collide with the stock profile.
    SimulationOptions custom = base;
    custom.profile.loadFrac += 0.01;
    EXPECT_NE(warmupFingerprint(custom), fp);

    SimulationOptions traced = base;
    traced.tracePath = "some.trace";
    EXPECT_NE(warmupFingerprint(traced), fp);
}

TEST(WarmupFingerprintTest, CoreTopologySplitsTheFingerprints)
{
    // A 2-core run warms two streams into a shared L2; letting it
    // collide with the single-core fingerprint would restore the wrong
    // cache contents (and resume the wrong results).
    const SimulationOptions base = makeOptions("mcf", false, 5000, 3000);

    SimulationOptions two = base;
    two.cores = 2;
    EXPECT_NE(warmupFingerprint(two), warmupFingerprint(base));
    EXPECT_NE(configFingerprint(two), configFingerprint(base));

    // The rail policy is measurement-only: both policies of a 2-core
    // run share one warmup snapshot but must not share results.
    SimulationOptions shared_rail = two;
    shared_rail.railPolicy = RailPolicy::SharedVote;
    EXPECT_EQ(warmupFingerprint(shared_rail), warmupFingerprint(two));
    EXPECT_NE(configFingerprint(shared_rail), configFingerprint(two));

    // A multiprogrammed mix changes every core's warmup stream.
    SimulationOptions mix = two;
    mix.coreBenchmarks = {"mcf", "art"};
    EXPECT_NE(warmupFingerprint(mix), warmupFingerprint(two));
    EXPECT_NE(configFingerprint(mix), configFingerprint(two));
}

} // namespace
} // namespace vsv
