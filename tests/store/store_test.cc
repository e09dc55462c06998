/**
 * @file
 * ResultStore contracts (STORE.md): the LZSS codec and checksummed
 * envelope round-trip; insert/lookup replay the exact bytes that went
 * in; a corrupt or torn entry is quarantined as `.bad` and degrades
 * to a miss; duplicate inserts of one fingerprint write once;
 * concurrent multi-process inserts into one directory never produce a
 * torn entry; and the sweep integration serves hits without
 * simulating, byte-identically to the cold run, while failed and
 * changed runs simulate again.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "store/store.hh"

namespace vsv
{
namespace store
{
namespace
{

/** A scratch directory unique to this test, created empty. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

StoreEntry
sampleEntry(const std::string &fingerprint)
{
    StoreEntry entry;
    entry.fingerprint = fingerprint;
    entry.attempts = 2;
    entry.resultJson = "{\"benchmark\":\"mcf\",\"ipc\":1.25}";
    entry.statsJson = "{\"scalars\":{\"sim.ticks\":42}}";
    entry.statsText = "sim.ticks 42\n";
    return entry;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/** A fast, valid sweep job. */
SweepJob
goodJob(const std::string &id, const char *bench)
{
    return {id, makeOptions(bench, false, 20000, 5000)};
}

/** A job that fails to construct: its trace file does not exist. */
SweepJob
faultingJob(const std::string &id, const char *bench)
{
    SweepJob job = goodJob(id, bench);
    job.options.tracePath = "/nonexistent/vsv-store-test.trc";
    return job;
}

/** runSweep through `--store-dir=dir`; `store` gets the manifest's
 *  store block. */
std::vector<SweepOutcome>
sweepThroughStore(const std::string &dir,
                  const std::vector<SweepJob> &jobs,
                  minijson::Value &store)
{
    ExperimentArgs args;
    args.jobs = 2;
    args.storeDir = dir;
    args.jsonPath = dir + ".manifest.json";
    std::vector<SweepOutcome> outcomes =
        runSweep(args, "store_test", jobs);
    store = minijson::parse(readFile(args.jsonPath))
                .at("manifest")
                .at("store");
    std::remove(args.jsonPath.c_str());
    return outcomes;
}

/** The bytes a manifest records for one run's result. */
std::string
resultBytes(const SweepOutcome &outcome)
{
    std::ostringstream os;
    writeSimulationResultJson(os, outcome.result);
    return os.str();
}

TEST(LzssTest, CompressibleInputRoundTrips)
{
    std::string input;
    for (int i = 0; i < 200; ++i)
        input += "{\"scalars\":{\"sim.ticks\":" + std::to_string(i) +
                 "},";
    const std::optional<std::string> packed =
        detail::lzssCompress(input);
    ASSERT_TRUE(packed.has_value());
    EXPECT_LT(packed->size(), input.size());
    EXPECT_EQ(detail::lzssDecompress(*packed, input.size()), input);
}

TEST(LzssTest, IncompressibleInputIsDeclined)
{
    // High-entropy bytes: every match attempt fails, so the output
    // would be larger than the input and compress declines.
    std::mt19937_64 rng(12345);
    std::string input;
    for (int i = 0; i < 4096; ++i)
        input.push_back(static_cast<char>(rng() & 0xff));
    EXPECT_FALSE(detail::lzssCompress(input).has_value());
    // Tiny inputs are declined outright.
    EXPECT_FALSE(detail::lzssCompress("ab").has_value());
}

TEST(LzssTest, OverlappingMatchesRoundTrip)
{
    // A run of one byte forces offset-1 matches that overlap their
    // own output - the copy-forward case.
    const std::string input(1000, 'x');
    const std::optional<std::string> packed =
        detail::lzssCompress(input);
    ASSERT_TRUE(packed.has_value());
    EXPECT_EQ(detail::lzssDecompress(*packed, input.size()), input);
}

TEST(EnvelopeTest, RoundTripsAndRejectsCorruption)
{
    const std::string payload =
        detail::encodeEntryPayload(sampleEntry("0123456789abcdef"));
    const std::string envelope = detail::encodeEnvelope(payload);
    EXPECT_EQ(detail::decodeEnvelope(envelope), payload);

    // Bad magic.
    std::string bad = envelope;
    bad[0] = 'X';
    EXPECT_THROW(detail::decodeEnvelope(bad), std::runtime_error);

    // Truncation (a torn write) at any point fails loudly.
    EXPECT_THROW(
        detail::decodeEnvelope(envelope.substr(0, 10)),
        std::runtime_error);
    EXPECT_THROW(
        detail::decodeEnvelope(envelope.substr(0, envelope.size() - 1)),
        std::runtime_error);

    // A flipped payload byte trips the checksum (or the codec).
    bad = envelope;
    bad[bad.size() - 1] =
        static_cast<char>(bad[bad.size() - 1] ^ 0x01);
    EXPECT_THROW(detail::decodeEnvelope(bad), std::runtime_error);
}

TEST(EnvelopeTest, PayloadDecoderChecksFingerprintAndShape)
{
    const StoreEntry entry = sampleEntry("0123456789abcdef");
    const std::string payload = detail::encodeEntryPayload(entry);

    const StoreEntry back =
        detail::decodeEntryPayload(payload, entry.fingerprint);
    EXPECT_EQ(back.fingerprint, entry.fingerprint);
    EXPECT_EQ(back.attempts, entry.attempts);
    EXPECT_EQ(back.resultJson, entry.resultJson);
    EXPECT_EQ(back.statsJson, entry.statsJson);
    EXPECT_EQ(back.statsText, entry.statsText);

    // Filed under the wrong fingerprint: a misplaced entry must not
    // masquerade as the queried run.
    EXPECT_THROW(
        detail::decodeEntryPayload(payload, "ffffffffffffffff"),
        std::runtime_error);
    EXPECT_THROW(detail::decodeEntryPayload("not json", "x"),
                 std::runtime_error);
}

TEST(ResultStoreTest, InsertThenLookupReplaysTheExactBytes)
{
    const std::string dir = freshDir("vsv_store_roundtrip");
    ResultStore store(dir);
    const StoreEntry entry = sampleEntry("00aabbccddeeff11");

    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    store.insert(entry);
    store.flush();
    EXPECT_TRUE(std::filesystem::exists(
        store.entryPath(entry.fingerprint)));

    const std::optional<StoreEntry> back =
        store.lookup(entry.fingerprint);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->attempts, entry.attempts);
    EXPECT_EQ(back->resultJson, entry.resultJson);
    EXPECT_EQ(back->statsJson, entry.statsJson);
    EXPECT_EQ(back->statsText, entry.statsText);

    const ResultStoreStats stats = store.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.writeFailures, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, MalformedFingerprintsAreRejected)
{
    EXPECT_TRUE(ResultStore::validFingerprint("0123456789abcdef"));
    EXPECT_FALSE(ResultStore::validFingerprint(""));
    EXPECT_FALSE(ResultStore::validFingerprint("0123456789abcde"));
    EXPECT_FALSE(ResultStore::validFingerprint("0123456789ABCDEF"));
    EXPECT_FALSE(
        ResultStore::validFingerprint("../../../etc/passwd"));

    const std::string dir = freshDir("vsv_store_badfp");
    ResultStore store(dir);
    EXPECT_FALSE(store.lookup("../escape").has_value());
    StoreEntry bad = sampleEntry("not-a-fingerprint");
    store.insert(bad);
    store.flush();
    EXPECT_EQ(store.stats().writeFailures, 1u);
    EXPECT_EQ(store.stats().inserts, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, DuplicateInsertWritesOnce)
{
    const std::string dir = freshDir("vsv_store_dup");
    ResultStore store(dir);
    const StoreEntry entry = sampleEntry("1122334455667788");
    store.insert(entry);
    store.insert(entry);
    store.insert(entry);
    store.flush();
    // Content-addressed: same fingerprint means same bytes, so only
    // the first insert touches the disk.
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_EQ(store.stats().writeFailures, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, CorruptEntryIsQuarantinedAndMissed)
{
    const std::string dir = freshDir("vsv_store_corrupt");
    const StoreEntry entry = sampleEntry("99aabbccddeeff00");
    std::string path;
    {
        ResultStore store(dir);
        store.insert(entry);
        store.flush();
        path = store.entryPath(entry.fingerprint);
    }
    // Flip one payload byte on disk.
    std::string bytes = readFile(path);
    bytes[bytes.size() - 1] =
        static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes;
    }

    ResultStore store(dir);
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    // Quarantined, not deleted: the bad bytes are kept for a
    // post-mortem and are never re-read as an entry.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));

    // The fingerprint is insertable again after quarantine.
    store.insert(entry);
    store.flush();
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_TRUE(store.lookup(entry.fingerprint).has_value());
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, ForgedDeclaredSizeIsQuarantinedWithoutAllocating)
{
    // The envelope's uncompressed-size field is read before the
    // checksum can be checked; a forged 2^40 must be refused as
    // corrupt, not reserved.
    constexpr std::uint64_t forged = std::uint64_t{1} << 40;
    const std::string packed =
        *detail::lzssCompress(std::string(4096, 'x'));
    try {
        detail::lzssDecompress(packed, forged);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("declares"),
                  std::string::npos)
            << e.what();
    }

    const std::string dir = freshDir("vsv_store_forged_size");
    StoreEntry entry = sampleEntry("0123456789abcdef");
    entry.statsText += std::string(4096, '=');  // compressible
    std::string path;
    {
        ResultStore store(dir);
        store.insert(entry);
        store.flush();
        path = store.entryPath(entry.fingerprint);
    }
    std::string bytes = readFile(path);
    ASSERT_EQ(bytes[5], 1) << "sample entry must be LZSS-coded";
    for (int i = 0; i < 8; ++i)  // little-endian payload size field
        bytes[8 + i] = static_cast<char>((forged >> (8 * i)) & 0xff);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes;
    }

    ResultStore store(dir);
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, TornWriteIsQuarantinedAndMissed)
{
    const std::string dir = freshDir("vsv_store_torn");
    const StoreEntry entry = sampleEntry("5566778899aabbcc");
    std::string path;
    {
        ResultStore store(dir);
        store.insert(entry);
        store.flush();
        path = store.entryPath(entry.fingerprint);
    }
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    ResultStore store(dir);
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, ConcurrentProcessesShareOneDirectorySafely)
{
    const std::string dir = freshDir("vsv_store_multiproc");
    // Four forked writers insert the same 8 fingerprints (plus one
    // private each) into one directory concurrently. The rename
    // discipline must leave every entry whole and decodable.
    std::vector<std::string> shared;
    for (int i = 0; i < 8; ++i) {
        std::ostringstream fp;
        fp << std::hex << 0x1000000000000000ULL + i;
        shared.push_back(fp.str());
    }
    std::vector<pid_t> children;
    for (int child = 0; child < 4; ++child) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            {
                ResultStore store(dir);
                for (const std::string &fp : shared)
                    store.insert(sampleEntry(fp));
                std::ostringstream own;
                own << std::hex << 0x2000000000000000ULL + child;
                store.insert(sampleEntry(own.str()));
                store.flush();
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    ResultStore store(dir);
    for (const std::string &fp : shared) {
        const std::optional<StoreEntry> back = store.lookup(fp);
        ASSERT_TRUE(back.has_value()) << fp;
        EXPECT_EQ(back->resultJson, sampleEntry(fp).resultJson);
    }
    EXPECT_EQ(store.stats().corrupt, 0u);
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, SecondSweepServesEveryRunFromTheStore)
{
    const std::string dir = freshDir("vsv_store_sweep");
    std::vector<SweepJob> jobs;
    SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    jobs.push_back({"mcf/base", base});
    SimulationOptions fsm = base;
    fsm.vsv = fsmVsvConfig();
    jobs.push_back({"mcf/fsm", fsm});

    std::vector<SweepOutcome> cold;
    {
        ResultStore store(dir);
        SweepRunner runner(2);
        runner.enableResultStore(store);
        cold = runner.run(jobs);
        store.flush();
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, 2u);
        EXPECT_EQ(store.stats().inserts, 2u);
    }

    ResultStore store(dir);
    SweepRunner runner(2);
    runner.enableResultStore(store);
    const std::vector<SweepOutcome> warm = runner.run(jobs);
    store.flush();
    EXPECT_EQ(store.stats().hits, 2u);
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_EQ(store.stats().inserts, 0u);

    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].status, SweepStatus::Ok);
        EXPECT_EQ(warm[i].id, cold[i].id);
        EXPECT_EQ(warm[i].fingerprint, cold[i].fingerprint);
        EXPECT_EQ(warm[i].attempts, cold[i].attempts);
        EXPECT_EQ(warm[i].scalars, cold[i].scalars);
        EXPECT_EQ(warm[i].statsJson, cold[i].statsJson);
        EXPECT_EQ(warm[i].statsText, cold[i].statsText);
        // The replayed result re-serializes to the recorded bytes -
        // including the original run's host-dependent throughput.
        std::ostringstream a, b;
        writeSimulationResultJson(a, warm[i].result);
        writeSimulationResultJson(b, cold[i].result);
        EXPECT_EQ(a.str(), b.str());
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, FailedRunIsReRunAndTheRestReplays)
{
    const std::string dir = freshDir("vsv_store_failed_run");
    minijson::Value store;

    // Sweep 1: one good run, one faulting run. Only the Ok run is
    // recorded.
    const std::vector<SweepOutcome> first = sweepThroughStore(
        dir, {goodJob("mcf/base", "mcf"), faultingJob("ammp/base", "ammp")},
        store);
    ASSERT_EQ(first[0].status, SweepStatus::Ok);
    ASSERT_EQ(first[1].status, SweepStatus::Error);
    EXPECT_EQ(store.at("misses").num(), 2.0);
    EXPECT_EQ(store.at("inserts").num(), 1.0);
    EXPECT_FALSE(std::filesystem::exists(
        ResultStore(dir).entryPath(first[1].fingerprint)));

    // Sweep 2, fault fixed: the good run replays byte-identically and
    // only the fixed run executes.
    const std::vector<SweepJob> fixed = {goodJob("mcf/base", "mcf"),
                                         goodJob("ammp/base", "ammp")};
    const std::vector<SweepOutcome> second =
        sweepThroughStore(dir, fixed, store);
    EXPECT_EQ(store.at("hits").num(), 1.0);
    EXPECT_EQ(store.at("misses").num(), 1.0);
    EXPECT_EQ(store.at("inserts").num(), 1.0);
    EXPECT_EQ(second[0].status, SweepStatus::Ok);
    EXPECT_EQ(second[0].statsJson, first[0].statsJson);
    EXPECT_EQ(resultBytes(second[0]), resultBytes(first[0]));
    EXPECT_EQ(second[1].status, SweepStatus::Ok);
    EXPECT_EQ(second[1].attempts, 1u);

    // Sweep 3 simulates nothing.
    const std::vector<SweepOutcome> third =
        sweepThroughStore(dir, fixed, store);
    EXPECT_EQ(store.at("hits").num(), 2.0);
    EXPECT_EQ(store.at("misses").num(), 0.0);
    EXPECT_EQ(store.at("inserts").num(), 0.0);
    EXPECT_EQ(resultBytes(third[1]), resultBytes(second[1]));
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, ChangedConfigurationMissesTheStore)
{
    const std::string dir = freshDir("vsv_store_changed_config");
    minijson::Value store;
    const std::vector<SweepOutcome> first =
        sweepThroughStore(dir, {goodJob("mcf/base", "mcf")}, store);

    // Same run id, different measurement window: a different
    // fingerprint, so the run simulates instead of replaying.
    SweepJob changed = goodJob("mcf/base", "mcf");
    changed.options.measureInstructions = 30000;
    const std::vector<SweepOutcome> second =
        sweepThroughStore(dir, {changed}, store);
    EXPECT_EQ(store.at("hits").num(), 0.0);
    EXPECT_EQ(store.at("misses").num(), 1.0);
    EXPECT_EQ(second[0].status, SweepStatus::Ok);
    EXPECT_NE(second[0].fingerprint, first[0].fingerprint);
    EXPECT_NE(second[0].result.instructions, first[0].result.instructions);
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, AdaptersRoundTripAnOutcome)
{
    const SweepOutcome outcome = SweepRunner::runOne(
        {"mcf", makeOptions("mcf", false, 5000, 3000)});
    ASSERT_EQ(outcome.status, SweepStatus::Ok);

    const StoreEntry entry = storeEntryFromOutcome(outcome);
    EXPECT_EQ(entry.fingerprint, outcome.fingerprint);
    EXPECT_EQ(entry.attempts, 1u);

    const SweepOutcome back = outcomeFromStoreEntry("mcf", entry);
    EXPECT_EQ(back.status, SweepStatus::Ok);
    EXPECT_EQ(back.id, "mcf");
    EXPECT_EQ(back.scalars, outcome.scalars);
    EXPECT_EQ(back.statsJson, outcome.statsJson);
    std::ostringstream a, b;
    writeSimulationResultJson(a, back.result);
    writeSimulationResultJson(b, outcome.result);
    EXPECT_EQ(a.str(), b.str());

    // A garbage entry throws instead of replaying nonsense.
    StoreEntry bad = entry;
    bad.resultJson = "not json";
    EXPECT_THROW(outcomeFromStoreEntry("mcf", bad), std::exception);
}

TEST(StoreSweepTest, ManifestRecordsStoreCountersOnlyWhenEnabled)
{
    SweepManifest manifest;
    manifest.tool = "store_test";
    std::ostringstream off;
    writeSweepJson(off, manifest, {});
    EXPECT_EQ(off.str().find("\"store\""), std::string::npos);

    manifest.store.enabled = true;
    manifest.store.hits = 3;
    manifest.store.misses = 1;
    manifest.store.inserts = 1;
    std::ostringstream on;
    writeSweepJson(on, manifest, {});
    EXPECT_NE(on.str().find("\"store\":{\"enabled\":true,\"hits\":3,"
                            "\"misses\":1,\"inserts\":1,\"corrupt\":0,"
                            "\"writeFailures\":0}"),
              std::string::npos)
        << on.str().substr(0, 500);
}

} // namespace
} // namespace store
} // namespace vsv
