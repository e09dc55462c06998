/**
 * @file
 * Tests of the sweep campaign hardening: per-run fault isolation,
 * soft timeouts, the retry policy, configuration fingerprints, the
 * up-front `--json` destination check, the per-run trace path
 * derivation, and `--benchmarks` validation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/minijson.hh"
#include "harness/experiment.hh"

namespace vsv
{
namespace
{

/** A fast, valid job for one benchmark/config cell. */
SweepJob
goodJob(const std::string &id, const char *bench, bool with_vsv)
{
    SimulationOptions options = makeOptions(bench, false, 20000, 5000);
    if (with_vsv)
        options.vsv = fsmVsvConfig();
    return {id, options};
}

/**
 * A job whose simulation cannot even construct: the trace file does
 * not exist, so the TraceReader fatal()s. Under fault isolation that
 * must surface as an Error outcome, not process death.
 */
SweepJob
faultingJob(const std::string &id)
{
    SweepJob job = goodJob(id, "mcf", false);
    job.options.tracePath = "/nonexistent/vsv-sweep-fault-test.trc";
    return job;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream bytes;
    bytes << is.rdbuf();
    return bytes.str();
}

TEST(SweepFaultTest, OneFaultingRunDoesNotPoisonTheOthers)
{
    const std::vector<SweepJob> jobs = {
        goodJob("mcf/base", "mcf", false),
        faultingJob("mcf/broken"),
        goodJob("ammp/base", "ammp", false),
    };
    const std::vector<SweepOutcome> outcomes = SweepRunner(2).run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);

    EXPECT_EQ(outcomes[0].status, SweepStatus::Ok);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_GT(outcomes[0].result.instructions, 0u);
    EXPECT_FALSE(outcomes[0].scalars.empty());

    EXPECT_EQ(outcomes[1].status, SweepStatus::Error);
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_NE(outcomes[1].error.find("vsv-sweep-fault-test"),
              std::string::npos)
        << outcomes[1].error;
    EXPECT_EQ(outcomes[1].attempts, 1u);

    EXPECT_EQ(outcomes[2].status, SweepStatus::Ok);
    EXPECT_GT(outcomes[2].result.instructions, 0u);

    // The healthy runs match an undisturbed campaign bit for bit.
    const SweepOutcome clean =
        SweepRunner::runOne(goodJob("mcf/base", "mcf", false));
    EXPECT_EQ(outcomes[0].statsJson, clean.statsJson);
}

TEST(SweepFaultTest, IsolatedRunReportsStatusInsteadOfThrowing)
{
    const SweepOutcome outcome =
        SweepRunner::runOneIsolated(faultingJob("broken"));
    EXPECT_EQ(outcome.status, SweepStatus::Error);
    EXPECT_FALSE(outcome.error.empty());
    EXPECT_FALSE(outcome.fingerprint.empty());
}

TEST(SweepFaultTest, RetriesReExecuteFailedRunsOnly)
{
    // Deterministic failures fail every attempt; the outcome records
    // how many were made.
    SweepRunner runner(1, 2);
    EXPECT_EQ(runner.retries(), 2u);
    const std::vector<SweepOutcome> outcomes = runner.run(
        {faultingJob("broken"), goodJob("mcf/base", "mcf", false)});
    EXPECT_EQ(outcomes[0].status, SweepStatus::Error);
    EXPECT_EQ(outcomes[0].attempts, 3u);  // 1 try + 2 retries
    EXPECT_EQ(outcomes[1].status, SweepStatus::Ok);
    EXPECT_EQ(outcomes[1].attempts, 1u);
}

TEST(SweepFaultTest, SoftTimeoutSurfacesAsTimeoutStatus)
{
    // An effectively-infinite run with an already-expired deadline
    // stops at the first poll point.
    SweepJob job = goodJob("mcf/slow", "mcf", false);
    job.options.measureInstructions = 50000000;
    job.softTimeoutSeconds = 1e-9;
    const SweepOutcome outcome = SweepRunner::runOneIsolated(job);
    EXPECT_EQ(outcome.status, SweepStatus::Timeout);
    EXPECT_NE(outcome.error.find("abort hook"), std::string::npos)
        << outcome.error;
    EXPECT_FALSE(outcome.ok());
}

TEST(SweepFaultTest, CallerAbortHookStillFires)
{
    SweepJob job = goodJob("mcf/hook", "mcf", false);
    job.options.measureInstructions = 50000000;
    job.options.abortHook = [] { return true; };
    const SweepOutcome outcome = SweepRunner::runOneIsolated(job);
    EXPECT_EQ(outcome.status, SweepStatus::Timeout);
}

TEST(FingerprintTest, DeterministicAndSensitiveToResults)
{
    const SimulationOptions a = makeOptions("mcf", false, 20000, 5000);
    EXPECT_EQ(configFingerprint(a), configFingerprint(a));
    EXPECT_EQ(configFingerprint(a).size(), 16u);

    SimulationOptions vsv = a;
    vsv.vsv = fsmVsvConfig();
    EXPECT_NE(configFingerprint(a), configFingerprint(vsv));

    SimulationOptions longer = a;
    longer.measureInstructions *= 2;
    EXPECT_NE(configFingerprint(a), configFingerprint(longer));

    SimulationOptions other = makeOptions("ammp", false, 20000, 5000);
    EXPECT_NE(configFingerprint(a), configFingerprint(other));

    SimulationOptions twoCores = a;
    twoCores.cores = 2;
    SimulationOptions fourCores = a;
    fourCores.cores = 4;
    EXPECT_NE(configFingerprint(a), configFingerprint(twoCores));
    EXPECT_NE(configFingerprint(twoCores), configFingerprint(fourCores));
}

TEST(FingerprintTest, ObservabilitySettingsDoNotPerturbIt)
{
    // Tracing and fast-forward are proven not to change stats, so a
    // re-run may toggle them and still replay stored runs.
    const SimulationOptions a = makeOptions("mcf", false, 20000, 5000);
    SimulationOptions traced = a;
    traced.trace.path = "trace.json";
    traced.fastForward = !a.fastForward;
    EXPECT_EQ(configFingerprint(a), configFingerprint(traced));
}

TEST(SweepJsonTest, FailedRunsExportStructuredErrorRecords)
{
    const std::vector<SweepOutcome> outcomes = SweepRunner(1).run(
        {goodJob("mcf/base", "mcf", false), faultingJob("broken")});

    SweepManifest manifest;
    manifest.tool = "sweep_fault_test";
    std::ostringstream os;
    writeSweepJson(os, manifest, outcomes);

    // The document must stay valid JSON with per-run status/error
    // fields; the strict parser is the arbiter.
    const minijson::Value doc = minijson::parse(os.str());
    const minijson::Array &runs = doc.at("runs").array();
    ASSERT_EQ(runs.size(), 2u);

    EXPECT_EQ(runs[0].at("status").str(), "ok");
    EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
        runs[0].at("error").v));
    EXPECT_EQ(runs[0].at("attempts").num(), 1.0);
    EXPECT_TRUE(runs[0].at("result").isObject());
    EXPECT_TRUE(runs[0].at("stats").isObject());

    EXPECT_EQ(runs[1].at("status").str(), "error");
    EXPECT_TRUE(runs[1].at("error").isString());
    EXPECT_FALSE(runs[1].at("result").isObject());
    EXPECT_FALSE(runs[1].at("stats").isObject());
    EXPECT_TRUE(runs[1].at("fingerprint").isString());
}

TEST(SweepJsonTest, UnusableJsonPathFailsBeforeAnyRun)
{
    // The executor aborts if it is ever reached: the bad destination
    // must end the process through fatal() before a run executes.
    ExperimentArgs args;
    args.jsonPath = "/nonexistent/vsv-sweep-json-dir/out.json";
    const SweepExecutor mustNotRun =
        [](const std::vector<SweepJob> &) -> std::vector<SweepOutcome> {
        std::abort();
    };
    EXPECT_EXIT(runSweepWith(args, "sweep_fault_test",
                             {goodJob("mcf/base", "mcf", false)},
                             mustNotRun),
                ::testing::ExitedWithCode(1),
                "cannot open --json output file");
}

TEST(SweepJsonTest, DestinationCheckLeavesFilesAloneUntilTheExport)
{
    // An existing manifest keeps its bytes while the grid runs, and a
    // new destination does not appear before the export writes it.
    const std::string existing = tempPath("sweep_json_existing.json");
    {
        std::ofstream os(existing);
        os << "prior manifest";
    }
    const std::string fresh = tempPath("sweep_json_fresh.json");
    std::remove(fresh.c_str());

    for (const std::string &path : {existing, fresh}) {
        ExperimentArgs args;
        args.jsonPath = path;
        bool ran = false;
        const SweepExecutor check =
            [&](const std::vector<SweepJob> &prepared) {
                ran = true;
                EXPECT_EQ(std::filesystem::exists(path),
                          path == existing);
                if (path == existing) {
                    EXPECT_EQ(slurp(path), "prior manifest");
                }
                return std::vector<SweepOutcome>(prepared.size());
            };
        runSweepWith(args, "sweep_fault_test",
                     {goodJob("mcf/base", "mcf", false)}, check);
        EXPECT_TRUE(ran);
        EXPECT_EQ(minijson::parse(slurp(path)).at("runs").array().size(),
                  1u);
        std::remove(path.c_str());
    }
}

TEST(TraceOutPathTest, InsertsRunIdBeforeTheExtension)
{
    EXPECT_EQ(traceOutPathForRun("out.json", "mcf/base"),
              "out.mcf-base.json");
    EXPECT_EQ(traceOutPathForRun("dir/out.json", "mcf/base"),
              "dir/out.mcf-base.json");
}

TEST(TraceOutPathTest, ExtensionLessBaseGetsIdAppended)
{
    EXPECT_EQ(traceOutPathForRun("trace", "mcf/base"),
              "trace.mcf-base");
    // A dot inside a directory component is not an extension.
    EXPECT_EQ(traceOutPathForRun("dir.d/trace", "mcf/base"),
              "dir.d/trace.mcf-base");
}

TEST(TraceOutPathTest, DotfileBasesAreNotTreatedAsExtensions)
{
    // ".json" is a dotfile named json, not an empty stem; the run id
    // is appended, never prepended into a hidden-file rename.
    EXPECT_EQ(traceOutPathForRun(".json", "mcf/base"),
              ".json.mcf-base");
    EXPECT_EQ(traceOutPathForRun("dir/.hidden", "mcf/base"),
              "dir/.hidden.mcf-base");
    // But a dotfile with a real extension still splits at it.
    EXPECT_EQ(traceOutPathForRun(".config.json", "mcf/base"),
              ".config.mcf-base.json");
}

TEST(TraceOutPathTest, RunIdSlashesBecomeDashes)
{
    EXPECT_EQ(traceOutPathForRun("out.json", "a/b/c"),
              "out.a-b-c.json");
}

namespace
{

ExperimentArgs
parseArgv(std::initializer_list<const char *> extra)
{
    std::vector<const char *> argv = {"sweep_fault_test"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return parseExperimentArgs(static_cast<int>(argv.size()),
                               const_cast<char **>(argv.data()), 1000,
                               0, {"gzip"});
}

} // namespace

TEST(BenchmarkListTest, EmptyItemsAreSkipped)
{
    const ExperimentArgs args = parseArgv({"--benchmarks=mcf,,art,"});
    EXPECT_EQ(args.benchmarks,
              (std::vector<std::string>{"mcf", "art"}));
}

TEST(BenchmarkListTest, UnknownNameFailsFastNamingTheFlag)
{
    EXPECT_EXIT(parseArgv({"--benchmarks=mcf,quake3"}),
                ::testing::ExitedWithCode(1),
                "--benchmarks=mcf,quake3.*unknown benchmark 'quake3'");
}

TEST(BenchmarkListTest, AllEmptyListIsFatal)
{
    EXPECT_EXIT(parseArgv({"--benchmarks=,,"}),
                ::testing::ExitedWithCode(1), "no benchmark names");
}

TEST(BenchmarkListTest, HarnessFlagsParse)
{
    const ExperimentArgs args = parseArgv(
        {"--retries=2", "--timeout=1.5", "--store-dir=results"});
    EXPECT_EQ(args.retries, 2u);
    EXPECT_DOUBLE_EQ(args.timeoutSeconds, 1.5);
    EXPECT_TRUE(args.storeEnabled());

    // Neither is a flag: both end in the unknown-flag fatal.
    for (const char *removed : {"--resume=prior.json", "--no-store"}) {
        const ExperimentArgs stale = parseArgv({removed});
        EXPECT_EXIT(stale.config.rejectUnknown("sweep_fault_test"),
                    ::testing::ExitedWithCode(1), "unknown flag")
            << removed;
    }
}

} // namespace
} // namespace vsv
