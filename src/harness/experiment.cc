#include "experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace vsv
{

ExperimentArgs
parseExperimentArgs(int argc, char **argv,
                    std::uint64_t default_instructions,
                    std::uint64_t default_warmup,
                    const std::vector<std::string> &default_benchmarks)
{
    ExperimentArgs args;
    args.positional = args.config.parseArgs(argc, argv);
    args.instructions =
        args.config.getUInt("instructions", default_instructions);
    args.warmup = args.config.getUInt("warmup", default_warmup);
    // 0 = auto-size the pool (hardware concurrency, clamped); an
    // explicit --jobs=N is taken literally.
    args.jobs =
        static_cast<unsigned>(args.config.getUInt("jobs", 0));
    // Valueless "--no-lockstep" parses as no-lockstep=true.
    const bool no_lockstep = args.config.getBool("no-lockstep", false);
    args.lockstep =
        static_cast<unsigned>(args.config.getUInt("lockstep", 16));
    if (no_lockstep) {
        if (args.config.has("lockstep"))
            fatal("--lockstep conflicts with --no-lockstep");
        args.lockstep = 0;
    }
    args.jsonPath = args.config.getString("json", "");
    args.seed = args.config.getUInt("seed", 0);
    // Valueless "--no-fast-forward" parses as no-fast-forward=true.
    args.fastForward = !args.config.getBool("no-fast-forward", false);
    args.traceOut = args.config.getString("trace-out", "");
    args.traceCategories = args.config.getString("trace-categories", "");
    args.intervalStats = args.config.getUInt("interval-stats", 0);
    args.retries =
        static_cast<unsigned>(args.config.getUInt("retries", 0));
    args.timeoutSeconds = args.config.getDouble("timeout", 0.0);
    args.snapshotCache = !args.config.getBool("no-snapshot-cache", false);
    args.snapshotDir = args.config.getString("snapshot-dir", "");
    if (!args.snapshotDir.empty() && !args.snapshotCache) {
        fatal("--snapshot-dir requires the snapshot cache "
              "(drop --no-snapshot-cache)");
    }
    args.storeDir = args.config.getString("store-dir", "");

    args.cores =
        static_cast<std::uint32_t>(args.config.getUInt("cores", 1));
    if (args.cores < 1 || args.cores > 64)
        fatal("--cores must be in [1, 64]");
    args.railPolicy =
        parseRailPolicy(args.config.getString("rail-policy", "per-core"));
    const std::string mix = args.config.getString("core-benchmarks", "");
    if (!mix.empty()) {
        std::stringstream ms(mix);
        std::string item;
        while (std::getline(ms, item, ',')) {
            if (!item.empty() && !isSpec2kBenchmark(item)) {
                fatal("--core-benchmarks=" + mix +
                      ": unknown benchmark '" + item + "'");
            }
            args.coreBenchmarks.push_back(item);
        }
        // A trailing empty entry ("a,b,") is invisible to getline;
        // pad rather than guess so the size check below still fires
        // for genuinely short lists.
        if (!mix.empty() && mix.back() == ',')
            args.coreBenchmarks.emplace_back();
        if (args.coreBenchmarks.size() != args.cores) {
            fatal("--core-benchmarks names " +
                  std::to_string(args.coreBenchmarks.size()) +
                  " cores but --cores=" + std::to_string(args.cores));
        }
    }
    if (args.config.getBool("list-benchmarks", false)) {
        printBenchmarkList(std::cout);
        std::exit(0);
    }
    // Validate the category spell even when --trace-out is absent so
    // a typo fails fast instead of silently tracing nothing.
    TraceSink::parseCategories(args.traceCategories);

    const std::string raw = args.config.getString("benchmarks", "");
    if (raw.empty()) {
        args.benchmarks = default_benchmarks;
    } else {
        std::stringstream ss(raw);
        std::string item;
        while (std::getline(ss, item, ',')) {
            // Stray commas ("mcf,,art", trailing ",") produce empty
            // items; dropping them silently would hide a malformed
            // list only when the typo happens to be a comma, so skip
            // but still validate what remains.
            if (item.empty())
                continue;
            if (!isSpec2kBenchmark(item)) {
                fatal("--benchmarks=" + raw + ": unknown benchmark '" +
                      item + "' (see spec2kBenchmarks in "
                      "src/workload/spec2k.cc for the valid names)");
            }
            args.benchmarks.push_back(item);
        }
        if (args.benchmarks.empty()) {
            fatal("--benchmarks=" + raw +
                  ": no benchmark names in the list");
        }
    }
    return args;
}

void
printBenchmarkList(std::ostream &os)
{
    TextTable table({"benchmark", "targetIpc", "targetMrBase",
                     "targetMrTk", "tkWarmupInsts"});
    for (const std::string &name : spec2kBenchmarks()) {
        const WorkloadProfile profile = spec2kProfile(name);
        table.addRow({name, TextTable::num(profile.targetIpc),
                      TextTable::num(profile.targetMrBase),
                      TextTable::num(profile.targetMrTk),
                      std::to_string(profile.tkWarmupInstructions)});
    }
    table.print(os);
}

RepeatTiming
summarizeRepeats(std::vector<double> seconds)
{
    VSV_ASSERT(!seconds.empty(), "summarizing zero repeats");
    std::sort(seconds.begin(), seconds.end());
    RepeatTiming timing;
    timing.minSeconds = seconds.front();
    const std::size_t n = seconds.size();
    timing.medianSeconds =
        n % 2 == 1 ? seconds[n / 2]
                   : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
    return timing;
}

namespace
{

/**
 * fatal() unless `path`, the destination of output flag `flag`, opens
 * for writing. Append mode keeps an existing file intact until the
 * sweep rewrites it, and a file the probe created is removed again.
 */
void
checkDestination(const std::string &path, const char *flag)
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app))
        fatal(std::string("cannot open ") + flag + " output file: " + path);
    if (!existed)
        std::filesystem::remove(path, ec);
}

/**
 * The per-job preparation runSweep applies before executing anything:
 * per-run trace paths derived from a shared --trace-out base (each
 * checked for writing), and the --timeout soft deadline.
 */
std::vector<SweepJob>
prepareSweepJobs(const ExperimentArgs &args,
                 const std::vector<SweepJob> &jobs)
{
    std::vector<SweepJob> prepared = jobs;
    for (SweepJob &job : prepared) {
        // A shared --trace-out base would make concurrent runs
        // clobber one file; give each run its own path, from its id.
        if (!args.traceOut.empty() && jobs.size() > 1) {
            job.options.trace.path =
                traceOutPathForRun(args.traceOut, job.id);
        }
        if (!job.options.trace.path.empty())
            checkDestination(job.options.trace.path, "--trace-out");
        if (args.timeoutSeconds > 0.0)
            job.softTimeoutSeconds = args.timeoutSeconds;
    }
    return prepared;
}

} // namespace

std::vector<SweepOutcome>
runSweep(const ExperimentArgs &args, const std::string &tool,
         const std::vector<SweepJob> &jobs)
{
    // Every binary has read its extra keys by now; anything still
    // unqueried is a typo the user should hear about before hours of
    // simulation, not after. The same goes for an unusable --json or
    // per-run --trace-out destination.
    args.config.rejectUnknown(tool);
    if (!args.jsonPath.empty())
        checkDestination(args.jsonPath, "--json");
    const std::vector<SweepJob> prepared = prepareSweepJobs(args, jobs);

    SweepRunner runner(args.jobs, args.retries);
    // Lockstep batching: structurally identical configs share one
    // front-end (default on; --no-lockstep opts out, --lockstep=M
    // caps the batch width). Bit-identical to serial execution, with
    // automatic per-member serial fallback on any batch failure.
    runner.enableLockstep(args.lockstep);

    // Warmup deduplication: on by default; every run whose warmup
    // fingerprint repeats restores a snapshot instead of re-warming
    // (bit-identical results; see DESIGN.md §5f). --snapshot-dir
    // additionally persists the snapshots across sweeps.
    std::unique_ptr<WarmupSnapshotCache> cache;
    if (args.snapshotCache) {
        cache = std::make_unique<WarmupSnapshotCache>(args.snapshotDir);
        runner.enableWarmupSnapshots(*cache);
    }

    // Result store: --store-dir replays previously recorded runs
    // byte-identically and records fresh Ok runs (STORE.md).
    std::unique_ptr<store::ResultStore> resultStore;
    if (args.storeEnabled()) {
        resultStore = std::make_unique<store::ResultStore>(args.storeDir);
        runner.enableResultStore(*resultStore);
    }

    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepOutcome> outcomes = runner.run(prepared);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    if (!args.jsonPath.empty()) {
        SweepManifest manifest;
        manifest.tool = tool;
        manifest.seed = args.seed;
        manifest.threads = runner.threads();
        manifest.wallSeconds = wall_seconds;
        if (cache)
            manifest.snapshotCache = cache->stats();
        manifest.lockstep = runner.lockstepStats();
        if (resultStore) {
            // Drain queued inserts so the published counters are
            // final and a process exiting right after the export
            // leaves every entry durable.
            resultStore->flush();
            manifest.store = resultStore->stats();
        }
        manifest.config = args.config.items();

        std::ofstream os(args.jsonPath);
        if (!os)
            fatal("cannot open --json output file: " + args.jsonPath);
        writeSweepJson(os, manifest, outcomes);
        inform("wrote " + std::to_string(outcomes.size()) +
               " runs to " + args.jsonPath);
    }
    return outcomes;
}

std::size_t
reportSweepFailures(const std::vector<SweepOutcome> &outcomes)
{
    std::size_t failures = 0;
    for (const SweepOutcome &outcome : outcomes) {
        if (outcome.ok())
            continue;
        ++failures;
        warn("run " + outcome.id + " " +
             std::string(sweepStatusName(outcome.status)) + " after " +
             std::to_string(outcome.attempts) + " attempt" +
             (outcome.attempts == 1 ? "" : "s") + ": " + outcome.error);
    }
    return failures;
}

SimulationOptions
makeOptions(const std::string &benchmark, bool timekeeping,
            std::uint64_t instructions, std::uint64_t warmup)
{
    SimulationOptions options;
    options.profile = spec2kProfile(benchmark);
    options.timekeeping = timekeeping;
    if (instructions != 0)
        options.measureInstructions = instructions;
    if (warmup != 0) {
        options.warmupInstructions = warmup;
    } else if (timekeeping) {
        // Time-Keeping learns a region's correlations one footprint
        // pass before they can fire; the profile knows how long ~1.5
        // passes take.
        options.warmupInstructions =
            options.profile.tkWarmupInstructions;
    }
    options.vsv.enabled = false;
    return options;
}

SimulationOptions
makeOptions(const ExperimentArgs &args, const std::string &benchmark,
            bool timekeeping)
{
    SimulationOptions options =
        makeOptions(benchmark, timekeeping, args.instructions,
                    args.warmup);
    options.fastForward = args.fastForward;
    options.cores = args.cores;
    options.railPolicy = args.railPolicy;
    options.coreBenchmarks = args.coreBenchmarks;
    options.trace.path = args.traceOut;
    options.trace.categories =
        TraceSink::parseCategories(args.traceCategories);
    options.trace.intervalTicks = args.intervalStats;
    return options;
}

std::string
traceOutPathForRun(const std::string &base, const std::string &run_id)
{
    std::string id = run_id;
    for (char &c : id) {
        if (c == '/')
            c = '-';
    }
    const std::size_t dot = base.rfind('.');
    const std::size_t slash = base.rfind('/');
    // A dot counts as an extension separator only inside the final
    // path component and not as its first character: ".json" and
    // "dir/.hidden" are dotfile names, not empty stems.
    const bool has_ext =
        dot != std::string::npos && dot != 0 &&
        (slash == std::string::npos ||
         (dot > slash && dot != slash + 1));
    if (!has_ext)
        return base + "." + id;
    return base.substr(0, dot) + "." + id + base.substr(dot);
}

VsvConfig
fsmVsvConfig()
{
    VsvConfig config;
    config.enabled = true;
    config.down = {3, 10};
    config.upPolicy = UpPolicy::Fsm;
    config.up = {3, 10};
    return config;
}

VsvConfig
noFsmVsvConfig()
{
    VsvConfig config;
    config.enabled = true;
    config.down = {0, 10};           // no down-FSM: drop on detection
    config.upPolicy = UpPolicy::FirstR;  // rise on every return
    return config;
}

VsvComparison
makeComparison(const SimulationResult &base, const SimulationResult &vsv)
{
    // Commit-width overshoot can make the two runs differ by a few
    // instructions; compare per-instruction execution time.
    VSV_ASSERT(base.instructions > 0 && vsv.instructions > 0,
               "comparing empty runs");
    VsvComparison cmp;
    cmp.base = base;
    cmp.vsv = vsv;
    const double base_tpi = static_cast<double>(base.ticks) /
                            static_cast<double>(base.instructions);
    const double vsv_tpi = static_cast<double>(vsv.ticks) /
                           static_cast<double>(vsv.instructions);
    cmp.perfDegradationPct = 100.0 * (vsv_tpi - base_tpi) / base_tpi;
    cmp.powerSavingsPct =
        100.0 * (base.avgPowerW - vsv.avgPowerW) / base.avgPowerW;
    return cmp;
}

VsvComparison
compareVsv(const SimulationOptions &base_options,
           const VsvConfig &vsv_config)
{
    SimulationOptions base_opts = base_options;
    base_opts.vsv.enabled = false;
    Simulator base_sim(base_opts);
    const SimulationResult base = base_sim.run();

    SimulationOptions vsv_opts = base_options;
    vsv_opts.vsv = vsv_config;
    vsv_opts.vsv.enabled = true;
    Simulator vsv_sim(vsv_opts);
    const SimulationResult vsv = vsv_sim.run();

    return makeComparison(base, vsv);
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    VSV_ASSERT(cells.size() == headers.size(),
               "table row width mismatch");
    rows.push_back(std::move(cells));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            // Left-justify the first column (names), right-justify
            // numeric columns.
            if (c == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[c])) << cells[c];
        }
        os << '\n';
    };

    print_row(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows)
        print_row(row);
}

} // namespace vsv
