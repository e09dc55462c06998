/**
 * @file
 * Warmup-snapshot-cache throughput baseline: for each benchmark, a
 * five-configuration VSV grid (baseline plus FSM down-thresholds
 * 1/3/5/7, with the Time-Keeping prefetcher and its long trained
 * warmup) that shares a single warmup fingerprint, swept cold (every
 * run warms up from scratch) and then cached (the first run warms up,
 * publishes a snapshot, and the other four restore). Prints a
 * comparison table and writes BENCH_snapshot.json (wall seconds per
 * sweep, per-benchmark and end-to-end speedups, cache counters).
 *
 * The exit status is nonzero if any cold/cached run pair disagrees on
 * the simulated statistics - snapshot restore must be invisible in
 * every number except wall time - or if the grid unexpectedly spans
 * more than one warmup fingerprint per benchmark.
 *
 * Flags: --instructions=N --warmup=N --benchmarks=a,b,c --seed=S
 *        --out=path (default BENCH_snapshot.json)
 *        --repeat=N (time each sweep N times; tables and speedups use
 *        the minimum wall time, the JSON also records the median;
 *        identical checks come from single runs - repeats are
 *        bit-identical by the determinism contract)
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"

using namespace vsv;

namespace
{

struct BenchResult
{
    std::string benchmark;
    std::vector<SweepOutcome> cold;
    std::vector<SweepOutcome> cached;
    double coldSeconds = 0.0;
    double cachedSeconds = 0.0;
    double medianColdSeconds = 0.0;
    double medianCachedSeconds = 0.0;
    SnapshotCacheStats cacheStats;
    bool identical = false;
    double speedup = 0.0;
};

/**
 * The five-run grid: baseline plus FSM down-thresholds 1/3/5/7, all
 * sharing one warmup (the VSV policy never runs during warmup). Runs
 * with Time-Keeping on: its multi-million-instruction warmups
 * (WorkloadProfile::tkWarmupInstructions) are the expensive ones, so
 * the TK threshold grid is where warmup deduplication pays the most -
 * and where splitting one grid across processes would warm it twice.
 */
std::vector<SweepJob>
gridFor(const ExperimentArgs &args, const std::string &bench)
{
    std::vector<SweepJob> jobs;
    SimulationOptions base = makeOptions(args, bench, true);
    applyRunSeed(base, args.seed);
    jobs.push_back({bench + "/base", base});
    for (const unsigned threshold : {1u, 3u, 5u, 7u}) {
        SimulationOptions options = base;
        options.vsv = fsmVsvConfig();
        options.vsv.down.threshold = threshold;
        jobs.push_back(
            {bench + "/fsm-d" + std::to_string(threshold), options});
    }
    return jobs;
}

/** Run the grid sequentially; null cache = cold sweep. */
std::vector<SweepOutcome>
sweep(const std::vector<SweepJob> &jobs, WarmupSnapshotCache *cache,
      double &wall_seconds)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<SweepOutcome> outcomes;
    outcomes.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        outcomes.push_back(SweepRunner::runOne(job, cache));
    wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return outcomes;
}

bool
sameStats(const std::vector<SweepOutcome> &a,
          const std::vector<SweepOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].scalars != b[i].scalars ||
            a[i].statsJson != b[i].statsJson ||
            a[i].result.ticks != b[i].result.ticks ||
            a[i].result.energyPj != b[i].result.energyPj) {
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // warmup default 0 = the simulator's stock 300k-instruction
    // functional warmup, the very work the cache amortizes.
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 100000, 0, {"mcf", "ammp", "art"});
    const std::string out_path =
        args.config.getString("out", "BENCH_snapshot.json");
    const unsigned repeat = static_cast<unsigned>(
        std::max<std::uint64_t>(1, args.config.getUInt("repeat", 1)));
    args.config.rejectUnknown("perf_snapshot");

    std::vector<BenchResult> results;
    double wall_cold = 0.0;
    double wall_cached = 0.0;
    bool all_identical = true;

    for (const auto &bench : args.benchmarks) {
        const std::vector<SweepJob> jobs = gridFor(args, bench);

        // The whole point is one warmup for the grid; if a config
        // change ever splits the fingerprints, fail loudly rather
        // than benchmark the wrong thing.
        const std::string fp = warmupFingerprint(jobs[0].options);
        for (const SweepJob &job : jobs) {
            if (warmupFingerprint(job.options) != fp) {
                warn(job.id + ": unexpected warmup fingerprint split");
                all_identical = false;
            }
        }

        BenchResult r;
        r.benchmark = bench;

        // Cold: every run warms up from scratch.
        std::vector<double> cold_walls;
        r.coldSeconds = 0.0;
        for (unsigned i = 0; i < repeat; ++i) {
            double wall = 0.0;
            auto outcomes = sweep(jobs, nullptr, wall);
            cold_walls.push_back(wall);
            if (i == 0 || wall < r.coldSeconds) {
                r.coldSeconds = wall;
                r.cold = std::move(outcomes);
            }
        }

        // Cached: a fresh cache per repeat, so every timing covers
        // exactly one warmup plus four restores.
        std::vector<double> cached_walls;
        r.cachedSeconds = 0.0;
        for (unsigned i = 0; i < repeat; ++i) {
            WarmupSnapshotCache cache;
            double wall = 0.0;
            auto outcomes = sweep(jobs, &cache, wall);
            cached_walls.push_back(wall);
            if (i == 0 || wall < r.cachedSeconds) {
                r.cachedSeconds = wall;
                r.cached = std::move(outcomes);
                r.cacheStats = cache.stats();
            }
        }

        r.medianColdSeconds =
            summarizeRepeats(cold_walls).medianSeconds;
        r.medianCachedSeconds =
            summarizeRepeats(cached_walls).medianSeconds;

        // The optimization contract: same stats, bit for bit.
        r.identical = sameStats(r.cold, r.cached);
        if (!r.identical) {
            warn(bench + ": snapshot restore changed simulated results");
            all_identical = false;
        }
        if (r.cacheStats.misses != 1 ||
            r.cacheStats.hits + 1 != jobs.size()) {
            warn(bench + ": expected 1 warmup + " +
                 std::to_string(jobs.size() - 1) + " restores, got " +
                 std::to_string(r.cacheStats.misses) + " + " +
                 std::to_string(r.cacheStats.hits));
            all_identical = false;
        }

        r.speedup = r.cachedSeconds > 0.0
                        ? r.coldSeconds / r.cachedSeconds
                        : 0.0;
        wall_cold += r.coldSeconds;
        wall_cached += r.cachedSeconds;
        results.push_back(std::move(r));
    }

    const double overall =
        wall_cached > 0.0 ? wall_cold / wall_cached : 0.0;

    TextTable table({"benchmark", "cold s", "cached s", "warmups",
                     "restores", "speedup"});
    for (const auto &r : results) {
        table.addRow({r.benchmark, TextTable::num(r.coldSeconds),
                      TextTable::num(r.cachedSeconds),
                      std::to_string(r.cacheStats.misses),
                      std::to_string(r.cacheStats.hits),
                      TextTable::num(r.speedup, 2)});
    }
    table.print(std::cout);
    std::cout << "end-to-end speedup: " << TextTable::num(overall, 2)
              << "x (" << TextTable::num(wall_cold, 2) << "s -> "
              << TextTable::num(wall_cached, 2) << "s)\n";

    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open --out file: " + out_path);
    os << std::setprecision(6);
    os << "{\n"
       << "  \"tool\": \"perf_snapshot\",\n"
       << "  \"instructions\": " << args.instructions << ",\n"
       << "  \"warmup\": " << args.warmup << ",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"runsPerBenchmark\": 5,\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        os << "    {\"id\": \"" << r.benchmark << "\", \"cold\": "
           << "{\"wallSeconds\": " << r.coldSeconds
           << ", \"medianWallSeconds\": " << r.medianColdSeconds
           << "}, \"cached\": {\"wallSeconds\": " << r.cachedSeconds
           << ", \"medianWallSeconds\": " << r.medianCachedSeconds
           << ", \"warmups\": " << r.cacheStats.misses
           << ", \"restores\": " << r.cacheStats.hits
           << "}, \"speedup\": " << r.speedup << ", \"identical\": "
           << (r.identical ? "true" : "false") << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"overall\": {\"wallSecondsCold\": " << wall_cold
       << ", \"wallSecondsCached\": " << wall_cached
       << ", \"speedup\": " << overall << ", \"allIdentical\": "
       << (all_identical ? "true" : "false") << "}\n"
       << "}\n";
    inform("wrote " + out_path);

    return all_identical ? 0 : 1;
}
