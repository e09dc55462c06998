/**
 * @file
 * Functional-warmup throughput: for each Time-Keeping profile, time
 * Simulator::warmup() over the profile's full TK warmup
 * (WorkloadProfile::tkWarmupInstructions) and digest the post-warmup
 * snapshot bytes. Prints a table and writes BENCH_warmup.json.
 *
 * The snapshot digest covers every warmup-mutable component (caches,
 * predictor, Time-Keeping frames and tables, workload RNG state and
 * cursors), so two builds with equal digests left identical state
 * behind. --compare=FILE reads a BENCH_warmup.json written by another
 * build (e.g. the parent commit, built in a scratch checkout) and
 * marks each profile `identical` when the digests match; the file's
 * throughput becomes the `baseline` and each profile gets a speedup.
 *
 * The exit status is nonzero if any repeat's digest differs from the
 * first or, with --compare, from the baseline's.
 *
 * Flags: --benchmarks=a,b,c (default mcf,ammp,art,swim,applu)
 *        --warmup=N (0 = each profile's TK warmup) --seed=S
 *        --repeat=N (kinst/s from the median of N timed warmups)
 *        --compare=FILE --out=path (default BENCH_warmup.json)
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv1a.hh"
#include "common/logging.hh"
#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"

using namespace vsv;

namespace
{

struct Baseline
{
    double kinstPerSec = 0.0;
    std::string digest;
};

struct ProfileResult
{
    std::string benchmark;
    std::uint64_t warmupInstructions = 0;
    double medianSeconds = 0.0;
    double kinstPerSec = 0.0;
    std::uint64_t snapshotBytes = 0;
    std::string digest;
    bool repeatsAgree = true;
    bool hasBaseline = false;
    Baseline baseline;
    bool identical = false;
};

/** One timed warmup; returns its host seconds and snapshot bytes. */
double
timedWarmup(const SimulationOptions &options, std::string &snapshot)
{
    Simulator sim(options);
    const auto start = std::chrono::steady_clock::now();
    sim.warmup();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::ostringstream os;
    sim.snapshotTo(os, warmupFingerprint(options));
    snapshot = os.str();
    return seconds;
}

/** id -> baseline, from a BENCH_warmup.json written by another build. */
std::vector<std::pair<std::string, Baseline>>
readBaseline(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read --compare file: " + path);
    std::stringstream text;
    text << is.rdbuf();
    std::vector<std::pair<std::string, Baseline>> out;
    try {
        const minijson::Value doc = minijson::parse(text.str());
        for (const minijson::Value &run : doc.at("runs").array()) {
            Baseline b;
            b.kinstPerSec = run.at("kinstPerSec").num();
            b.digest = run.at("snapshotDigest").str();
            out.emplace_back(run.at("id").str(), b);
        }
    } catch (const std::exception &e) {
        fatal("malformed --compare file " + path + ": " + e.what());
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 0, 0, {"mcf", "ammp", "art", "swim", "applu"});
    const std::string out_path =
        args.config.getString("out", "BENCH_warmup.json");
    const std::string compare_path = args.config.getString("compare", "");
    const unsigned repeat = static_cast<unsigned>(
        std::max<std::uint64_t>(1, args.config.getUInt("repeat", 3)));
    args.config.rejectUnknown("perf_warmup");

    const auto baselines = compare_path.empty()
                               ? std::vector<std::pair<std::string,
                                                       Baseline>>{}
                               : readBaseline(compare_path);

    std::vector<ProfileResult> results;
    double total_insts = 0.0;
    double total_seconds = 0.0;
    double total_baseline_seconds = 0.0;
    bool all_identical = true;

    for (const std::string &bench : args.benchmarks) {
        SimulationOptions options = makeOptions(args, bench, true);
        applyRunSeed(options, args.seed);

        ProfileResult r;
        r.benchmark = bench;
        r.warmupInstructions = options.warmupInstructions;
        std::vector<double> seconds;
        for (unsigned i = 0; i < repeat; ++i) {
            std::string snapshot;
            seconds.push_back(timedWarmup(options, snapshot));
            const std::string digest = fnv1a64Hex(snapshot);
            if (i == 0) {
                r.digest = digest;
                r.snapshotBytes = snapshot.size();
            } else if (digest != r.digest) {
                r.repeatsAgree = false;
            }
        }
        r.medianSeconds = summarizeRepeats(seconds).medianSeconds;
        const double insts = static_cast<double>(r.warmupInstructions);
        r.kinstPerSec =
            r.medianSeconds > 0.0 ? insts / r.medianSeconds / 1e3 : 0.0;

        r.identical = r.repeatsAgree;
        if (!compare_path.empty()) {
            const auto it = std::find_if(
                baselines.begin(), baselines.end(),
                [&](const auto &b) { return b.first == bench; });
            r.hasBaseline = it != baselines.end();
            if (r.hasBaseline)
                r.baseline = it->second;
            r.identical = r.identical && r.hasBaseline &&
                          r.baseline.digest == r.digest;
            if (r.hasBaseline && r.baseline.kinstPerSec > 0.0)
                total_baseline_seconds +=
                    insts / (r.baseline.kinstPerSec * 1e3);
        }
        if (!r.identical) {
            warn(bench + ": post-warmup snapshot differs (" +
                 (r.repeatsAgree ? "from the baseline" : "across repeats") +
                 ")");
            all_identical = false;
        }
        total_insts += insts;
        total_seconds += r.medianSeconds;
        results.push_back(std::move(r));
    }

    const double overall =
        total_seconds > 0.0 ? total_insts / total_seconds / 1e3 : 0.0;
    const double baseline_overall =
        total_baseline_seconds > 0.0
            ? total_insts / total_baseline_seconds / 1e3
            : 0.0;

    TextTable table({"benchmark", "warmup insts", "median s", "kinst/s",
                     "baseline kinst/s", "speedup", "identical"});
    for (const ProfileResult &r : results) {
        const double speedup = r.hasBaseline && r.baseline.kinstPerSec > 0
                                   ? r.kinstPerSec / r.baseline.kinstPerSec
                                   : 0.0;
        table.addRow({r.benchmark, std::to_string(r.warmupInstructions),
                      TextTable::num(r.medianSeconds),
                      TextTable::num(r.kinstPerSec, 0),
                      r.hasBaseline
                          ? TextTable::num(r.baseline.kinstPerSec, 0)
                          : "-",
                      r.hasBaseline ? TextTable::num(speedup, 2) : "-",
                      r.identical ? "yes" : "NO"});
    }
    table.print(std::cout);

    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open --out file: " + out_path);
    os << std::setprecision(6);
    os << "{\n"
       << "  \"tool\": \"perf_warmup\",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ProfileResult &r = results[i];
        os << "    {\"id\": \"" << r.benchmark
           << "\", \"warmupInstructions\": " << r.warmupInstructions
           << ", \"medianSeconds\": " << r.medianSeconds
           << ", \"kinstPerSec\": " << r.kinstPerSec
           << ", \"snapshotBytes\": " << r.snapshotBytes
           << ", \"snapshotDigest\": \"" << r.digest << "\"";
        if (r.hasBaseline) {
            os << ", \"baseline\": {\"kinstPerSec\": "
               << r.baseline.kinstPerSec << ", \"snapshotDigest\": \""
               << r.baseline.digest << "\"}, \"speedup\": "
               << (r.baseline.kinstPerSec > 0.0
                       ? r.kinstPerSec / r.baseline.kinstPerSec
                       : 0.0);
        }
        os << ", \"identical\": " << (r.identical ? "true" : "false")
           << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"overall\": {\"kinstPerSec\": " << overall;
    if (!compare_path.empty()) {
        os << ", \"baselineKinstPerSec\": " << baseline_overall
           << ", \"speedup\": "
           << (baseline_overall > 0.0 ? overall / baseline_overall : 0.0);
    }
    os << ", \"allIdentical\": " << (all_identical ? "true" : "false")
       << "}\n"
       << "}\n";
    inform("wrote " + out_path);

    return all_identical ? 0 : 1;
}
