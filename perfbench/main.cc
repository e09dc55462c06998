/**
 * @file
 * The repository benchmark (README.md in this directory): times the
 * paper's own sweep grids end to end through runSweep, checks every
 * run's simulated output against recorded digests, and with
 * --trace=1 runs a second, traced pass for per-layer figures.
 *
 * Usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *                  --workdir=DIR --digests=FILE [--trace-out=FILE]
 *                  [--smoke] [--corrupt-digest] [--record-digests]
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit code is 1 when any run failed or mismatched.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/minijson.hh"
#include "stats/stats.hh"
#include "traced_pass.hh"
#include "workloads.hh"

using namespace vsv;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Set-up samples taken before each pass and after the last. */
constexpr std::size_t kSetupSamplesPerBatch = 17;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a 64 as 16 hex digits. */
std::string
fnv1a64Hex(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/**
 * A run's simulated output: its result block without the host-time
 * `throughput` block, then its stats document. "" for a failed run.
 */
std::string
runDigest(const SweepOutcome &outcome)
{
    if (!outcome.ok())
        return "";
    std::ostringstream os;
    writeSimulationResultJson(os, outcome.result);
    std::string result = os.str();
    const std::size_t cut = result.find(",\"throughput\":");
    if (cut == std::string::npos)
        fatal("result JSON has no throughput block");
    result.resize(cut);
    return fnv1a64Hex(result + "}\n" + outcome.statsJson);
}

using Pass = std::vector<std::vector<SweepOutcome>>;

/** Run key -> digest. */
using DigestTable = std::map<std::string, std::string>;

/** What the digest check needs of one run. */
struct RunRecord
{
    std::string key;          ///< "<step>/<run id>"
    std::string fingerprint;  ///< configFingerprint of the run
    std::string digest;       ///< runDigest; "" when the run failed
};

std::vector<RunRecord>
runRecords(const Pass &pass)
{
    std::vector<RunRecord> records;
    for (std::size_t s = 0; s < pass.size(); ++s) {
        for (const SweepOutcome &o : pass[s]) {
            const std::string key = std::to_string(s) + "/" + o.id;
            if (!o.ok()) {
                warn("run " + key + " " +
                     std::string(sweepStatusName(o.status)) + ": " +
                     o.error);
            }
            records.push_back({key, o.fingerprint, runDigest(o)});
        }
    }
    return records;
}

/**
 * Counts runs against the reference digests. With recorded digests
 * (seed 0, paper window) every run must match its recording; without,
 * the first pass checked becomes the reference. Either way, runs of
 * one pass that share a configuration fingerprint (a store replay and
 * its simulated twin) must share a digest.
 */
class DigestChecker
{
  public:
    DigestChecker(DigestTable recorded, bool corrupt)
        : reference_(std::move(recorded)),
          recorded_(!reference_.empty()), corrupt_(corrupt)
    {
    }

    void
    check(const std::vector<RunRecord> &runs)
    {
        if (reference_.empty()) {
            for (const RunRecord &r : runs)
                reference_[r.key] = r.digest;
        }
        if (corrupt_ && !reference_.empty()) {
            // Deliberately wrong expectation: proves a mismatch is
            // counted (the smoke test's failure-path check).
            reference_.begin()->second = "corrupted";
            corrupt_ = false;
        }
        std::map<std::string, std::string> twins;
        for (const RunRecord &r : runs) {
            ++attempted_;
            std::string why;
            const auto ref = reference_.find(r.key);
            if (r.digest.empty())
                why = "did not complete";
            else if (ref == reference_.end())
                why = "no recorded digest";
            else if (ref->second != r.digest)
                why = "digest " + r.digest + " != " +
                      (recorded_ ? "recorded " : "reference ") +
                      ref->second;
            else if (const auto twin = twins.emplace(r.fingerprint, r.digest);
                     !twin.second && twin.first->second != r.digest)
                why = "differs from a run with the same fingerprint";
            if (!why.empty()) {
                ++failed_;
                warn("run " + r.key + " failed: " + why);
            }
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    DigestTable reference_;
    bool recorded_;
    bool corrupt_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The digest file: workload -> run key -> digest. */
std::map<std::string, DigestTable>
readDigestFile(const std::string &path)
{
    std::map<std::string, DigestTable> out;
    std::ifstream is(path);
    if (!is)
        return out;
    std::ostringstream text;
    text << is.rdbuf();
    const minijson::Value doc = minijson::parse(text.str());
    for (const auto &[workload, runs] : doc.object()) {
        for (const auto &[key, digest] : runs.object())
            out[workload][key] = digest.str();
    }
    return out;
}

/** Replace one workload's digests; one run per line, for review. */
void
recordDigests(const std::string &path, const std::string &workload,
              const std::vector<RunRecord> &runs)
{
    std::map<std::string, DigestTable> all = readDigestFile(path);
    DigestTable &table = all[workload];
    table.clear();
    for (const RunRecord &r : runs)
        table[r.key] = r.digest;
    std::ofstream os(path);
    const char *sep = "";
    os << '{';
    for (const auto &[name, digests] : all) {
        os << sep << "\n  \"" << jsonEscape(name) << "\": {";
        const char *inner = "";
        for (const auto &[key, digest] : digests) {
            os << inner << "\n    \"" << jsonEscape(key) << "\": \""
               << digest << '"';
            inner = ",";
        }
        os << "\n  }";
        sep = ",";
    }
    os << "\n}\n";
    if (!os)
        fatal("cannot write digest file " + path);
    inform("recorded " + std::to_string(runs.size()) + " " + workload +
           " digests in " + path);
}

/** Every step through runSweep, as the CLI binaries run them. */
double
timedPass(const Workload &workload, Pass &pass)
{
    pass.clear();
    const Clock::time_point start = Clock::now();
    for (const Step &step : workload.steps)
        pass.push_back(runSweep(step.args, step.tool, step.jobs));
    return secondsSince(start);
}

struct PassResult
{
    double wallSeconds = 0.0;
    double peakRssMib = 0.0;
    std::vector<RunRecord> runs;
};

/**
 * One timed pass in a forked child, so that every pass starts from a
 * fresh heap, as a CLI invocation does, and its peak RSS is its own.
 * The child sends back its wall time, its peak RSS and one line per
 * run. The caller must have no other threads running.
 */
PassResult
forkedPass(const Workload &workload)
{
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork() failed");
    if (pid == 0) {
        ::close(fds[0]);
        Pass pass;
        const double wall = timedPass(workload, pass);
        struct rusage usage = {};
        ::getrusage(RUSAGE_SELF, &usage);
        std::ostringstream os;
        os << jsonNumber(wall) << ' '
           << jsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0)
           << '\n';
        for (const RunRecord &r : runRecords(pass))
            os << r.key << '\t' << r.fingerprint << '\t' << r.digest << '\n';
        const std::string bytes = os.str();
        for (std::size_t done = 0; done < bytes.size();) {
            const ssize_t n =
                ::write(fds[1], bytes.data() + done, bytes.size() - done);
            if (n <= 0)
                ::_exit(1);
            done += static_cast<std::size_t>(n);
        }
        ::_exit(0);
    }

    ::close(fds[1]);
    std::string bytes;
    char buf[65536];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0 && errno != EINTR)
            fatal("reading the timed pass failed");
        if (n > 0)
            bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        fatal("the timed pass process failed");

    PassResult result;
    std::istringstream is(bytes);
    is >> result.wallSeconds >> result.peakRssMib;
    is.ignore(1);
    for (RunRecord r; std::getline(is, r.key, '\t') &&
                      std::getline(is, r.fingerprint, '\t') &&
                      std::getline(is, r.digest);)
        result.runs.push_back(r);
    return result;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    const std::string name = config.getString("workload", "");
    const std::uint64_t seed = config.getUInt("seed", 0);
    const double seconds = config.getDouble("seconds", 10.0);
    const bool trace = config.getUInt("trace", 0) != 0;
    const std::string workdir = config.getString("workdir", "");
    const std::string digestPath = config.getString("digests", "");
    const std::string tracePath = config.getString("trace-out", "");
    const bool smoke = config.getBool("smoke", false);
    const bool corrupt = config.getBool("corrupt-digest", false);
    const bool record = config.getBool("record-digests", false);
    config.rejectUnknown("perfbench");
    if (workdir.empty() || digestPath.empty())
        fatal("--workdir and --digests are required");

    // The smoke window is tiny; digests exist only for the paper's
    // window at seed 0, so the smoke runs check self-consistency.
    Window window;
    if (smoke)
        window = {3000, 1000, 2000};
    const bool useRecorded = seed == 0 && !smoke && !record;
    if (record && (seed != 0 || smoke))
        fatal("--record-digests needs seed 0 and the paper window");
    DigestTable recorded;
    if (useRecorded) {
        recorded = readDigestFile(digestPath)[name];
        if (recorded.empty())
            fatal("no recorded " + name + " digests in " + digestPath);
    }
    DigestChecker checker(recorded, corrupt);

    int dirs = 0;
    const auto newDir = [&]() {
        return workdir + "/" + std::to_string(dirs++);
    };

    std::vector<Metric> metrics;
    if (!trace) {
        // Set-up takes well under a millisecond, and a short timing is
        // at the mercy of whatever else the host runs at that moment:
        // sample it before every pass and after the last, and report
        // the median of all samples.
        std::vector<double> setupSeconds;
        const auto sampleSetup = [&]() {
            for (std::size_t i = 0; i < kSetupSamplesPerBatch; ++i) {
                const std::string dir = newDir();
                const Clock::time_point start = Clock::now();
                const Workload w = setupWorkload(name, seed, window, dir);
                setupSeconds.push_back(secondsSince(start));
                std::filesystem::remove_all(dir);
            }
        };

        // As many whole passes as fit in --seconds, rounded to the
        // nearest pass, so runs on one host repeat the same count.
        std::vector<double> walls, peaks;
        const Clock::time_point start = Clock::now();
        while (walls.empty() ||
               secondsSince(start) * (1.0 + 0.5 / walls.size()) <
                   seconds) {
            sampleSetup();
            const std::string dir = newDir();
            const Workload w = setupWorkload(name, seed, window, dir);
            const PassResult result = forkedPass(w);
            walls.push_back(result.wallSeconds);
            peaks.push_back(result.peakRssMib);
            inform(name + " pass " + std::to_string(walls.size()) + ": " +
                   std::to_string(walls.back()) + " s, " +
                   std::to_string(peaks.back()) + " MiB");
            if (record && walls.size() == 1)
                recordDigests(digestPath, name, result.runs);
            checker.check(result.runs);
            std::filesystem::remove_all(dir);
        }
        sampleSetup();
        metrics = {
            {"wall_s", median(walls), "s"},
            {"setup_s", median(setupSeconds), "s"},
            {"peak_rss_mib", median(peaks), "MiB"},
        };
        inform(name + ": " + std::to_string(walls.size()) +
               " timed passes");
    } else {
        // One untraced pass (the overhead baseline and the
        // digest reference), then the traced pass over fresh
        // directories.
        const std::string dir = newDir();
        const Workload w = setupWorkload(name, seed, window, dir);
        Pass pass;
        const double untraced = timedPass(w, pass);
        checker.check(runRecords(pass));
        const Accuracy accuracy = computeAccuracy(w, pass.front());
        std::filesystem::remove_all(dir);
        const std::string tdir = newDir();
        const Workload tw = setupWorkload(name, seed, window, tdir);
        TracedPass traced = runTracedPass(tw, tracePath);
        checker.check(runRecords(traced.outcomes));
        std::filesystem::remove_all(tdir);
        metrics = std::move(traced.metrics);
        metrics.push_back({"trace.overhead_s",
                           traced.wallSeconds - untraced, "s"});
        // The model's error is fixed per seed (the digests pin it at
        // seed 0) but moves from seed to seed by more than a bound
        // could absorb, so it is reported here, unbounded.
        metrics.push_back({"ipc_err_pct", accuracy.ipcErrPct, "%"});
        metrics.push_back({"save_err_pp", accuracy.saveErrPp, "pp"});
        metrics.push_back({"deg_err_pp", accuracy.degErrPp, "pp"});
        metrics.push_back(
            {"failed_frac",
             static_cast<double>(checker.failed()) /
                 static_cast<double>(checker.attempted()),
             "ratio"});
    }

    const bool correct = checker.failed() == 0;
    printResult(correct, checker.attempted(), checker.failed(), metrics);
    return correct ? 0 : 1;
}
