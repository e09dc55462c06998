#include "traced_pass.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "harness/lockstep.hh"
#include "harness/sweep.hh"
#include "stats/stats.hh"
#include "store/store.hh"

using namespace vsv;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

struct Span
{
    const char *name;
    int parent;  ///< index in the same thread's log; -1 = top level
    double start;
    double end;
};

struct ThreadLog
{
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Span logs of one pass; one log per thread, merged at the end. */
class Tracer
{
  public:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    ThreadLog &
    newLog()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return logs_.emplace_back();
    }

    const std::deque<ThreadLog> &logs() const { return logs_; }

  private:
    const Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    std::deque<ThreadLog> logs_;  ///< deque: stable addresses
};

Tracer *tracer = nullptr;
thread_local ThreadLog *threadLog = nullptr;

/** Gives the calling thread its own span log for its lifetime. */
class ThreadAttachment
{
  public:
    ThreadAttachment() { threadLog = &tracer->newLog(); }
    ~ThreadAttachment() { threadLog = nullptr; }
    ThreadAttachment(const ThreadAttachment &) = delete;
    ThreadAttachment &operator=(const ThreadAttachment &) = delete;
};

/** One span around one call into a layer; nests per thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : log_(*threadLog), index_(static_cast<int>(log_.spans.size()))
    {
        const int parent = log_.open.empty() ? -1 : log_.open.back();
        log_.spans.push_back({name, parent, tracer->now(), 0.0});
        log_.open.push_back(index_);
    }

    ~ScopedSpan()
    {
        log_.spans[index_].end = tracer->now();
        log_.open.pop_back();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    ThreadLog &log_;
    int index_;
};

struct SnapshotCounts
{
    std::atomic<std::uint64_t> encodes{0};
    std::atomic<std::uint64_t> memoryRestores{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> warmups{0};
    std::atomic<std::uint64_t> warmupInstructions{0};
    std::atomic<std::uint64_t> bytes{0};
};

std::unique_ptr<Simulator>
construct(const SimulationOptions &options)
{
    ScopedSpan span("harness.construct");
    return std::make_unique<Simulator>(options);
}

/**
 * WarmupSnapshotCache::acquire's policy, step by step, so warmup,
 * encode, restore and the wait on another worker's warmup each get a
 * span: the first worker to reach a warmup fingerprint probes the
 * snapshot directory, else warms up and publishes the encoded bytes;
 * the others block on them and restore.
 */
class TracedSnapshots
{
  public:
    TracedSnapshots(std::string dir, SnapshotCounts &counts)
        : dir_(std::move(dir)), counts_(counts)
    {
    }

    std::unique_ptr<Simulator>
    acquire(const SimulationOptions &options)
    {
        const std::string fp = warmupFingerprint(options);
        std::promise<Bytes> promise;
        std::shared_future<Bytes> future;
        bool computer = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(fp);
            if (it == entries_.end()) {
                future = promise.get_future().share();
                entries_.emplace(fp, future);
                computer = true;
            } else {
                future = it->second;
            }
        }

        if (!computer) {
            Bytes bytes;
            {
                ScopedSpan span("snapshot.wait");
                bytes = future.get();
            }
            auto sim = construct(options);
            if (!bytes) {
                warmup(*sim, options);
                return sim;
            }
            restore(*sim, *bytes, fp);
            ++counts_.memoryRestores;
            return sim;
        }

        try {
            auto sim = construct(options);
            if (!dir_.empty()) {
                Bytes bytes;
                {
                    ScopedSpan span("snapshot.restore");
                    bytes = loadFromDisk(fp);
                }
                if (bytes) {
                    restore(*sim, *bytes, fp);
                    ++counts_.diskHits;
                    promise.set_value(bytes);
                    return sim;
                }
            }
            warmup(*sim, options);
            Bytes bytes;
            {
                ScopedSpan span("snapshot.encode");
                std::ostringstream os;
                sim->snapshotTo(os, fp);
                bytes = std::make_shared<const std::string>(os.str());
                if (!dir_.empty())
                    saveToDisk(fp, *bytes);
            }
            ++counts_.encodes;
            counts_.bytes += bytes->size();
            promise.set_value(bytes);
            return sim;
        } catch (...) {
            promise.set_value(nullptr);
            throw;
        }
    }

  private:
    using Bytes = std::shared_ptr<const std::string>;

    void
    warmup(Simulator &sim, const SimulationOptions &options)
    {
        {
            ScopedSpan span("harness.warmup");
            sim.warmup();
        }
        ++counts_.warmups;
        counts_.warmupInstructions +=
            options.warmupInstructions * options.cores;
    }

    static void
    restore(Simulator &sim, const std::string &bytes,
            const std::string &fp)
    {
        ScopedSpan span("snapshot.restore");
        std::istringstream is(bytes);
        sim.restoreFrom(is, fp);
    }

    std::string
    path(const std::string &fp) const
    {
        return dir_ + "/" + fp + ".vsvsnap";
    }

    Bytes
    loadFromDisk(const std::string &fp) const
    {
        std::ifstream is(path(fp), std::ios::binary);
        if (!is)
            return nullptr;
        std::ostringstream buffer;
        buffer << is.rdbuf();
        return std::make_shared<const std::string>(buffer.str());
    }

    void
    saveToDisk(const std::string &fp, const std::string &bytes) const
    {
        const std::string tmp =
            path(fp) + ".tmp." + std::to_string(::getpid());
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.close();
        if (!os || std::rename(tmp.c_str(), path(fp).c_str()) != 0)
            fatal("cannot write warmup snapshot " + path(fp));
    }

    std::string dir_;
    SnapshotCounts &counts_;
    std::mutex mutex_;
    std::map<std::string, std::shared_future<Bytes>> entries_;
};

/** SweepRunner::runOneIsolated plus the store insert, with spans. */
SweepOutcome
runJob(const SweepJob &job, TracedSnapshots &snapshots,
       store::ResultStore *resultStore)
{
    ScopedSpan span("harness.job");
    SweepOutcome outcome;
    outcome.id = job.id;
    outcome.attempts = 1;
    outcome.fingerprint = configFingerprint(job.options);
    try {
        ScopedThrowingFatal guard;
        std::unique_ptr<Simulator> sim = snapshots.acquire(job.options);
        {
            ScopedSpan run("harness.run");
            outcome.result = sim->run();
        }
        ScopedSpan dump("stats.dump");
        outcome.scalars = sim->stats().scalarMap();
        std::ostringstream json;
        sim->stats().dumpJson(json);
        outcome.statsJson = json.str();
        std::ostringstream text;
        sim->stats().dump(text);
        outcome.statsText = text.str();
    } catch (const std::exception &e) {
        outcome.status = SweepStatus::Error;
        outcome.error = e.what();
        return outcome;
    }
    outcome.status = SweepStatus::Ok;
    if (resultStore) {
        ScopedSpan insert("store.insert");
        resultStore->insert(storeEntryFromOutcome(outcome));
    }
    return outcome;
}

struct PassTotals
{
    std::uint64_t encodes = 0, restores = 0, diskHits = 0, warmups = 0,
                  warmupInstructions = 0, snapshotBytes = 0;
    std::uint64_t storeHits = 0, storeMisses = 0, storeInserts = 0;
    std::uint64_t batchedRuns = 0, exportBytes = 0;
    double tailSeconds = 0.0;
};

/** One invocation: runSweep's order of calls, traced. */
std::vector<SweepOutcome>
runStep(const Step &step, const std::string &storeDir,
        std::vector<char> &replayed, PassTotals &totals)
{
    const double start = tracer->now();
    std::unique_ptr<store::ResultStore> resultStore;
    if (!storeDir.empty())
        resultStore = std::make_unique<store::ResultStore>(storeDir);

    const std::vector<SweepJob> &jobs = step.jobs;
    std::vector<SweepOutcome> outcomes(jobs.size());
    replayed.assign(jobs.size(), 0);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (resultStore) {
            ScopedSpan span("store.lookup");
            if (std::optional<store::StoreEntry> entry =
                    resultStore->lookup(configFingerprint(jobs[i].options))) {
                outcomes[i] = outcomeFromStoreEntry(jobs[i].id, *entry);
                replayed[i] = 1;
                continue;
            }
        }
        pending.push_back(i);
    }

    LockstepStats lockstep;
    lockstep.enabled = step.args.lockstep >= 2;
    lockstep.maxReplicas = step.args.lockstep;
    SnapshotCounts counts;
    if (!pending.empty()) {
        if (lockstep.enabled) {
            std::vector<SweepJob> pendingJobs;
            for (const std::size_t i : pending)
                pendingJobs.push_back(jobs[i]);
            ScopedSpan span("lockstep.plan");
            planLockstep(pendingJobs, step.args.lockstep, lockstep);
        }

        TracedSnapshots snapshots(step.args.snapshotDir, counts);
        std::atomic<std::size_t> next{0};
        std::mutex idleMutex;
        double firstIdle = std::numeric_limits<double>::infinity();
        auto worker = [&]() {
            ThreadAttachment attach;
            for (;;) {
                const std::size_t t = next.fetch_add(1);
                if (t >= pending.size())
                    break;
                outcomes[pending[t]] = runJob(jobs[pending[t]], snapshots,
                                              resultStore.get());
            }
            std::lock_guard<std::mutex> lock(idleMutex);
            firstIdle = std::min(firstIdle, tracer->now());
        };
        const std::size_t workers =
            std::min<std::size_t>(kThreads, pending.size());
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
        totals.tailSeconds += tracer->now() - firstIdle;
    }

    SweepManifest manifest;
    if (resultStore) {
        ScopedSpan span("store.flush");
        resultStore->flush();
        manifest.store = resultStore->stats();
    }
    {
        ScopedSpan span("export");
        manifest.tool = step.tool;
        manifest.seed = step.args.seed;
        manifest.threads = kThreads;
        manifest.wallSeconds = tracer->now() - start;
        manifest.snapshotCache.enabled = true;
        manifest.snapshotCache.hits = counts.memoryRestores;
        manifest.snapshotCache.misses = counts.encodes;
        manifest.snapshotCache.diskHits = counts.diskHits;
        manifest.lockstep = lockstep;
        manifest.config = step.args.config.items();
        std::ofstream os(step.args.jsonPath);
        writeSweepJson(os, manifest, outcomes);
        totals.exportBytes += static_cast<std::uint64_t>(os.tellp());
        if (!os)
            fatal("cannot write " + step.args.jsonPath);
    }

    totals.encodes += counts.encodes;
    totals.restores += counts.memoryRestores + counts.diskHits;
    totals.diskHits += counts.diskHits;
    totals.warmups += counts.warmups;
    totals.warmupInstructions += counts.warmupInstructions;
    totals.snapshotBytes += counts.bytes;
    totals.storeHits += manifest.store.hits;
    totals.storeMisses += manifest.store.misses;
    totals.storeInserts += manifest.store.inserts;
    totals.batchedRuns += lockstep.batchedRuns;
    return outcomes;
}

void
writeChromeTrace(const std::string &path)
{
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    bool first = true;
    int tid = 0;
    for (const ThreadLog &log : tracer->logs()) {
        for (const Span &s : log.spans) {
            os << (first ? "" : ",\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
               << ",\"ts\":" << jsonNumber(s.start * 1e6)
               << ",\"dur\":" << jsonNumber((s.end - s.start) * 1e6)
               << '}';
            first = false;
        }
        ++tid;
    }
    os << "]}\n";
    if (!os)
        warn("cannot write span trace " + path);
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    if (dir.empty())
        return 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return bytes;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

TracedPass
runTracedPass(const Workload &workload, const std::string &tracePath)
{
    Tracer passTracer;
    tracer = &passTracer;
    TracedPass pass;
    PassTotals totals;
    std::vector<std::vector<char>> replayed(workload.steps.size());
    {
        ThreadAttachment attach;
        for (std::size_t s = 0; s < workload.steps.size(); ++s) {
            pass.outcomes.push_back(runStep(workload.steps[s],
                                            workload.storeDir,
                                            replayed[s], totals));
        }
        pass.wallSeconds = tracer->now();
    }

    // Self time = a span's duration minus its children's; busy time =
    // the top-level spans of every thread.
    std::map<std::string, double> self;
    double busy = 0.0;
    for (const ThreadLog &log : tracer->logs()) {
        std::vector<double> own(log.spans.size());
        for (std::size_t i = 0; i < log.spans.size(); ++i)
            own[i] = log.spans[i].end - log.spans[i].start;
        for (std::size_t i = 0; i < log.spans.size(); ++i) {
            const Span &s = log.spans[i];
            if (s.parent >= 0)
                own[s.parent] -= s.end - s.start;
            else
                busy += s.end - s.start;
        }
        for (std::size_t i = 0; i < log.spans.size(); ++i)
            self[log.spans[i].name] += own[i];
    }
    double accounted = 0.0;
    for (const auto &[name, seconds] : self) {
        if (name != "harness.job")
            accounted += seconds;
    }
    if (!tracePath.empty())
        writeChromeTrace(tracePath);
    tracer = nullptr;

    // Simulated counts over the runs this pass simulated (store
    // replays excluded): the denominators of the host times.
    double instructions = 0, ticks = 0, ffTicks = 0;
    std::map<std::string, double> sums;
    for (std::size_t s = 0; s < pass.outcomes.size(); ++s) {
        for (std::size_t i = 0; i < pass.outcomes[s].size(); ++i) {
            const SweepOutcome &o = pass.outcomes[s][i];
            if (replayed[s][i] || !o.ok())
                continue;
            instructions += o.result.instructions;
            ticks += o.result.ticks;
            ffTicks += o.result.fastForwardedTicks;
            for (const auto &[name, value] : o.scalars)
                sums[name] += value;
        }
    }

    const double run_s = self["harness.run"];
    const double warmup_s = self["harness.warmup"];
    pass.metrics = {
        {"harness.run.s", run_s, "s"},
        {"harness.run.kinst_per_s", ratio(instructions / 1e3, run_s),
         "kinst/s"},
        {"harness.run.ns_per_tick", ratio(run_s * 1e9, ticks), "ns"},
        {"harness.run.ff_tick_frac", ratio(ffTicks, ticks), "ratio"},
        {"harness.warmup.s", warmup_s, "s"},
        {"harness.warmup.calls", double(totals.warmups), "count"},
        {"harness.warmup.kinst_per_s",
         ratio(totals.warmupInstructions / 1e3, warmup_s), "kinst/s"},
        {"harness.construct.s", self["harness.construct"], "s"},
        {"harness.sweep.busy_s", busy, "s"},
        {"harness.sweep.util", ratio(busy, kThreads * pass.wallSeconds),
         "ratio"},
        {"harness.sweep.tail_s", totals.tailSeconds, "s"},
        {"snapshot.encode_s", self["snapshot.encode"], "s"},
        {"snapshot.restore_s", self["snapshot.restore"], "s"},
        {"snapshot.wait_s", self["snapshot.wait"], "s"},
        {"snapshot.bytes", double(totals.snapshotBytes), "bytes"},
        {"snapshot.restores", double(totals.restores), "count"},
        {"snapshot.disk_hits", double(totals.diskHits), "count"},
        {"snapshot.reuse", ratio(totals.restores, totals.encodes),
         "ratio"},
        {"store.lookup_s", self["store.lookup"], "s"},
        {"store.insert_s", self["store.insert"], "s"},
        {"store.flush_s", self["store.flush"], "s"},
        {"store.hits", double(totals.storeHits), "count"},
        {"store.misses", double(totals.storeMisses), "count"},
        {"store.inserts", double(totals.storeInserts), "count"},
        {"store.bytes", double(directoryBytes(workload.storeDir)),
         "bytes"},
        {"stats.dump_s", self["stats.dump"], "s"},
        {"export.s", self["export"], "s"},
        {"export.bytes", double(totals.exportBytes), "bytes"},
        {"lockstep.plan_s", self["lockstep.plan"], "s"},
        {"lockstep.batched_runs", double(totals.batchedRuns), "count"},
        {"cpu.committed", sums["cpu.committed"], "count"},
        {"cpu.issued", sums["cpu.issued"], "count"},
        {"cpu.zero_issue_cycles", sums["cpu.zeroIssueCycles"], "count"},
        {"power.pipeline_edges", sums["power.pipelineEdges"], "count"},
        {"power.ticks", sums["power.ticks"], "count"},
        {"mem.l2.misses", sums["mem.l2.misses"], "count"},
        {"mem.bus.transactions", sums["mem.bus.transactions"], "count"},
        {"vsv.transitions",
         sums["vsv.downTransitions"] + sums["vsv.upTransitions"],
         "count"},
        {"vsv.low_tick_frac", ratio(sums["vsv.ticks.low"],
                                    sums["power.ticks"]),
         "ratio"},
        {"trace.wall_s", pass.wallSeconds, "s"},
        {"trace.coverage", ratio(accounted, busy), "ratio"},
    };
    return pass;
}

} // namespace perfbench
