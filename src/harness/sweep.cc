#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/fnv1a.hh"
#include "common/logging.hh"
#include "common/minijson.hh"
#include "harness/lockstep.hh"
#include "stats/stats.hh"

#ifndef VSV_GIT_DESCRIBE
#define VSV_GIT_DESCRIBE "unknown"
#endif

namespace vsv
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

store::StoreEntry
storeEntryFromOutcome(const SweepOutcome &outcome)
{
    store::StoreEntry entry;
    entry.fingerprint = outcome.fingerprint;
    entry.attempts = outcome.attempts > 0 ? outcome.attempts : 1;
    std::ostringstream result;
    writeSimulationResultJson(result, outcome.result);
    entry.resultJson = result.str();
    entry.statsJson = outcome.statsJson;
    entry.statsText = outcome.statsText;
    return entry;
}

SweepOutcome
outcomeFromStoreEntry(const std::string &id,
                      const store::StoreEntry &entry)
{
    SweepOutcome outcome;
    outcome.id = id;
    outcome.status = SweepStatus::Ok;
    outcome.attempts = entry.attempts;
    outcome.fingerprint = entry.fingerprint;
    // The recorded result re-parses and re-serializes to the bytes
    // that were stored (jsonNumber's %.17g round-trips doubles), so a
    // manifest built from this outcome matches the cold run's bytes.
    outcome.result =
        parseSimulationResultJson(minijson::parse(entry.resultJson));
    if (!entry.statsJson.empty()) {
        outcome.scalars =
            parseScalarsFromStats(minijson::parse(entry.statsJson));
    }
    outcome.statsJson = entry.statsJson;
    outcome.statsText = entry.statsText;
    return outcome;
}

std::string_view
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok:      return "ok";
      case SweepStatus::Error:   return "error";
      case SweepStatus::Timeout: return "timeout";
    }
    return "unknown";
}

std::size_t
pickNextTask(const std::vector<std::size_t> &taskWarmup,
             const std::vector<char> &started,
             const std::vector<WarmupPhase> &phase)
{
    std::size_t follower = started.size();
    for (std::size_t t = 0; t < started.size(); ++t) {
        if (started[t])
            continue;
        const std::size_t w = taskWarmup[t];
        if (w == kNoWarmup || phase[w] != WarmupPhase::InFlight)
            return t;
        if (follower == started.size())
            follower = t;
    }
    return follower;
}

SweepRunner::SweepRunner(unsigned jobs, unsigned retries)
    : threads_(jobs), retries_(retries)
{
    if (threads_ == 0) {
        // Auto-sizing (the --jobs default) clamps to a sane ceiling;
        // an explicit nonzero request is honoured as given.
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = std::min(hw != 0 ? hw : 1, 64u);
    }
}

SweepOutcome
SweepRunner::runOne(const SweepJob &job, WarmupSnapshotCache *cache)
{
    // With a cache the simulator arrives already warmed (restored or
    // freshly warmed and published); run() skips straight to the
    // measured window either way.
    std::unique_ptr<Simulator> owned =
        cache ? cache->acquire(job.options)
              : std::make_unique<Simulator>(job.options);
    Simulator &sim = *owned;
    SweepOutcome outcome;
    outcome.id = job.id;
    outcome.status = SweepStatus::Ok;
    outcome.attempts = 1;
    outcome.fingerprint = configFingerprint(job.options);
    outcome.result = sim.run();
    outcome.scalars = sim.stats().scalarMap();
    std::ostringstream json;
    sim.stats().dumpJson(json);
    outcome.statsJson = json.str();
    std::ostringstream text;
    sim.stats().dump(text);
    outcome.statsText = text.str();
    return outcome;
}

SweepOutcome
SweepRunner::runOneIsolated(const SweepJob &job,
                            WarmupSnapshotCache *cache)
{
    // Install the soft timeout as a wall-clock deadline in the
    // simulator's abort hook (composed with any caller-supplied hook).
    SweepJob timed = job;
    if (job.softTimeoutSeconds > 0.0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(job.softTimeoutSeconds));
        auto inner = timed.options.abortHook;
        timed.options.abortHook = [deadline, inner]() {
            return std::chrono::steady_clock::now() >= deadline ||
                   (inner && inner());
        };
    }

    try {
        // fatal() throws (instead of exiting) for the duration of the
        // run, so one bad configuration cannot kill the sweep.
        ScopedThrowingFatal guard;
        return runOne(timed, cache);
    } catch (const SimulationAborted &e) {
        SweepOutcome outcome;
        outcome.id = job.id;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.status = SweepStatus::Timeout;
        outcome.attempts = 1;
        outcome.error = e.what();
        if (job.softTimeoutSeconds > 0.0) {
            outcome.error += " (soft timeout " +
                             std::to_string(job.softTimeoutSeconds) +
                             "s)";
        }
        return outcome;
    } catch (const std::exception &e) {
        SweepOutcome outcome;
        outcome.id = job.id;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.status = SweepStatus::Error;
        outcome.attempts = 1;
        outcome.error = e.what();
        return outcome;
    }
}

SweepOutcome
SweepRunner::runWithRetries(const SweepJob &job) const
{
    SweepOutcome outcome;
    for (unsigned attempt = 1; attempt <= retries_ + 1; ++attempt) {
        outcome = runOneIsolated(job, snapshotCache_);
        outcome.attempts = attempt;
        if (outcome.status == SweepStatus::Ok)
            break;
        if (attempt <= retries_) {
            warn("run " + job.id + " failed (attempt " +
                 std::to_string(attempt) + "/" +
                 std::to_string(retries_ + 1) + "): " + outcome.error +
                 "; retrying");
        }
    }
    return outcome;
}

namespace
{

/**
 * Replay the stored run for `job`, or nullopt on a miss. An entry
 * that does not replay (outcomeFromStoreEntry throws) is a store bug,
 * not a sweep failure: it is warned about and treated as a miss, so
 * the caller simulates and the fresh run re-inserts.
 */
std::optional<SweepOutcome>
tryServeFromStore(store::ResultStore &resultStore, const SweepJob &job)
{
    const std::string fp = configFingerprint(job.options);
    std::optional<store::StoreEntry> entry = resultStore.lookup(fp);
    if (!entry)
        return std::nullopt;
    try {
        return outcomeFromStoreEntry(job.id, *entry);
    } catch (const std::exception &e) {
        warn("result store entry for " + job.id + " (" + fp +
             ") did not replay: " + e.what() + "; re-simulating");
        return std::nullopt;
    }
}

} // namespace

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    lockstepStats_ = LockstepStats{};
    lockstepStats_.enabled = lockstepMax_ >= 2;
    lockstepStats_.maxReplicas = lockstepMax_;
    if (jobs.empty())
        return outcomes;

    // Serve what the result store already has before forming tasks:
    // a hit replays the recorded bytes as a status=ok outcome and the
    // job never reaches the pool. `served` also keeps the insert path
    // below from re-serializing entries that came from the store.
    std::vector<char> served(jobs.size(), 0);
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (resultStore_) {
            if (std::optional<SweepOutcome> hit =
                    tryServeFromStore(*resultStore_, jobs[i])) {
                outcomes[i] = std::move(*hit);
                served[i] = 1;
                continue;
            }
        }
        pending.push_back(i);
    }
    if (pending.empty())
        return outcomes;

    // The unit of scheduling is a task: one serial job, or one
    // lockstep batch of structurally identical jobs that share a
    // front-end (lockstep.hh). With lockstep off every job is its own
    // task - the original behaviour, instruction for instruction.
    // Lockstep plans over the pending subset only (store hits must not
    // anchor batches), then maps back to submission indices.
    struct Task
    {
        std::vector<std::size_t> members;
    };
    std::vector<Task> tasks;
    if (lockstepStats_.enabled) {
        std::vector<SweepJob> pendingJobs;
        pendingJobs.reserve(pending.size());
        for (const std::size_t i : pending)
            pendingJobs.push_back(jobs[i]);
        LockstepPlan plan =
            planLockstep(pendingJobs, lockstepMax_, lockstepStats_);
        tasks.reserve(plan.batches.size() + plan.serial.size());
        for (const LockstepBatch &batch : plan.batches) {
            Task task;
            task.members.reserve(batch.members.size());
            for (const std::size_t p : batch.members)
                task.members.push_back(pending[p]);
            tasks.push_back(std::move(task));
        }
        for (const std::size_t p : plan.serial)
            tasks.push_back({{pending[p]}});
    } else {
        tasks.reserve(pending.size());
        for (const std::size_t i : pending)
            tasks.push_back({{i}});
    }

    // Plan the warmups: each single-job task acquires its warmup from
    // the cache once (retries aside), so the cache knows how many
    // restores each snapshot will serve and when to free it. Lockstep
    // batches never touch the cache.
    std::vector<std::size_t> taskWarmup(tasks.size(), kNoWarmup);
    std::map<std::string, std::size_t> warmupIds;
    std::map<std::string, std::size_t> consumers;
    if (snapshotCache_) {
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (tasks[t].members.size() != 1)
                continue;
            const std::string fp =
                warmupFingerprint(jobs[tasks[t].members[0]].options);
            taskWarmup[t] =
                warmupIds.try_emplace(fp, warmupIds.size()).first->second;
            ++consumers[fp];
        }
    }
    std::mutex scheduleMutex;
    std::vector<char> started(tasks.size(), 0);
    std::vector<WarmupPhase> phase(warmupIds.size(), WarmupPhase::Idle);
    struct EndPlan
    {
        WarmupSnapshotCache *cache;
        ~EndPlan()
        {
            if (cache)
                cache->plan({});
        }
    } endPlan{snapshotCache_};
    if (snapshotCache_) {
        snapshotCache_->plan(consumers, [&](const std::string &fp) {
            std::lock_guard<std::mutex> lock(scheduleMutex);
            phase[warmupIds.at(fp)] = WarmupPhase::Published;
        });
    }

    // Workers take tasks in submission order, except that a task whose
    // warmup another worker is still computing waits while any other
    // task can start. Each outcome lands in its submission slot, so
    // the result vector is schedule-independent.
    std::atomic<std::uint64_t> fallbacks{0};
    auto worker = [&]() {
        const auto finished = [&](std::size_t i) {
            if (resultStore_ && !served[i] &&
                outcomes[i].status == SweepStatus::Ok)
                resultStore_->insert(storeEntryFromOutcome(outcomes[i]));
        };
        for (;;) {
            std::size_t t;
            {
                std::lock_guard<std::mutex> lock(scheduleMutex);
                t = pickNextTask(taskWarmup, started, phase);
                if (t == tasks.size())
                    return;
                started[t] = 1;
                const std::size_t w = taskWarmup[t];
                if (w != kNoWarmup && phase[w] == WarmupPhase::Idle)
                    phase[w] = WarmupPhase::InFlight;
            }
            const std::vector<std::size_t> &members = tasks[t].members;
            if (members.size() == 1) {
                outcomes[members[0]] = runWithRetries(jobs[members[0]]);
                finished(members[0]);
                continue;
            }
            // A batch failure is not a sweep failure: every member
            // falls back to the normal isolated serial path, retries
            // and all.
            bool batched = false;
            try {
                ScopedThrowingFatal guard;
                std::vector<SweepOutcome> batch =
                    runLockstepBatch(jobs, members);
                for (std::size_t m = 0; m < members.size(); ++m)
                    outcomes[members[m]] = std::move(batch[m]);
                batched = true;
            } catch (const std::exception &e) {
                warn("lockstep batch led by " + jobs[members[0]].id +
                     " (" + std::to_string(members.size()) +
                     " configs) failed: " + e.what() +
                     "; re-running its members serially");
            }
            if (!batched) {
                fallbacks.fetch_add(1, std::memory_order_relaxed);
                for (const std::size_t i : members)
                    outcomes[i] = runWithRetries(jobs[i]);
            }
            for (const std::size_t i : members)
                finished(i);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, tasks.size()));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    lockstepStats_.fallbacks =
        fallbacks.load(std::memory_order_relaxed);
    return outcomes;
}

std::uint64_t
mixSeed(std::uint64_t sweepSeed, std::uint64_t profileSeed)
{
    if (sweepSeed == 0)
        return profileSeed;
    return splitmix64(splitmix64(sweepSeed) ^ profileSeed);
}

void
applyRunSeed(SimulationOptions &options, std::uint64_t sweepSeed)
{
    options.profile.seed = mixSeed(sweepSeed, options.profile.seed);
}

namespace
{

// Append helpers shared by configFingerprint (everything that can
// change results) and warmupFingerprint (the subset that can change
// post-warmup state), so the two cannot silently drift apart on the
// knobs they share. Each appends a trailing separator.

void
appendPowerKnobs(std::ostream &s, const PowerModelConfig &p)
{
    const char sep = '|';
    s << static_cast<int>(p.gating) << sep << p.vddHigh << sep
      << p.vddLow << sep << p.gatingEfficiency << sep << p.idleFraction
      << sep << p.rampEnergyPj << sep << p.leakageFraction << sep
      << p.converterHighModeFactor << sep;
}

void
appendCacheKnobs(std::ostream &s, const HierarchyConfig &h)
{
    const char sep = '|';
    for (const CacheConfig *c : {&h.l1i, &h.l1d, &h.l2}) {
        s << c->sizeBytes << sep << c->assoc << sep << c->blockBytes
          << sep << c->hitLatency << sep;
    }
}

void
appendBranchKnobs(std::ostream &s, const BranchPredictorConfig &b)
{
    const char sep = '|';
    s << b.bimodalEntries << sep << b.gshareEntries << sep
      << b.chooserEntries << sep << b.historyBits << sep
      << b.btbEntries << sep << b.btbAssoc << sep << b.rasEntries
      << sep;
}

void
appendPrefetcherKnobs(std::ostream &s, const TimekeepingConfig &tk,
                      const StridePrefetcherConfig &stride)
{
    const char sep = '|';
    s << tk.bufferEntries << sep << tk.decayResolution << sep
      << tk.deadMultiplier << sep << tk.predictorEntries << sep
      << tk.tagSigBits << sep << tk.indexSigBits << sep
      << tk.sweepSlices << sep << tk.minLiveTime << sep
      << static_cast<unsigned>(tk.confidenceThreshold) << sep
      << tk.maxDeltaTags << sep << stride.streams << sep
      << stride.degree << sep << stride.maxStrideBytes << sep;
}

/**
 * Every workload-generation knob (the Table 2 calibration targets are
 * reporting-only and deliberately absent). configFingerprint gets by
 * with name+seed because the stock profiles are pure functions of
 * their names, but warmup snapshots must also distinguish the custom
 * profiles tests build under default names - restoring ammp state
 * into a hand-rolled profile would be silently wrong.
 */
void
appendProfileKnobs(std::ostream &s, const WorkloadProfile &p)
{
    const char sep = '|';
    s << p.name << sep << p.seed << sep << p.loadFrac << sep
      << p.storeFrac << sep << p.branchFrac << sep << p.fpFrac << sep
      << p.intMulFrac << sep << p.intDivFrac << sep << p.fpMulFrac
      << sep << p.fpDivFrac << sep << p.meanDepDist << sep
      << p.secondSrcProb << sep << p.loadConsumerProb << sep
      << p.coldConsumerProb << sep << p.coldFrac << sep << p.coldBurst
      << sep << p.warmFrac << sep << p.hotFootprint << sep
      << p.warmFootprint << sep << p.coldFootprint << sep
      << static_cast<int>(p.coldPattern) << sep << p.coldStride << sep
      << p.scanStreams << sep << p.scanJitterProb << sep
      << p.chainCount << sep << p.chainMutateProb << sep
      << p.coldRegularFrac << sep << p.regularFootprint << sep
      << p.storeColdScale << sep << p.branchNoise << sep
      << p.codeFootprint << sep << p.callFrac << sep
      << p.swPrefetchCoverage << sep << p.swPrefetchLookahead << sep
      << p.tkWarmupInstructions << sep;
}

} // namespace

std::string
configFingerprint(const SimulationOptions &o)
{
    // Serialize every result-determining knob, then FNV-1a the text.
    // The profile's calibration constants are all derived from its
    // name, so name+seed pins the workload; tracing and fast-forward
    // are deliberately absent (bit-identical by contract, see
    // DESIGN.md 5d/5e).
    std::ostringstream s;
    const char sep = '|';
    s << o.profile.name << sep << o.profile.seed << sep << o.tracePath
      << sep << o.traceLoop << sep << o.warmupInstructions << sep
      << o.measureInstructions << sep << o.timekeeping << sep
      << o.stridePrefetch << sep;
    s << o.vsv.enabled << sep << o.vsv.down.threshold << sep
      << o.vsv.down.period << sep << static_cast<int>(o.vsv.upPolicy)
      << sep << o.vsv.up.threshold << sep << o.vsv.up.period << sep
      << o.vsv.ctrlDistTicks << sep << o.vsv.clockTreeTicks << sep
      << o.vsv.clockDivider << sep << o.vsv.vddHigh << sep
      << o.vsv.vddLow << sep << o.vsv.slewVoltsPerTick << sep;
    appendPowerKnobs(s, o.power);
    appendCacheKnobs(s, o.hierarchy);
    s << o.hierarchy.l1iMshrs << sep << o.hierarchy.l1dMshrs << sep
      << o.hierarchy.l2Mshrs << sep << o.hierarchy.prefetchBufferLatency
      << sep << o.hierarchy.l2MissDetectTicks << sep
      << o.hierarchy.bus.widthBytes << sep << o.hierarchy.bus.occupancy
      << sep << o.hierarchy.dram.latency << sep;
    s << o.core.fetchWidth << sep << o.core.dispatchWidth << sep
      << o.core.issueWidth << sep << o.core.commitWidth << sep
      << o.core.ruuSize << sep << o.core.lsqSize << sep
      << o.core.fetchQueueSize << sep << o.core.mispredictPenalty << sep
      << o.core.dcachePorts << sep;
    appendBranchKnobs(s, o.branch);
    appendPrefetcherKnobs(s, o.tk, o.stride);
    // Multi-core topology: the core count, the rail policy and the
    // per-core benchmark mix all change results. Benchmark names
    // cannot contain the separator, so the list cannot collide with a
    // differently-split assignment.
    s << o.cores << sep << static_cast<int>(o.railPolicy) << sep;
    for (const std::string &bench : o.coreBenchmarks)
        s << bench << sep;
    return fnv1a64Hex(s.str());
}

std::string
warmupFingerprint(const SimulationOptions &o)
{
    // Only knobs that can influence post-warmup state participate, so
    // every measurement variation of a benchmark (the VSV policy grid,
    // the measure window, core widths, DRAM latency) shares one
    // warmup. MSHR capacities and table geometries are included even
    // though warmup leaves them empty: the snapshot format guards
    // them, and a guard mismatch must mean corruption, never a
    // same-fingerprint restore. Full precision on doubles - a
    // fingerprint collision here silently reuses the wrong state,
    // where configFingerprint's worst case is only a spurious re-run.
    std::ostringstream s;
    s.precision(17);
    const char sep = '|';
    s << "warmup-v3" << sep;
    appendProfileKnobs(s, o.profile);
    s << o.tracePath << sep << o.traceLoop << sep
      << o.warmupInstructions << sep << o.timekeeping << sep
      << o.stridePrefetch << sep;
    appendPowerKnobs(s, o.power);
    appendCacheKnobs(s, o.hierarchy);
    s << o.hierarchy.l1iMshrs << sep << o.hierarchy.l1dMshrs << sep
      << o.hierarchy.l2Mshrs << sep << o.hierarchy.bus.widthBytes
      << sep << o.hierarchy.bus.occupancy << sep;
    appendBranchKnobs(s, o.branch);
    appendPrefetcherKnobs(s, o.tk, o.stride);
    // The core count and per-core benchmark mix pin every core's
    // warmup stream (per-core profiles and seeds derive
    // deterministically from these plus the base profile above). The
    // rail policy is deliberately absent: warmup is functional, so
    // both rail policies of a multi-core grid share one snapshot.
    s << o.cores << sep;
    for (const std::string &bench : o.coreBenchmarks)
        s << bench << sep;
    return fnv1a64Hex(s.str());
}

std::string_view
buildGitDescribe()
{
    return VSV_GIT_DESCRIBE;
}

void
writeSimulationResultJson(std::ostream &os, const SimulationResult &r)
{
    os << "{\"benchmark\":\"" << jsonEscape(r.benchmark) << '"'
       << ",\"instructions\":" << r.instructions
       << ",\"ticks\":" << r.ticks
       << ",\"pipelineCycles\":" << r.pipelineCycles
       << ",\"ipc\":" << jsonNumber(r.ipc)
       << ",\"mr\":" << jsonNumber(r.mr)
       << ",\"energyPj\":" << jsonNumber(r.energyPj)
       << ",\"avgPowerW\":" << jsonNumber(r.avgPowerW)
       << ",\"downTransitions\":" << r.downTransitions
       << ",\"upTransitions\":" << r.upTransitions
       << ",\"lowModeFraction\":" << jsonNumber(r.lowModeFraction);
    // Per-core breakdown; single-core runs keep the original schema.
    if (!r.perCore.empty()) {
        os << ",\"perCore\":[";
        bool first = true;
        for (const CoreRunResult &c : r.perCore) {
            os << (first ? "" : ",") << "{\"benchmark\":\""
               << jsonEscape(c.benchmark) << '"'
               << ",\"instructions\":" << c.instructions
               << ",\"pipelineCycles\":" << c.pipelineCycles
               << ",\"ipc\":" << jsonNumber(c.ipc)
               << ",\"energyPj\":" << jsonNumber(c.energyPj)
               << ",\"downTransitions\":" << c.downTransitions
               << ",\"upTransitions\":" << c.upTransitions
               << ",\"lowModeFraction\":"
               << jsonNumber(c.lowModeFraction) << '}';
            first = false;
        }
        os << ']';
    }
    os
       // Host-dependent observability; excluded from the determinism
       // contract (fastForwardedTicks/ffTickFraction are reproducible
       // for a fixed fastForward setting, wall time never is).
       << ",\"throughput\":{"
       << "\"wallSeconds\":" << jsonNumber(r.wallSeconds)
       << ",\"kinstPerSec\":" << jsonNumber(r.kinstPerSec)
       << ",\"fastForwardedTicks\":" << r.fastForwardedTicks
       << ",\"ffTickFraction\":" << jsonNumber(r.ffTickFraction)
       << ",\"warmupSeconds\":" << jsonNumber(r.warmupSeconds)
       << "}}";
}

void
writeSweepJson(std::ostream &os, const SweepManifest &manifest,
               const std::vector<SweepOutcome> &outcomes)
{
    os << "{\"manifest\":{"
       << "\"tool\":\"" << jsonEscape(manifest.tool) << '"'
       << ",\"gitDescribe\":\"" << jsonEscape(buildGitDescribe()) << '"'
       << ",\"seed\":" << manifest.seed
       << ",\"threads\":" << manifest.threads
       << ",\"wallSeconds\":" << jsonNumber(manifest.wallSeconds)
       << ",\"snapshotCache\":{"
       << "\"enabled\":"
       << (manifest.snapshotCache.enabled ? "true" : "false")
       << ",\"hits\":" << manifest.snapshotCache.hits
       << ",\"misses\":" << manifest.snapshotCache.misses
       << ",\"diskHits\":" << manifest.snapshotCache.diskHits
       << ",\"failures\":" << manifest.snapshotCache.failures
       << "},\"lockstep\":{"
       << "\"enabled\":"
       << (manifest.lockstep.enabled ? "true" : "false")
       << ",\"maxReplicas\":" << manifest.lockstep.maxReplicas
       << ",\"batches\":" << manifest.lockstep.batches
       << ",\"batchedRuns\":" << manifest.lockstep.batchedRuns
       << ",\"serialRuns\":" << manifest.lockstep.serialRuns
       << ",\"largestBatch\":" << manifest.lockstep.largestBatch
       << ",\"fallbacks\":" << manifest.lockstep.fallbacks
       << ",\"ineligible\":{";
    {
        bool first_reason = true;
        for (const auto &[reason, count] :
             manifest.lockstep.ineligible) {
            os << (first_reason ? "" : ",") << '"' << jsonEscape(reason)
               << "\":" << count;
            first_reason = false;
        }
    }
    os << "}}";
    // Store counters appear only when --store-dir was given, so a
    // store-less manifest stays byte-identical to earlier releases -
    // and a warm re-sweep differs from its cold twin only here and in
    // the host-dependent throughput/wallSeconds fields (STORE.md).
    if (manifest.store.enabled) {
        os << ",\"store\":{"
           << "\"enabled\":true"
           << ",\"hits\":" << manifest.store.hits
           << ",\"misses\":" << manifest.store.misses
           << ",\"inserts\":" << manifest.store.inserts
           << ",\"corrupt\":" << manifest.store.corrupt
           << ",\"writeFailures\":" << manifest.store.writeFailures
           << '}';
    }
    os << ",\"config\":{";
    bool first = true;
    for (const auto &[key, value] : manifest.config) {
        os << (first ? "" : ",") << '"' << jsonEscape(key) << "\":\""
           << jsonEscape(value) << '"';
        first = false;
    }
    os << "}},\"runs\":[";
    first = true;
    for (const auto &outcome : outcomes) {
        os << (first ? "" : ",") << "{\"id\":\"" << jsonEscape(outcome.id)
           << "\",\"fingerprint\":\"" << jsonEscape(outcome.fingerprint)
           << "\",\"status\":\"" << sweepStatusName(outcome.status)
           << "\",\"attempts\":" << outcome.attempts << ",\"error\":";
        if (outcome.error.empty())
            os << "null";
        else
            os << '"' << jsonEscape(outcome.error) << '"';
        os << ",\"result\":";
        if (outcome.ok())
            writeSimulationResultJson(os, outcome.result);
        else
            os << "null";
        // statsJson is already a complete JSON object.
        os << ",\"stats\":";
        if (outcome.ok() && !outcome.statsJson.empty())
            os << outcome.statsJson;
        else
            os << "null";
        os << '}';
        first = false;
    }
    os << "]}\n";
}

namespace
{

double
numberOrZero(const minijson::Value &v)
{
    return v.isNumber() ? v.num() : 0.0;
}

} // namespace

SimulationResult
parseSimulationResultJson(const minijson::Value &r)
{
    SimulationResult out;
    out.benchmark = r.at("benchmark").str();
    out.instructions =
        static_cast<std::uint64_t>(numberOrZero(r.at("instructions")));
    out.ticks = static_cast<Tick>(numberOrZero(r.at("ticks")));
    out.pipelineCycles =
        static_cast<std::uint64_t>(numberOrZero(r.at("pipelineCycles")));
    out.ipc = numberOrZero(r.at("ipc"));
    out.mr = numberOrZero(r.at("mr"));
    out.energyPj = numberOrZero(r.at("energyPj"));
    out.avgPowerW = numberOrZero(r.at("avgPowerW"));
    out.downTransitions =
        static_cast<std::uint64_t>(numberOrZero(r.at("downTransitions")));
    out.upTransitions =
        static_cast<std::uint64_t>(numberOrZero(r.at("upTransitions")));
    out.lowModeFraction = numberOrZero(r.at("lowModeFraction"));
    if (r.has("perCore") && r.at("perCore").isArray()) {
        for (const minijson::Value &c : r.at("perCore").array()) {
            CoreRunResult core;
            core.benchmark = c.at("benchmark").str();
            core.instructions = static_cast<std::uint64_t>(
                numberOrZero(c.at("instructions")));
            core.pipelineCycles = static_cast<std::uint64_t>(
                numberOrZero(c.at("pipelineCycles")));
            core.ipc = numberOrZero(c.at("ipc"));
            core.energyPj = numberOrZero(c.at("energyPj"));
            core.downTransitions = static_cast<std::uint64_t>(
                numberOrZero(c.at("downTransitions")));
            core.upTransitions = static_cast<std::uint64_t>(
                numberOrZero(c.at("upTransitions")));
            core.lowModeFraction =
                numberOrZero(c.at("lowModeFraction"));
            out.perCore.push_back(std::move(core));
        }
    }
    if (r.has("throughput") && r.at("throughput").isObject()) {
        const minijson::Value &t = r.at("throughput");
        out.wallSeconds = numberOrZero(t.at("wallSeconds"));
        out.kinstPerSec = numberOrZero(t.at("kinstPerSec"));
        out.fastForwardedTicks = static_cast<Tick>(
            numberOrZero(t.at("fastForwardedTicks")));
        out.ffTickFraction = numberOrZero(t.at("ffTickFraction"));
        // Absent in manifests written before the warmup timer existed.
        if (t.has("warmupSeconds"))
            out.warmupSeconds = numberOrZero(t.at("warmupSeconds"));
    }
    return out;
}

std::map<std::string, double>
parseScalarsFromStats(const minijson::Value &stats)
{
    std::map<std::string, double> scalars;
    if (!stats.has("scalars") || !stats.at("scalars").isObject())
        return scalars;
    for (const auto &[name, value] : stats.at("scalars").object())
        scalars.emplace(name, numberOrZero(value));
    return scalars;
}

} // namespace vsv
