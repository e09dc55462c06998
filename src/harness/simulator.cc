#include "simulator.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

namespace
{

/**
 * Shift a core's stream into a disjoint address-space slice
 * (multiprogrammed "rate" mix: cores never share data, but contend
 * for the shared L2, bus and DRAM). The shift is far above any cache
 * index bit, so within a core the access pattern is unchanged.
 */
class OffsetTraceSource : public TraceSource
{
  public:
    OffsetTraceSource(TraceSource &inner, Addr base)
        : inner(inner), base(base)
    {
    }

    MicroOp
    next() override
    {
        MicroOp op = inner.next();
        op.pc += base;
        if (isMemOp(op.cls))
            op.addr += base;
        if (op.cls == OpClass::Branch)
            op.target += base;
        return op;
    }

  private:
    TraceSource &inner;
    Addr base;
};

/** Base of core c's address-space slice (slice 0 is unshifted). */
constexpr Addr
coreAddrBase(std::uint32_t c)
{
    return static_cast<Addr>(c) << 40;
}

} // namespace

WorkloadProfile
Simulator::coreProfile(std::uint32_t c) const
{
    WorkloadProfile profile = options.profile;
    if (!options.coreBenchmarks.empty() &&
        !options.coreBenchmarks[c].empty() &&
        options.coreBenchmarks[c] != profile.name) {
        profile = spec2kProfile(options.coreBenchmarks[c]);
    }
    if (c > 0) {
        // Decorrelate cores running the same benchmark; the Rng seeds
        // through splitmix64, so any distinct value gives an
        // uncorrelated stream.
        profile.seed += 0x9e3779b97f4a7c15ULL * c;
    }
    return profile;
}

Simulator::Simulator(const SimulationOptions &options)
    : options(options)
{
    const std::uint32_t n = options.cores;
    VSV_ASSERT(n >= 1 && n <= 64, "core count must be in [1, 64]");
    VSV_ASSERT(options.coreBenchmarks.empty() ||
                   options.coreBenchmarks.size() == n,
               "coreBenchmarks must be empty or hold one name per core");
    VSV_ASSERT(!(options.timekeeping && options.stridePrefetch),
               "pick one hardware prefetcher");

    slices.resize(n);
    for (std::uint32_t c = 0; c < n; ++c) {
        slices[c].profile = coreProfile(c);
        slices[c].power = std::make_unique<PowerModel>(options.power);
    }
    if (n > 1) {
        uncorePower_ = std::make_unique<PowerModel>(options.power);
        uncorePower = uncorePower_.get();
    } else {
        uncorePower = slices[0].power.get();
    }

    hierarchy = std::make_unique<MemoryHierarchy>(options.hierarchy,
                                                  *uncorePower, n);
    if (n > 1) {
        for (std::uint32_t c = 0; c < n; ++c)
            hierarchy->setCorePower(c, slices[c].power.get());
    }

    // Hardware prefetchers observe core 0's L1D only (the hierarchy
    // routes its notify hooks there); their table/buffer energy is
    // charged to core 0's model, like the L1D they serve.
    if (options.timekeeping) {
        tk = std::make_unique<TimekeepingPrefetcher>(
            options.tk, options.hierarchy.l1d, *slices[0].power);
        hierarchy->setPrefetcher(tk.get());
    } else if (options.stridePrefetch) {
        stride = std::make_unique<StridePrefetcher>(
            options.stride, options.hierarchy.l1d, *slices[0].power);
        hierarchy->setPrefetcher(stride.get());
    }

    for (std::uint32_t c = 0; c < n; ++c) {
        CoreSlice &cs = slices[c];
        cs.predictor = std::make_unique<BranchPredictor>(options.branch);
        TraceSource *base = nullptr;
        if (!options.tracePath.empty()) {
            cs.traceReader = std::make_unique<TraceReader>(
                options.tracePath, options.traceLoop);
            base = cs.traceReader.get();
        } else {
            cs.workload = std::make_unique<WorkloadGenerator>(cs.profile);
            base = cs.workload.get();
        }
        if (c == 0) {
            cs.source = base;
        } else {
            cs.offsetSource = std::make_unique<OffsetTraceSource>(
                *base, coreAddrBase(c));
            cs.source = cs.offsetSource.get();
        }
        cs.vsvCtrl = std::make_unique<VsvController>(options.vsv,
                                                     *cs.power);
        hierarchy->setCoreMissListener(c, cs.vsvCtrl.get());
        cs.cpu = std::make_unique<Core>(options.core, *cs.source,
                                        *hierarchy, *cs.predictor,
                                        *cs.power);
        cs.cpu->setCoreId(c);
    }

    if (n > 1 && options.railPolicy == RailPolicy::SharedVote) {
        arbiter = std::make_unique<RailArbiter>(n);
        for (std::uint32_t c = 0; c < n; ++c) {
            slices[c].vsvCtrl->setRailArbiter(arbiter.get(), c);
            // One physical rail: core 0 represents its swing energy;
            // the others transition in lockstep without re-charging.
            if (c > 0)
                slices[c].vsvCtrl->setChargeRampEnergy(false);
        }
    }

    if (!options.trace.path.empty()) {
        traceSink = std::make_unique<TraceSink>(options.trace.categories);
        for (std::uint32_t c = 0; c < n; ++c) {
            const auto core16 = static_cast<std::uint16_t>(c);
            slices[c].power->setTraceSink(traceSink.get(), core16);
            slices[c].vsvCtrl->setTraceSink(traceSink.get(), core16);
            slices[c].cpu->setTraceSink(traceSink.get());
        }
        hierarchy->setTraceSink(traceSink.get());
    }

    if (n == 1) {
        // The original single-core stat layout, name for name.
        slices[0].power->regStats(registry, "power");
        hierarchy->regStats(registry, "mem");
        slices[0].predictor->regStats(registry, "bpred");
        slices[0].vsvCtrl->regStats(registry, "vsv");
        slices[0].cpu->regStats(registry, "cpu");
        if (tk)
            tk->regStats(registry, "tk");
        if (stride)
            stride->regStats(registry, "stride");
        if (slices[0].traceReader)
            slices[0].traceReader->regStats(registry, "trace");
    } else {
        for (std::uint32_t c = 0; c < n; ++c) {
            const CoreSlice &cs = slices[c];
            const std::string prefix = "core" + std::to_string(c);
            cs.power->regStats(registry, prefix + ".power");
            hierarchy->regStatsCore(c, registry, prefix + ".mem");
            cs.predictor->regStats(registry, prefix + ".bpred");
            cs.vsvCtrl->regStats(registry, prefix + ".vsv");
            cs.cpu->regStats(registry, prefix + ".cpu");
            if (cs.traceReader)
                cs.traceReader->regStats(registry, prefix + ".trace");
        }
        uncorePower->regStats(registry, "power");
        hierarchy->regStatsShared(registry, "mem");
        if (tk)
            tk->regStats(registry, "tk");
        if (stride)
            stride->regStats(registry, "stride");
        if (arbiter)
            arbiter->regStats(registry, "rail");
    }
}

Simulator::~Simulator() = default;

namespace
{

/**
 * Poll an abort hook at a coarse stride: cheap enough to sit in the
 * hot loops, frequent enough that a soft timeout lands within
 * milliseconds. The iteration counter (not the tick count) paces the
 * polls so fast-forward jumps cannot starve the check.
 */
class AbortPoller
{
  public:
    explicit AbortPoller(const std::function<bool()> &hook)
        : hook(hook)
    {
    }

    void
    poll(const char *phase)
    {
        if (!hook || (++iterations & 0xfff) != 0)
            return;
        if (hook()) {
            throw SimulationAborted(
                std::string("simulation aborted by abort hook during ") +
                phase);
        }
    }

  private:
    const std::function<bool()> &hook;
    std::uint64_t iterations = 0;
};

} // namespace

void
Simulator::functionalWarmup()
{
    AbortPoller poller(options.abortHook);
    hierarchy->setWarmupMode(true);

    // Cores warm up sequentially on the shared tick counter: each
    // core pre-touches its resident regions the way the paper's
    // fast-forward does implicitly over two billion instructions (the
    // hot and warm data regions into L1/L2 and the code loop into the
    // L1I, so the measured window sees no cold misses for data that
    // is steady-state resident), then streams its warmup
    // instructions. Later cores can evict earlier cores' warm L2
    // blocks - real shared-L2 pressure, present in the measured
    // window too.
    for (std::uint32_t c = 0; c < cores(); ++c) {
        CoreSlice &cs = slices[c];
        const Addr base = coreAddrBase(c);
        const WorkloadProfile &profile = cs.profile;
        for (Addr offset = 0; offset < profile.hotFootprint;
             offset += 32) {
            hierarchy->warmupDataAccess(base + WorkloadRegions::hot +
                                            offset,
                                        false, warmupTicks++, c);
        }
        for (Addr offset = 0; offset < profile.warmFootprint;
             offset += 32) {
            hierarchy->warmupDataAccess(base + WorkloadRegions::warm +
                                            offset,
                                        false, warmupTicks++, c);
        }
        for (Addr offset = 0; offset < profile.codeFootprint;
             offset += 32) {
            hierarchy->warmupInstAccess(base + WorkloadRegions::code +
                                            offset,
                                        warmupTicks++, c);
        }
        // Advance one tick per instruction so the Time-Keeping decay
        // logic sees time pass at roughly the measured-phase rate.
        auto stream = [&](auto &source) {
            for (std::uint64_t i = 0; i < options.warmupInstructions;
                 ++i) {
                poller.poll("warmup");
                const MicroOp op = source.next();
                const Tick now = warmupTicks++;

                hierarchy->warmupInstAccess(op.pc, now, c);
                if (isMemOp(op.cls)) {
                    hierarchy->warmupDataAccess(
                        op.addr, op.cls == OpClass::Store, now, c);
                } else if (op.cls == OpClass::Branch) {
                    const BranchPrediction pred =
                        cs.predictor->predict(op);
                    cs.predictor->resolve(op, pred);
                }
                if (tk && c == 0)
                    tk->tick(now);
            }
        };
        // Warmup reads no dependence distance, so the generator can
        // skip computing them; trace files carry theirs anyway.
        if (cs.workload)
            cs.workload->setWarmupHorizon(options.warmupInstructions);
        if (cs.source == cs.workload.get())
            stream(*cs.workload);  // direct calls the compiler inlines
        else
            stream(*cs.source);
    }
    hierarchy->setWarmupMode(false);
}

void
Simulator::addReplica(const PowerModelConfig &power)
{
    VSV_ASSERT(cores() == 1,
               "lockstep replicas require a single-core simulator");
    VSV_ASSERT(!warmedUp_ && !ran,
               "addReplica() must precede warmup()/run()");
    replicaPower.emplace_back(power);
}

void
Simulator::materializeReplicas()
{
    if (replicaPower.empty() || !replicaRegistries.empty())
        return;

    const std::size_t m = replicaPower.size();
    // Installed *before* warmup so warmup-phase charges (the
    // prefetcher tables train during warmup) land on every follower
    // exactly as a serial run of that config would charge them.
    slices[0].power->setFanout(replicaPower.data(), m);
    replicaRegistries.resize(m);

    // Per-replica registries mirror the serial single-core layout
    // name for name and in the same insertion order, substituting the
    // replica's own power model for the leader's.
    for (std::size_t r = 0; r < m; ++r) {
        StatRegistry &reg = replicaRegistries[r];
        replicaPower[r].regStats(reg, "power");
        hierarchy->regStats(reg, "mem");
        slices[0].predictor->regStats(reg, "bpred");
        slices[0].vsvCtrl->regStats(reg, "vsv");
        slices[0].cpu->regStats(reg, "cpu");
        if (tk)
            tk->regStats(reg, "tk");
        if (stride)
            stride->regStats(reg, "stride");
        if (slices[0].traceReader)
            slices[0].traceReader->regStats(reg, "trace");
    }
}

void
Simulator::warmup()
{
    if (warmedUp_)
        return;
    VSV_ASSERT(!ran, "Simulator::warmup() after run()");
    materializeReplicas();
    const auto start = std::chrono::steady_clock::now();
    functionalWarmup();
    warmupSeconds_ = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    warmedUp_ = true;
}

void
Simulator::snapshotTo(std::ostream &os,
                      std::string_view fingerprint) const
{
    VSV_ASSERT(warmedUp_ && !ran,
               "snapshotTo() needs warmed-up, not-yet-run state");
    SnapshotWriter writer(os, fingerprint);

    writer.begin("sim");
    writer.u32(static_cast<std::uint32_t>(slices.size()));
    writer.str(options.profile.name);
    writer.u64(options.warmupInstructions);
    writer.u64(warmupTicks);
    writer.b(options.timekeeping);
    writer.b(options.stridePrefetch);
    writer.b(slices[0].traceReader != nullptr);
    for (std::size_t c = 1; c < slices.size(); ++c)
        writer.str(slices[c].profile.name);
    writer.end();

    // Core 0 and the shared structures first (the original layout),
    // then cores 1..N-1, then the separate uncore model.
    slices[0].power->snapshot(writer);
    hierarchy->snapshot(writer);
    slices[0].predictor->snapshot(writer);
    if (tk)
        tk->snapshot(writer);
    if (stride)
        stride->snapshot(writer);
    if (slices[0].traceReader)
        slices[0].traceReader->snapshot(writer);
    else
        slices[0].workload->snapshot(writer);
    for (std::size_t c = 1; c < slices.size(); ++c) {
        const CoreSlice &cs = slices[c];
        cs.power->snapshot(writer);
        cs.predictor->snapshot(writer);
        if (cs.traceReader)
            cs.traceReader->snapshot(writer);
        else
            cs.workload->snapshot(writer);
    }
    if (uncorePower_)
        uncorePower_->snapshot(writer);
    writer.finish();
}

void
Simulator::restoreFrom(std::istream &is,
                       std::string_view expected_fingerprint)
{
    VSV_ASSERT(!warmedUp_ && !ran,
               "restoreFrom() needs a freshly constructed simulator");
    VSV_ASSERT(replicaPower.empty(),
               "lockstep replicas always warm up fresh; restoring a "
               "snapshot into a batched simulator is unsupported");
    try {
        SnapshotReader reader(is);
        if (!expected_fingerprint.empty() &&
            reader.fingerprint() != expected_fingerprint) {
            throw SnapshotError(
                "snapshot: warmup fingerprint mismatch (snapshot " +
                reader.fingerprint() + ", this configuration " +
                std::string(expected_fingerprint) + ")");
        }

        reader.begin("sim");
        reader.expectU32(static_cast<std::uint32_t>(slices.size()),
                         "core count");
        const std::string name = reader.str();
        if (name != options.profile.name) {
            throw SnapshotError("snapshot: profile mismatch ('" + name +
                                "' vs '" + options.profile.name + "')");
        }
        reader.expectU64(options.warmupInstructions,
                         "warmup instruction count");
        const Tick snapshot_warmup_ticks = reader.u64();
        const bool snap_tk = reader.b();
        const bool snap_stride = reader.b();
        const bool snap_trace = reader.b();
        for (std::size_t c = 1; c < slices.size(); ++c) {
            const std::string core_name = reader.str();
            if (core_name != slices[c].profile.name) {
                throw SnapshotError(
                    "snapshot: core " + std::to_string(c) +
                    " profile mismatch ('" + core_name + "' vs '" +
                    slices[c].profile.name + "')");
            }
        }
        reader.end();
        if (snap_tk != options.timekeeping ||
            snap_stride != options.stridePrefetch ||
            snap_trace != (slices[0].traceReader != nullptr)) {
            throw SnapshotError(
                "snapshot: prefetcher/source wiring mismatch");
        }

        slices[0].power->restore(reader);
        hierarchy->restore(reader);
        slices[0].predictor->restore(reader);
        if (tk)
            tk->restore(reader);
        if (stride)
            stride->restore(reader);
        if (slices[0].traceReader)
            slices[0].traceReader->restore(reader);
        else
            slices[0].workload->restore(reader);
        for (std::size_t c = 1; c < slices.size(); ++c) {
            CoreSlice &cs = slices[c];
            cs.power->restore(reader);
            cs.predictor->restore(reader);
            if (cs.traceReader)
                cs.traceReader->restore(reader);
            else
                cs.workload->restore(reader);
        }
        if (uncorePower_)
            uncorePower_->restore(reader);
        reader.expectEnd();
        warmupTicks = snapshot_warmup_ticks;
    } catch (const SnapshotError &e) {
        fatal(std::string("warmup snapshot unusable: ") + e.what());
    }
    warmedUp_ = true;
}

SimulationResult
Simulator::run()
{
    VSV_ASSERT(!ran, "Simulator::run() may only be called once");

    warmup();
    ran = true;

    const std::uint32_t n = cores();

    // Snapshot the warmup's contribution so results are pure deltas.
    std::vector<double> energy0(n);
    for (std::uint32_t c = 0; c < n; ++c)
        energy0[c] = slices[c].power->totalEnergyPj();
    const double uncore_energy0 =
        uncorePower_ ? uncorePower_->totalEnergyPj() : 0.0;
    std::vector<double> replicaEnergy0(replicaPower.size());
    for (std::size_t r = 0; r < replicaPower.size(); ++r)
        replicaEnergy0[r] = replicaPower[r].totalEnergyPj();
    const std::uint64_t misses0 = hierarchy->demandL2MissCount();

    const std::uint64_t target = options.measureInstructions;
    const Tick start = warmupTicks;
    Tick now = start;

    // Deadlock guard: even mcf at IPC ~0.29 needs ~7 ticks per
    // instruction at half clock; 1000x (per core - the cores share
    // one bus) is unambiguous breakage.
    const Tick limit =
        start + 64 + 1000 * options.measureInstructions * n;

    // Fast-forward state. lastIssued starts nonzero so the first
    // measured tick always takes the per-tick path (closing any
    // power accesses left open by warmup); afterwards a fast-forward
    // is attempted only while every core's last pipeline cycle issued
    // nothing.
    std::vector<std::uint32_t> lastIssued(n, 1);
    std::vector<Cycle> ffBudget(n);
    std::vector<char> ffDone(n);
    std::vector<char> edgeThisTick(n);
    Tick ffTicks = 0;

    // Interval-stats sampler: constructed here (not in the ctor) so
    // the baselines exclude warmup, like every other result delta.
    if (traceSink && options.trace.intervalTicks > 0 &&
        traceSink->wants(TraceCategory::Interval)) {
        std::vector<std::string> scalars;
        if (n == 1) {
            scalars = {"cpu.committed", "cpu.issued",
                       "mem.demandL2Misses"};
        } else {
            for (std::uint32_t c = 0; c < n; ++c) {
                const std::string prefix = "core" + std::to_string(c);
                scalars.push_back(prefix + ".cpu.committed");
                scalars.push_back(prefix + ".cpu.issued");
            }
            scalars.push_back("mem.demandL2Misses");
        }
        scalars.insert(scalars.end(),
                       options.trace.intervalScalars.begin(),
                       options.trace.intervalScalars.end());
        sampler = std::make_unique<IntervalStatsSampler>(
            *traceSink, registry, options.trace.intervalTicks, scalars,
            start);
        sampler->setEnergyProbe([this] {
            double e = 0.0;
            for (const CoreSlice &cs : slices)
                e += cs.power->peekTotalEnergyPj();
            if (uncorePower_)
                e += uncorePower_->peekTotalEnergyPj();
            return e;
        });
    }

    const auto wallStart = std::chrono::steady_clock::now();

    const auto allFinished = [&] {
        for (const CoreSlice &cs : slices) {
            if (cs.cpu->committedInstructions() < target)
                return false;
        }
        return true;
    };

    AbortPoller poller(options.abortHook);
    while (!allFinished()) {
        poller.poll("measurement");
        if (sampler && now >= sampler->nextSampleAt())
            sampler->sample(now);

        // Idle-tick fast-forward: with every controller in a steady
        // state, no memory event due, and every core provably unable
        // to make progress, the upcoming ticks are pure bookkeeping -
        // apply it in bulk and jump. The jump is the *minimum* of the
        // per-core plans, so no core skips past a tick where its FSM
        // could settle or its clock schedule matters. Exact by
        // construction (DESIGN.md §5d); `--no-fast-forward` runs the
        // loop below for every tick instead.
        if (options.fastForward) {
            bool all_idle = true;
            for (std::uint32_t c = 0; c < n && all_idle; ++c) {
                all_idle = lastIssued[c] == 0 &&
                           slices[c].vsvCtrl->inSteadyState();
            }
            const Tick nextEv =
                all_idle ? hierarchy->nextEventTick() : Tick{0};
            if (all_idle && nextEv > now) {
                bool viable = true;
                for (std::uint32_t c = 0; c < n && viable; ++c) {
                    // A core past its instruction target no longer
                    // runs pipeline cycles; only its controller keeps
                    // ticking, so its stall bound is unlimited.
                    ffDone[c] = slices[c].cpu->committedInstructions() >=
                                target;
                    ffBudget[c] =
                        ffDone[c] ? maxTick
                                  : slices[c].cpu->cyclesUntilProgress();
                    viable = ffBudget[c] > 0;
                }
                if (viable) {
                    Tick horizon = std::min(nextEv - now, limit - now);
                    if (tk) {
                        // tk->tick() is a strict no-op before its next
                        // decay sweep; never skip across one.
                        const Tick sweep = tk->nextSweepAt();
                        horizon = std::min(
                            horizon, sweep > now ? sweep - now : Tick{0});
                    }
                    if (sampler) {
                        // Epoch boundaries land on exact ticks whether
                        // or not fast-forward is on (DESIGN.md §5e).
                        horizon = std::min(horizon,
                                           sampler->nextSampleAt() - now);
                    }
                    Tick jump = horizon;
                    for (std::uint32_t c = 0; c < n && jump > 0; ++c) {
                        jump = std::min(
                            jump, slices[c]
                                      .vsvCtrl
                                      ->planIdleAdvance(now, horizon,
                                                        ffBudget[c])
                                      .ticks);
                    }
                    if (jump > 0) {
                        for (std::uint32_t c = 0; c < n; ++c) {
                            const VsvController::IdleAdvance adv =
                                slices[c].vsvCtrl->advanceIdle(
                                    now, jump, ffBudget[c]);
                            VSV_ASSERT(adv.ticks == jump,
                                       "idle commit shorter than plan");
                            if (traceSink) {
                                traceSink->record(
                                    TraceCategory::FastForward,
                                    TraceEventKind::IdleSpan, now,
                                    adv.ticks, adv.edges,
                                    static_cast<std::uint16_t>(c));
                            }
                            if (!ffDone[c])
                                slices[c].cpu->skipIdleCycles(adv.edges);
                            slices[c].power->accrueIdleTicks(
                                adv.edges, adv.ticks - adv.edges);
                        }
                        if (uncorePower_) {
                            // The uncore clock never divides: every
                            // skipped tick is an edge tick there.
                            uncorePower_->accrueIdleTicks(jump, 0);
                        }
                        ffTicks += jump;
                        now += jump;
                        continue;
                    }
                }
            }
        }

        hierarchy->service(now);
        for (std::uint32_t c = 0; c < n; ++c) {
            CoreSlice &cs = slices[c];
            const bool edge = cs.vsvCtrl->beginTick(now);
            edgeThisTick[c] = edge;
            if (edge) {
                std::uint32_t issued = 0;
                if (cs.cpu->committedInstructions() < target)
                    issued = cs.cpu->cycle(now);
                cs.vsvCtrl->observeIssueRate(issued);
                lastIssued[c] = issued;
            }
        }
        if (tk)
            tk->tick(now);
        for (std::uint32_t c = 0; c < n; ++c)
            slices[c].power->tick(edgeThisTick[c] != 0);
        if (uncorePower_)
            uncorePower_->tick(true);
        ++now;
        if (now >= limit) {
            std::uint64_t committed = 0;
            for (const CoreSlice &cs : slices)
                committed += cs.cpu->committedInstructions();
            panic("simulation deadlock: " + std::to_string(committed) +
                  "/" + std::to_string(target * n) +
                  " instructions after " + std::to_string(now - start) +
                  " ticks (" + options.profile.name + ")");
        }
    }

    const auto wallEnd = std::chrono::steady_clock::now();

    if (sampler)
        sampler->finish(now);

    // Convert any idle ticks still banked in the power models so the
    // registered Scalars (read directly by stats dumps) are final.
    for (const CoreSlice &cs : slices)
        cs.power->flushIdle();
    if (uncorePower_)
        uncorePower_->flushIdle();
    for (const PowerModel &rp : replicaPower)
        rp.flushIdle();

    SimulationResult result;
    result.benchmark = options.profile.name;
    result.ticks = now - start;
    const auto ticks_d = static_cast<double>(result.ticks);

    double energy = 0.0;
    double low_frac_sum = 0.0;
    for (std::uint32_t c = 0; c < n; ++c) {
        const CoreSlice &cs = slices[c];
        result.instructions += cs.cpu->committedInstructions();
        result.pipelineCycles += cs.cpu->pipelineCycles();
        result.downTransitions += cs.vsvCtrl->downTransitions();
        result.upTransitions += cs.vsvCtrl->upTransitions();
        energy += cs.power->totalEnergyPj() - energy0[c];

        low_frac_sum +=
            static_cast<double>(cs.vsvCtrl->lowModeTicks()) / ticks_d;
    }
    if (uncorePower_)
        energy += uncorePower_->totalEnergyPj() - uncore_energy0;

    result.ipc = static_cast<double>(result.instructions) / ticks_d;
    result.mr = 1000.0 *
                static_cast<double>(hierarchy->demandL2MissCount() -
                                    misses0) /
                static_cast<double>(result.instructions);
    result.energyPj = energy;
    result.avgPowerW = result.energyPj / ticks_d * 1e-3;
    result.lowModeFraction = low_frac_sum / static_cast<double>(n);

    if (n > 1) {
        for (std::uint32_t c = 0; c < n; ++c) {
            const CoreSlice &cs = slices[c];
            CoreRunResult cr;
            cr.benchmark = cs.profile.name;
            cr.instructions = cs.cpu->committedInstructions();
            cr.pipelineCycles = cs.cpu->pipelineCycles();
            cr.ipc = static_cast<double>(cr.instructions) / ticks_d;
            cr.energyPj = cs.power->totalEnergyPj() - energy0[c];
            cr.downTransitions = cs.vsvCtrl->downTransitions();
            cr.upTransitions = cs.vsvCtrl->upTransitions();
            cr.lowModeFraction =
                static_cast<double>(cs.vsvCtrl->lowModeTicks()) / ticks_d;
            result.perCore.push_back(std::move(cr));
        }
    }

    result.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    result.kinstPerSec =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.instructions) /
                  result.wallSeconds / 1e3
            : 0.0;
    result.fastForwardedTicks = ffTicks;
    result.ffTickFraction = static_cast<double>(ffTicks) /
                            static_cast<double>(result.ticks);
    result.warmupSeconds = warmupSeconds_;

    // A replica's result is the leader's with its own energy: batch
    // members differ only in the power accounting.
    replicaResults_.reserve(replicaPower.size());
    for (std::size_t r = 0; r < replicaPower.size(); ++r) {
        SimulationResult rr = result;
        rr.energyPj =
            replicaPower[r].totalEnergyPj() - replicaEnergy0[r];
        rr.avgPowerW = rr.energyPj / ticks_d * 1e-3;
        replicaResults_.push_back(std::move(rr));
    }

    if (traceSink) {
        std::ofstream os(options.trace.path,
                         std::ios::out | std::ios::trunc);
        if (!os) {
            panic("cannot open trace output file: " +
                  options.trace.path);
        }
        traceSink->writeChromeJson(os, start, now);
        os.flush();
        if (!os) {
            panic("error writing trace output file: " +
                  options.trace.path);
        }
    }
    return result;
}

} // namespace vsv
