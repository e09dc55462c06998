#include "simulator.hh"

#include <algorithm>
#include <chrono>

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
    if (n > 1)
        uncorePower_ = std::make_unique<PowerModel>(options.power);
    hierarchy = std::make_unique<MemoryHierarchy>(
        options.hierarchy, n > 1 ? *uncorePower_ : *slices[0].power, n);

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
    if (n > 1 && options.railPolicy == RailPolicy::SharedVote)
        arbiter = std::make_unique<RailArbiter>(n);
    if (!options.trace.path.empty())
        traceSink = std::make_unique<TraceSink>(options.trace.categories);

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
        if (n > 1)
            hierarchy->setCorePower(c, cs.power.get());
        hierarchy->setCoreMissListener(c, cs.vsvCtrl.get());
        cs.cpu = std::make_unique<Core>(options.core, *cs.source,
                                        *hierarchy, *cs.predictor,
                                        *cs.power);
        cs.cpu->setCoreId(c);
        if (arbiter) {
            cs.vsvCtrl->setRailArbiter(arbiter.get(), c);
            // One physical rail: core 0 represents its swing energy;
            // the others transition in lockstep without re-charging.
            cs.vsvCtrl->setChargeRampEnergy(c == 0);
        }
        if (traceSink) {
            const auto core16 = static_cast<std::uint16_t>(c);
            cs.power->setTraceSink(traceSink.get(), core16);
            cs.vsvCtrl->setTraceSink(traceSink.get(), core16);
            cs.cpu->setTraceSink(traceSink.get());
        }
    }
    if (traceSink)
        hierarchy->setTraceSink(traceSink.get());

    if (n == 1) {
        regSingleCoreStats(registry, *slices[0].power);
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
        uncorePower_->regStats(registry, "power");
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

/** The original single-core stat layout, name for name, priced by
 *  the leader's model or a lockstep replica's. */
void
Simulator::regSingleCoreStats(StatRegistry &reg,
                              const PowerModel &power) const
{
    power.regStats(reg, "power");
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

std::vector<const PowerModel *>
Simulator::powerModels() const
{
    std::vector<const PowerModel *> models;
    for (const CoreSlice &cs : slices)
        models.push_back(cs.power.get());
    if (uncorePower_)
        models.push_back(uncorePower_.get());
    for (const PowerModel &rp : replicaPower)
        models.push_back(&rp);
    return models;
}

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
        for (const auto &[region, footprint] :
             {std::pair{WorkloadRegions::hot, profile.hotFootprint},
              std::pair{WorkloadRegions::warm, profile.warmFootprint}}) {
            for (Addr offset = 0; offset < footprint; offset += 32) {
                hierarchy->warmupDataAccess(base + region + offset, false,
                                            warmupTicks++, c);
            }
        }
        for (Addr offset = 0; offset < profile.codeFootprint; offset += 32) {
            hierarchy->warmupInstAccess(base + WorkloadRegions::code + offset,
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
    for (std::size_t r = 0; r < m; ++r)
        regSingleCoreStats(replicaRegistries[r], replicaPower[r]);
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

/** Every warmup-mutable component in snapshot order: core 0 and the
 *  shared structures (the original layout), cores 1..N-1, uncore. */
template <typename Visit>
void
Simulator::visitWarmState(Visit &&visit) const
{
    const auto source = [&](const CoreSlice &cs) {
        if (cs.traceReader)
            visit(*cs.traceReader);
        else
            visit(*cs.workload);
    };
    visit(*slices[0].power);
    visit(*hierarchy);
    visit(*slices[0].predictor);
    if (tk)
        visit(*tk);
    if (stride)
        visit(*stride);
    source(slices[0]);
    for (std::size_t c = 1; c < slices.size(); ++c) {
        visit(*slices[c].power);
        visit(*slices[c].predictor);
        source(slices[c]);
    }
    if (uncorePower_)
        visit(*uncorePower_);
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

    visitWarmState([&](const auto &part) { part.snapshot(writer); });
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

        visitWarmState([&](auto &part) { part.restore(reader); });
        reader.expectEnd();
        warmupTicks = snapshot_warmup_ticks;
    } catch (const SnapshotError &e) {
        fatal(std::string("warmup snapshot unusable: ") + e.what());
    }
    warmedUp_ = true;
}

/**
 * run()'s state. It opens at the first measured tick with the baseline
 * warmup left behind (powerModels()' energy, the demand L2 misses).
 */
struct Simulator::MeasuredWindow
{
    explicit MeasuredWindow(const Simulator &sim)
        : start(sim.warmupTicks),
          now(start),
          target(sim.options.measureInstructions),
          // Deadlock guard: even mcf at IPC ~0.29 needs ~7 ticks per
          // instruction at half clock; 1000x (per core - the cores
          // share one bus) is unambiguous breakage.
          limit(start + 64 + 1000 * target * sim.cores()),
          lastIssued(sim.cores(), 1),
          ffBudget(sim.cores()),
          edgeThisTick(sim.cores())
    {
        for (const PowerModel *model : sim.powerModels())
            energy0.push_back(model->totalEnergyPj());
        misses0 = sim.hierarchy->demandL2MissCount();
    }

    bool finished(const Core &cpu) const
    {
        return cpu.committedInstructions() >= target;
    }

    const Tick start;
    Tick now;
    const std::uint64_t target;  ///< instructions per core
    const Tick limit;
    std::vector<double> energy0;
    std::uint64_t misses0 = 0;
    // lastIssued starts nonzero so the first measured tick always
    // takes the per-tick path (closing any power accesses left open
    // by warmup); afterwards a fast-forward is attempted only while
    // every core's last pipeline cycle issued nothing.
    std::vector<std::uint32_t> lastIssued;
    std::vector<Cycle> ffBudget;
    std::vector<char> edgeThisTick;
    Tick ffTicks = 0;
};

SimulationResult
Simulator::run()
{
    VSV_ASSERT(!ran, "Simulator::run() may only be called once");

    warmup();
    ran = true;
    MeasuredWindow w(*this);

    // Constructed here (not in the ctor) so the sampler's baselines
    // exclude warmup, like every other result delta.
    if (traceSink) {
        sampler = IntervalStatsSampler::forRun(
            *traceSink, registry, options.trace, cores(), w.start, [this] {
                double e = 0.0;
                for (const CoreSlice &cs : slices)
                    e += cs.power->peekTotalEnergyPj();
                if (uncorePower_)
                    e += uncorePower_->peekTotalEnergyPj();
                return e;
            });
    }

    const auto wallStart = std::chrono::steady_clock::now();
    AbortPoller poller(options.abortHook);
    const auto done = [&](const CoreSlice &cs) { return w.finished(*cs.cpu); };
    while (!std::all_of(slices.begin(), slices.end(), done)) {
        poller.poll("measurement");
        if (sampler && w.now >= sampler->nextSampleAt())
            sampler->sample(w.now);
        const Tick jump = options.fastForward ? planIdleJump(w) : 0;
        if (jump > 0)
            commitIdleJump(w, jump);
        else
            stepTick(w);
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wallStart;

    if (sampler)
        sampler->finish(w.now);
    SimulationResult result = collectResult(w, wall.count());
    if (traceSink) {
        traceSink->writeChromeJsonFile(options.trace.path, w.start,
                                       w.now);
    }
    return result;
}

/**
 * Idle-tick fast-forward: with every controller in a steady state, no
 * memory event due and every core provably stalled, the next ticks are
 * pure bookkeeping. Returns how many to apply in bulk (the minimum of
 * the per-core plans), or 0 to step the next tick (DESIGN.md §5d).
 */
Tick
Simulator::planIdleJump(MeasuredWindow &w) const
{
    const Tick now = w.now;
    for (std::uint32_t c = 0; c < cores(); ++c) {
        if (w.lastIssued[c] != 0 || !slices[c].vsvCtrl->inSteadyState())
            return 0;
    }
    const Tick nextEv = hierarchy->nextEventTick();
    if (nextEv <= now)
        return 0;
    for (std::uint32_t c = 0; c < cores(); ++c) {
        // A core past its instruction target no longer runs pipeline
        // cycles; only its controller keeps ticking, so its stall
        // bound is unlimited.
        const Core &cpu = *slices[c].cpu;
        w.ffBudget[c] = w.finished(cpu) ? maxTick : cpu.cyclesUntilProgress();
        if (w.ffBudget[c] == 0)
            return 0;
    }

    Tick horizon = std::min(nextEv - now, w.limit - now);
    if (tk) {
        // tk->tick() is a strict no-op before its next decay sweep;
        // never skip across one.
        const Tick sweep = tk->nextSweepAt();
        horizon = std::min(horizon, sweep > now ? sweep - now : Tick{0});
    }
    if (sampler) {
        // Epoch boundaries land on exact ticks whether or not
        // fast-forward is on (DESIGN.md §5e).
        horizon = std::min(horizon, sampler->nextSampleAt() - now);
    }
    Tick jump = horizon;
    for (std::uint32_t c = 0; c < cores() && jump > 0; ++c) {
        const VsvController &ctrl = *slices[c].vsvCtrl;
        jump = std::min(
            jump, ctrl.planIdleAdvance(now, horizon, w.ffBudget[c]).ticks);
    }
    return jump;
}

void
Simulator::commitIdleJump(MeasuredWindow &w, Tick jump)
{
    for (std::uint32_t c = 0; c < cores(); ++c) {
        CoreSlice &cs = slices[c];
        const VsvController::IdleAdvance adv =
            cs.vsvCtrl->advanceIdle(w.now, jump, w.ffBudget[c]);
        VSV_ASSERT(adv.ticks == jump, "idle commit shorter than plan");
        if (traceSink) {
            traceSink->record(TraceCategory::FastForward,
                              TraceEventKind::IdleSpan, w.now, adv.ticks,
                              adv.edges, static_cast<std::uint16_t>(c));
        }
        if (!w.finished(*cs.cpu))
            cs.cpu->skipIdleCycles(adv.edges);
        cs.power->accrueIdleTicks(adv.edges, adv.ticks - adv.edges);
    }
    // The uncore clock never divides: every skipped tick is an edge
    // tick there.
    if (uncorePower_)
        uncorePower_->accrueIdleTicks(jump, 0);
    w.ffTicks += jump;
    w.now += jump;
}

void
Simulator::stepTick(MeasuredWindow &w)
{
    const Tick now = w.now;
    hierarchy->service(now);
    for (std::uint32_t c = 0; c < cores(); ++c) {
        CoreSlice &cs = slices[c];
        const bool edge = cs.vsvCtrl->beginTick(now);
        w.edgeThisTick[c] = edge;
        if (edge) {
            const std::uint32_t issued =
                w.finished(*cs.cpu) ? 0 : cs.cpu->cycle(now);
            cs.vsvCtrl->observeIssueRate(issued);
            w.lastIssued[c] = issued;
        }
    }
    if (tk)
        tk->tick(now);
    for (std::uint32_t c = 0; c < cores(); ++c)
        slices[c].power->tick(w.edgeThisTick[c] != 0);
    if (uncorePower_)
        uncorePower_->tick(true);
    if (++w.now >= w.limit) {
        std::uint64_t committed = 0;
        for (const CoreSlice &cs : slices)
            committed += cs.cpu->committedInstructions();
        panic("simulation deadlock: " + std::to_string(committed) + "/" +
              std::to_string(w.target * cores()) +
              " instructions after " + std::to_string(w.now - w.start) +
              " ticks (" + options.profile.name + ")");
    }
}

SimulationResult
Simulator::collectResult(const MeasuredWindow &w, double wall_s)
{
    // Convert any idle ticks still banked in the power models so the
    // registered Scalars (read directly by stats dumps) are final.
    const std::vector<const PowerModel *> models = powerModels();
    for (const PowerModel *model : models)
        model->flushIdle();
    const auto energy = [&](std::size_t i) {
        return models[i]->totalEnergyPj() - w.energy0[i];
    };

    const std::uint32_t n = cores();
    SimulationResult result;
    result.benchmark = options.profile.name;
    result.ticks = w.now - w.start;
    const auto ticks_d = static_cast<double>(result.ticks);
    std::vector<CoreRunResult> per_core(n);
    double low_frac_sum = 0.0;
    for (std::uint32_t c = 0; c < n; ++c) {
        const CoreSlice &cs = slices[c];
        CoreRunResult &cr = per_core[c];
        cr.benchmark = cs.profile.name;
        cr.instructions = cs.cpu->committedInstructions();
        cr.pipelineCycles = cs.cpu->pipelineCycles();
        cr.ipc = static_cast<double>(cr.instructions) / ticks_d;
        cr.energyPj = energy(c);
        cr.downTransitions = cs.vsvCtrl->downTransitions();
        cr.upTransitions = cs.vsvCtrl->upTransitions();
        cr.lowModeFraction =
            static_cast<double>(cs.vsvCtrl->lowModeTicks()) / ticks_d;

        result.instructions += cr.instructions;
        result.pipelineCycles += cr.pipelineCycles;
        result.downTransitions += cr.downTransitions;
        result.upTransitions += cr.upTransitions;
        result.energyPj += cr.energyPj;
        low_frac_sum += cr.lowModeFraction;
    }
    if (uncorePower_)
        result.energyPj += energy(n);
    if (n > 1)
        result.perCore = std::move(per_core);

    result.ipc = static_cast<double>(result.instructions) / ticks_d;
    result.mr = 1000.0 *
                static_cast<double>(hierarchy->demandL2MissCount() -
                                    w.misses0) /
                static_cast<double>(result.instructions);
    result.avgPowerW = result.energyPj / ticks_d * 1e-3;
    result.lowModeFraction = low_frac_sum / static_cast<double>(n);
    result.wallSeconds = wall_s;
    result.kinstPerSec =
        wall_s > 0.0
            ? static_cast<double>(result.instructions) / wall_s / 1e3
            : 0.0;
    result.fastForwardedTicks = w.ffTicks;
    result.ffTickFraction = static_cast<double>(w.ffTicks) / ticks_d;
    result.warmupSeconds = warmupSeconds_;

    // A replica's result is the leader's with its own energy: batch
    // members differ only in the power accounting.
    const std::size_t first_replica = models.size() - replicaPower.size();
    replicaResults_.reserve(replicaPower.size());
    for (std::size_t r = 0; r < replicaPower.size(); ++r) {
        SimulationResult rr = result;
        rr.energyPj = energy(first_replica + r);
        rr.avgPowerW = rr.energyPj / ticks_d * 1e-3;
        replicaResults_.push_back(std::move(rr));
    }
    return result;
}

} // namespace vsv
