/**
 * @file
 * Top-level simulator: wires one or more cores, the shared memory
 * hierarchy, the power models and one VSV controller per core
 * together and runs one benchmark configuration end to end.
 *
 * A run has two phases, mirroring the paper's methodology (fast-
 * forward with cache warmup, then detailed simulation):
 *
 *  1. Functional warmup: each core's trace is streamed through the
 *     caches, branch predictor and the Time-Keeping engine with no
 *     pipeline timing. This stands in for the paper's
 *     two-billion-instruction fast-forward: it removes cold misses
 *     from the measured window and - critically for Time-Keeping -
 *     trains the address predictor's correlations before measurement
 *     starts.
 *  2. Measured execution: the global tick loop. Each tick the memory
 *     system's events are serviced, every core's VSV controller
 *     advances (and decides whether that core's pipeline clock has an
 *     edge), cores run one pipeline cycle on their edges, the issue
 *     counts feed the per-core FSMs, and the power models close the
 *     tick.
 *
 * Multi-core topology (`cores` > 1): private L1s, predictors and
 * workload streams per core; one shared L2 + bus + DRAM with real
 * contention and per-requestor arbitration accounting. The voltage
 * rails follow the configured RailPolicy - fully independent per-core
 * rails, or one shared rail that only drops when every core's down
 * trigger agrees (an all-cores-stalled vote) and rises as soon as any
 * core wants back up. The single-core configuration is bit-identical
 * to the pre-multicore simulator.
 *
 * Results are deltas across the measured window only.
 */

#ifndef VSV_HARNESS_SIMULATOR_HH
#define VSV_HARNESS_SIMULATOR_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "power/model.hh"
#include "prefetch/stride.hh"
#include "prefetch/timekeeping.hh"
#include "stats/stats.hh"
#include "trace/interval.hh"
#include "trace/sink.hh"
#include "vsv/controller.hh"
#include "vsv/rail_policy.hh"
#include "workload/workload.hh"

namespace vsv
{

/**
 * Thrown by Simulator::run when the abort hook fires. The sweep
 * runner turns it into a per-run "timeout" outcome; outside a sweep
 * it propagates like any other exception.
 */
class SimulationAborted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything one run needs. */
struct SimulationOptions
{
    WorkloadProfile profile;
    /**
     * When set, replay this binary trace file instead of generating
     * the profile's synthetic stream; the profile is still used for
     * region pre-warm footprints and reporting.
     */
    std::string tracePath;
    /**
     * Wrap to the trace's first record when it is exhausted (false
     * makes exhaustion fatal). Every wrap is counted in the
     * `trace.wraps` stat so silently re-played traces are visible in
     * results.
     */
    bool traceLoop = true;
    std::uint64_t warmupInstructions = 300000;
    std::uint64_t measureInstructions = 1000000;
    bool timekeeping = false;  ///< enable the TK hardware prefetcher
    /** Enable the conventional stream prefetcher instead (mutually
     *  exclusive with timekeeping). */
    bool stridePrefetch = false;
    VsvConfig vsv{};           ///< vsv.enabled=false => baseline run
    /**
     * Number of cores (1..64). Each core gets private L1s, a private
     * branch predictor, its own workload stream in a disjoint
     * address-space slice, and its own VSV controller + power model;
     * the L2, memory bus and DRAM are shared. 1 = the original
     * single-core simulator, bit-identical.
     */
    std::uint32_t cores = 1;
    /** Rail topology for multi-core runs (ignored when cores == 1). */
    RailPolicy railPolicy = RailPolicy::PerCore;
    /**
     * Per-core benchmark names (multiprogrammed mix). Empty = every
     * core runs `profile` (with decorrelated seeds); otherwise must
     * hold exactly `cores` entries, each a calibrated SPEC2K name (an
     * empty entry falls back to `profile`).
     */
    std::vector<std::string> coreBenchmarks;
    /**
     * Idle-tick fast-forward: when every core is provably stalled and
     * no memory event is due, jump time forward and apply the skipped
     * ticks' bookkeeping in bulk. With multiple cores the jump is
     * capped at the nearest per-core progress horizon, so no core
     * skips past a tick where it could transition or observe.
     * Statistically invisible (results and stats are bit-identical
     * either way; see DESIGN.md §5d); disable (--no-fast-forward) to
     * force the paranoid per-tick loop.
     */
    bool fastForward = true;
    /**
     * Event tracing (trace.path empty = off). The measured window is
     * recorded into a TraceSink and written as Chrome trace-event
     * JSON at the end of run(); see OBSERVABILITY.md. Tracing never
     * perturbs results: stats are bit-identical with tracing on or
     * off, and fast-forwarded runs produce equivalent event streams
     * (DESIGN.md §5e).
     */
    TraceConfig trace{};
    /**
     * Soft abort hook: polled every few thousand loop iterations of
     * warmup and measurement; returning true raises
     * SimulationAborted. The sweep runner installs a wall-clock
     * deadline here for per-run soft timeouts (--timeout). Never
     * consulted when empty, so it cannot perturb results.
     */
    std::function<bool()> abortHook;
    PowerModelConfig power{};
    HierarchyConfig hierarchy{};
    CoreConfig core{};
    BranchPredictorConfig branch{};
    TimekeepingConfig tk{};
    StridePrefetcherConfig stride{};
};

/** Per-core metrics of a multi-core run (measured window only). */
struct CoreRunResult
{
    std::string benchmark;
    std::uint64_t instructions = 0;
    std::uint64_t pipelineCycles = 0;
    double ipc = 0.0;            ///< instructions per full-speed cycle
    double energyPj = 0.0;       ///< this core's private-model delta
    std::uint64_t downTransitions = 0;
    std::uint64_t upTransitions = 0;
    double lowModeFraction = 0.0;
};

/** Whole-run metrics (measured window only; sums across cores). */
struct SimulationResult
{
    std::string benchmark;
    std::uint64_t instructions = 0;
    Tick ticks = 0;              ///< wall time in full-speed cycles
    std::uint64_t pipelineCycles = 0;
    double ipc = 0.0;            ///< instructions per full-speed cycle
    double mr = 0.0;             ///< demand L2 misses / 1000 insts
    double energyPj = 0.0;
    double avgPowerW = 0.0;
    std::uint64_t downTransitions = 0;
    std::uint64_t upTransitions = 0;
    double lowModeFraction = 0.0;  ///< fraction of ticks at VDDL-ish

    /** Per-core breakdown; populated only when cores > 1. */
    std::vector<CoreRunResult> perCore;

    // Throughput observability (host-dependent; excluded from the
    // determinism contract - see DESIGN.md §5d).
    double wallSeconds = 0.0;      ///< host time in the measured loop
    double kinstPerSec = 0.0;      ///< simulated kilo-instructions/s
    Tick fastForwardedTicks = 0;   ///< ticks skipped by fast-forward
    double ffTickFraction = 0.0;   ///< fastForwardedTicks / ticks
    /** Host time of functional warmup; 0 when a snapshot was restored. */
    double warmupSeconds = 0.0;
};

/** One wired-up simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimulationOptions &options);
    ~Simulator();

    /** Run warmup + measurement; may be called once. */
    SimulationResult run();

    /**
     * Run the functional warmup now (idempotent; run() calls it
     * automatically when neither this nor restoreFrom() has run).
     * Splitting it out lets a caller warm up once, snapshotTo() the
     * result, and hand the bytes to other runs of the same
     * warmup-affecting configuration.
     */
    void warmup();

    /**
     * Serialize the post-warmup state of every warmup-mutable
     * component into `os` (see src/snapshot/snapshot.hh for the
     * format). Requires warmup() done and run() not yet called.
     * `fingerprint` is recorded in the header - pass
     * warmupFingerprint(options) so restores can verify provenance.
     */
    void snapshotTo(std::ostream &os, std::string_view fingerprint) const;

    /**
     * Adopt post-warmup state from a snapshot stream instead of
     * warming up; a following run() starts measuring immediately and
     * produces bit-identical results to a fresh-warmup run. Any
     * structural problem (corruption, truncation, version skew,
     * geometry/config/core-count mismatch, or - when
     * `expected_fingerprint` is non-empty - a fingerprint mismatch)
     * is a fatal(): throwable inside a sweep worker, where the cache
     * treats it as a miss.
     */
    void restoreFrom(std::istream &is,
                     std::string_view expected_fingerprint = {});

    /** True once warmup state exists (warmed up or restored). */
    bool warmedUp() const { return warmedUp_; }

    /**
     * Lockstep replicas (config-parallel execution, DESIGN.md §5h):
     * attach one extra PowerModelConfig that prices the same activity
     * stream as this simulator's own ("leader") configuration. A
     * replica is a follower PowerModel only: the leader's model
     * mirrors every mutator into it, and the leader's controller
     * drives the shared pipeline VDD - batch members share every
     * option but `power` (see structuralFingerprint()). Legal only for
     * single-core runs, before warmup()/run().
     */
    void addReplica(const PowerModelConfig &power);

    /** Replica r's measured-window results (valid after run()). */
    const SimulationResult &replicaResult(std::size_t r) const
    {
        return replicaResults_.at(r);
    }

    /**
     * Replica r's stat registry: its own power scalars plus the
     * shared front-end and controller scalars, registered in the exact
     * serial single-core order so stat dumps are bit-identical to a
     * serial run of that config.
     */
    const StatRegistry &replicaStats(std::size_t r) const
    {
        return replicaRegistries.at(r);
    }

    /** Access to the stat registry (valid after run()). */
    const StatRegistry &stats() const { return registry; }

    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(slices.size());
    }

    /** Component access for tests and examples. */
    const VsvController &controller(std::uint32_t c = 0) const
    {
        return *slices[c].vsvCtrl;
    }
    const MemoryHierarchy &memory() const { return *hierarchy; }
    const PowerModel &powerModel(std::uint32_t c = 0) const
    {
        return *slices[c].power;
    }
    const Core &core(std::uint32_t c = 0) const { return *slices[c].cpu; }

    /** The event sink, or nullptr when tracing is off. */
    const TraceSink *trace() const { return traceSink.get(); }

  private:
    /**
     * Everything private to one core: its power model (= the uncore
     * model too in single-core runs), branch predictor, workload
     * stream (offset into a disjoint address-space slice for cores
     * > 0), VSV controller and pipeline.
     */
    struct CoreSlice
    {
        WorkloadProfile profile;
        std::unique_ptr<PowerModel> power;
        std::unique_ptr<BranchPredictor> predictor;
        std::unique_ptr<WorkloadGenerator> workload;
        std::unique_ptr<TraceReader> traceReader;
        std::unique_ptr<TraceSource> offsetSource;
        TraceSource *source = nullptr;
        std::unique_ptr<VsvController> vsvCtrl;
        std::unique_ptr<Core> cpu;
    };

    /** run()'s measured-window state; defined in simulator.cc. */
    struct MeasuredWindow;

    void functionalWarmup();
    WorkloadProfile coreProfile(std::uint32_t c) const;
    /** Build replica state + fanout wiring; runs once, pre-warmup. */
    void materializeReplicas();
    template <typename Visit>
    void visitWarmState(Visit &&visit) const;
    void regSingleCoreStats(StatRegistry &reg, const PowerModel &power) const;
    /** Every model a run charges: each core's, the separate uncore
     *  model if any, then the lockstep replicas. */
    std::vector<const PowerModel *> powerModels() const;

    // The measured loop's steps (DESIGN.md §5d).
    Tick planIdleJump(MeasuredWindow &w) const;
    void commitIdleJump(MeasuredWindow &w, Tick jump);
    void stepTick(MeasuredWindow &w);
    SimulationResult collectResult(const MeasuredWindow &w, double wall_s);

    SimulationOptions options;
    StatRegistry registry;

    std::vector<CoreSlice> slices;
    /** Separate shared-structure model when cores > 1 (otherwise the
     *  uncore charges land on core 0's model, the original layout). */
    std::unique_ptr<PowerModel> uncorePower_;
    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<TimekeepingPrefetcher> tk;
    std::unique_ptr<StridePrefetcher> stride;
    std::unique_ptr<RailArbiter> arbiter;
    std::unique_ptr<TraceSink> traceSink;
    std::unique_ptr<IntervalStatsSampler> sampler;

    // Lockstep follower models. The leader's fanout and the replica
    // registries point into this arena, so materializeReplicas() takes
    // those pointers only after the last addReplica(). Empty in
    // ordinary (serial) runs.
    std::vector<PowerModel> replicaPower;
    std::vector<StatRegistry> replicaRegistries;
    std::vector<SimulationResult> replicaResults_;

    Tick warmupTicks = 0;
    double warmupSeconds_ = 0.0;  ///< host time of functionalWarmup()
    bool warmedUp_ = false;
    bool ran = false;
};

} // namespace vsv

#endif // VSV_HARNESS_SIMULATOR_HH
