/**
 * @file
 * Trace-driven, 8-way out-of-order superscalar core in the
 * sim-outorder (RUU/LSQ) tradition, configured per the paper's
 * Table 1.
 *
 * Pipeline model, executed once per *pipeline cycle* (the VSV
 * controller decides which global ticks carry a pipeline clock edge):
 *
 *   commit   - in-order retire of completed RUU entries (8/cycle);
 *              stores perform their D-cache write here (write-buffer
 *              semantics: commit only needs the access *accepted*)
 *   complete - ops whose execution latency elapsed wake dependents;
 *              branches resolve (train the predictor, start the
 *              8-cycle misprediction recovery clock)
 *   issue    - oldest-first select of ready RUU entries onto free
 *              functional units (8/cycle); loads probe the LSQ for
 *              store forwarding, then access the D-cache through a
 *              limited number of ports; MSHR-full rejections retry
 *   dispatch - in-order move from the fetch queue into RUU + LSQ,
 *              resolving producer distances to sequence numbers
 *   fetch    - up to 8 ops/cycle from the trace through the L1I;
 *              fetch stops at a branch the predictor (checked against
 *              the trace outcome) would mispredict, and resumes a
 *              fixed penalty after that branch resolves - the classic
 *              trace-driven stall model of wrong-path fetch
 *
 * Memory disambiguation is optimistic (loads wait only for earlier
 * stores to the same 8-byte word; unknown store addresses are assumed
 * non-aliasing), which sim-outorder calls perfect disambiguation.
 *
 * Every structure access is charged to the PowerModel, giving the
 * per-cycle activity that deterministic clock gating and VSV act on.
 */

#ifndef VSV_CPU_CORE_HH
#define VSV_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "isa/funcunits.hh"
#include "isa/microop.hh"
#include "power/model.hh"
#include "stats/stats.hh"
#include "workload/workload.hh"

namespace vsv
{

/** Core configuration (defaults = Table 1). */
struct CoreConfig
{
    std::uint32_t fetchWidth = 8;
    std::uint32_t dispatchWidth = 8;
    std::uint32_t issueWidth = 8;
    std::uint32_t commitWidth = 8;
    std::uint32_t ruuSize = 128;
    std::uint32_t lsqSize = 64;
    std::uint32_t fetchQueueSize = 16;
    std::uint32_t mispredictPenalty = 8;
    std::uint32_t dcachePorts = 4;
    FuPoolSizes fuPools{};
};

/** The core. */
class Core
{
  public:
    Core(const CoreConfig &config, TraceSource &workload,
         MemoryHierarchy &memory, BranchPredictor &predictor,
         PowerModel &power);

    /**
     * Run one pipeline cycle whose clock edge falls on global tick
     * `now`.
     * @return instructions issued this cycle (the FSMs' input signal)
     */
    std::uint32_t cycle(Tick now);

    std::uint64_t committedInstructions() const
    {
        return static_cast<std::uint64_t>(committed.value());
    }
    Cycle pipelineCycles() const { return cycleNum; }

    /**
     * How many upcoming pipeline cycles are provably pure stall
     * cycles, assuming no memory-system event fires in between (the
     * caller bounds the answer by `hierarchy->nextEventTick()`).
     *
     * A pure stall cycle performs no stage work and records no power
     * accesses; its only effects are the cycle counter, the zero-issue
     * statistics, and at most one dispatch-stall counter - exactly
     * what skipIdleCycles() replays in bulk. Returns 0 when the next
     * cycle may make progress (or burn power trying: a ready entry
     * blocked on a unit/port still charges the LSQ CAM or consumes a
     * functional unit, so it disqualifies the fast path). Returns
     * maxTick when only a memory event can wake the core.
     */
    Cycle cyclesUntilProgress() const;

    /**
     * Apply the bookkeeping of `edges` consecutive pure stall cycles
     * (pipeline-edge ticks only; edgeless ticks never reach the core).
     * Bit-identical to running cycle() that many times under the
     * cyclesUntilProgress() preconditions.
     */
    void skipIdleCycles(Cycle edges);

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Attach an event sink (nullptr = tracing off, the default). */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /**
     * Which core of the hierarchy this pipeline drives (default 0).
     * Routes cache accesses to the right private L1s and tags trace
     * events with the originating core.
     */
    void setCoreId(std::uint32_t id) { coreId = id; }

  private:
    enum class EntryStatus : std::uint8_t
    {
        Empty,
        Dispatched,  ///< in the window, waiting for operands/unit
        Issued,      ///< executing (or load waiting for memory)
        Completed    ///< result available; dependents may issue
    };

    static constexpr std::uint32_t noLink = ~std::uint32_t{0};

    /** One RUU (register update unit) slot. */
    struct RuuEntry
    {
        MicroOp op;
        InstSeqNum seq = invalidSeqNum;
        EntryStatus status = EntryStatus::Empty;
        InstSeqNum src1 = invalidSeqNum;  ///< producer (0 = ready)
        InstSeqNum src2 = invalidSeqNum;
        Cycle completeCycle = 0;  ///< valid when Issued (non-memory)
        bool memPending = false;  ///< load in the memory system
        /** In-flight producers this entry still waits on (0-2). */
        std::uint8_t pendingSrcs = 0;
        std::uint32_t lsqSlot = 0;
        BranchPrediction pred;    ///< branches only
        bool fetchMispredicted = false;
        /**
         * Head of this entry's consumer list, and this entry's own
         * link in each producer's list (one per source operand). A
         * link encodes `slot * 2 + operand`; noLink ends a list.
         */
        std::uint32_t firstConsumer = noLink;
        std::uint32_t nextConsumer[2] = {noLink, noLink};
    };

    /** One LSQ slot. */
    struct LsqEntry
    {
        InstSeqNum seq = invalidSeqNum;
        Addr wordAddr = 0;       ///< 8-byte-aligned effective address
        bool isStore = false;
        bool addrReady = false;  ///< agen done (stores)
    };

    /** An op fetched but not yet dispatched. */
    struct FetchedOp
    {
        MicroOp op;
        InstSeqNum seq;
        BranchPrediction pred;
        bool fetchMispredicted = false;
    };

    // Pipeline stages (called youngest-last so results flow across
    // cycles, not within one).
    void commitStage(Tick now);
    void completeStage(Tick now);
    std::uint32_t issueStage(Tick now);
    void dispatchStage();
    void fetchStage(Tick now);

    RuuEntry &slot(InstSeqNum seq);
    std::uint32_t slotIndex(InstSeqNum seq) const
    {
        return static_cast<std::uint32_t>(seq % config.ruuSize);
    }
    bool producerReady(InstSeqNum producer) const;

    /** Link source `operand` of the entry in `idx` to its producer
     *  if that producer has not completed yet. */
    void waitOn(InstSeqNum producer, std::uint32_t idx,
                std::uint32_t operand);
    /** A producer completed: wake the consumers waiting on it. */
    void wakeConsumers(RuuEntry &producer);
    /** Queue an Issued non-memory entry for its completeCycle. */
    void scheduleCompletion(std::uint32_t idx);

    /** True if an older store to the same word can forward. */
    bool storeForwards(const RuuEntry &entry) const;

    /** Try to start the memory access of a ready load/prefetch. */
    bool startMemoryAccess(RuuEntry &entry, Tick now);

    /** Acquire a functional unit for cls at this cycle. */
    bool acquireUnit(OpClass cls);

    CoreConfig config;
    TraceSource &workload;
    MemoryHierarchy &memory;
    BranchPredictor &predictor;
    PowerModel &power;

    Cycle cycleNum = 0;

    // Fetch state.
    std::deque<FetchedOp> fetchQueue;
    InstSeqNum nextFetchSeq = 1;
    InstSeqNum blockingBranch = invalidSeqNum;
    Cycle fetchResumeCycle = 0;
    bool icacheStall = false;

    // Window state.
    std::vector<RuuEntry> ruu;
    InstSeqNum headSeq = 1;  ///< oldest in-flight sequence number
    InstSeqNum tailSeq = 1;  ///< next sequence number to dispatch
    std::uint32_t ruuOccupancy = 0;

    std::vector<LsqEntry> lsq;
    std::uint32_t lsqHead = 0;
    std::uint32_t lsqTail = 0;
    std::uint32_t lsqOccupancy = 0;

    // Event-driven scheduling (DESIGN.md §5d). Both structures are
    // bitmaps over RUU slots, scanned from the head slot so that bit
    // order is age order.
    /** Words per RUU-slot bitmap: ceil(ruuSize / 64). */
    std::uint32_t slotWords;
    /** Dispatched entries whose producers have all completed. */
    std::vector<std::uint64_t> readyMask;
    /**
     * Completion wheel: bucket `c % wheelSize` holds the Issued
     * non-memory entries whose completeCycle is c (or c plus a
     * multiple of wheelSize, for latencies beyond one lap).
     */
    static constexpr std::uint32_t wheelSize = 64;
    std::vector<std::uint64_t> wheel;  ///< wheelSize * slotWords words
    std::uint64_t wheelOccupied = 0;   ///< bit b: bucket b non-empty

    /** opTiming() per op class, looked up once at construction. */
    std::array<OpTiming, static_cast<std::size_t>(OpClass::NumOpClasses)>
        timingOf;
    const OpTiming &timing(OpClass cls) const
    {
        return timingOf[static_cast<std::size_t>(cls)];
    }

    /** Per-pool unit free times (pipeline cycles). */
    std::vector<std::vector<Cycle>> unitFreeAt;
    std::uint32_t dcachePortsUsed = 0;

    TraceSink *trace = nullptr;
    std::uint32_t coreId = 0;  ///< hierarchy core this pipeline drives

    // Statistics.
    Scalar committed;
    Scalar issuedTotal;
    Scalar fetched;
    Scalar loadsExecuted;
    Scalar storesExecuted;
    Scalar swPrefetchesExecuted;
    Scalar storeForwardCount;
    Scalar branchesResolved;
    Scalar mispredictRecoveries;
    Scalar zeroIssueCycles;
    Scalar ruuFullStalls;
    Scalar lsqFullStalls;
    Scalar memRetries;
    Distribution issueRateDist{0, 8, 1};
};

} // namespace vsv

#endif // VSV_CPU_CORE_HH
