#include "core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vsv
{

namespace
{

/** Map an op class onto the power structure of its execution unit. */
PowerStructure
unitPowerStructure(OpClass cls)
{
    switch (cls) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return PowerStructure::IntMulDiv;
      case OpClass::FpAlu:
        return PowerStructure::FpAlu;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return PowerStructure::FpMulDiv;
      default:
        // Integer ops, branches and memory address generation all use
        // the integer ALUs.
        return PowerStructure::IntAlu;
    }
}

/**
 * Visit the set bits of an n-word slot bitmap in age order: from bit
 * `start` up, then wrapping from bit 0 to just below `start`. `visit(idx)`
 * returns false to stop the scan. Each word is loaded when the scan
 * reaches it (the start word twice, high part first), so bits the
 * visitor clears behind the scan are never revisited.
 */
template <typename Visit>
void
scanFrom(const std::uint64_t *words, std::uint32_t n, std::uint32_t start,
         Visit &&visit)
{
    const std::uint32_t first = start / 64;
    const std::uint64_t high = ~std::uint64_t{0} << (start % 64);
    for (std::uint32_t i = 0; i <= n; ++i) {
        const std::uint32_t w = (first + i) % n;
        std::uint64_t bits = words[w];
        if (i == 0)
            bits &= high;
        else if (i == n)
            bits &= ~high;
        while (bits != 0) {
            const auto idx =
                w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            if (!visit(idx))
                return;
        }
    }
}

inline void
setBit(std::uint64_t *words, std::uint32_t idx)
{
    words[idx / 64] |= std::uint64_t{1} << (idx % 64);
}

inline void
clearBit(std::uint64_t *words, std::uint32_t idx)
{
    words[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
}

} // namespace

Core::Core(const CoreConfig &config, TraceSource &workload,
           MemoryHierarchy &memory, BranchPredictor &predictor,
           PowerModel &power)
    : config(config),
      workload(workload),
      memory(memory),
      predictor(predictor),
      power(power),
      ruu(config.ruuSize),
      lsq(config.lsqSize),
      slotWords((config.ruuSize + 63) / 64),
      readyMask(slotWords, 0),
      wheel(std::size_t{wheelSize} * slotWords, 0)
{
    VSV_ASSERT(config.ruuSize > 0 && config.lsqSize > 0,
               "window sizes must be nonzero");
    for (std::size_t cls = 0; cls < timingOf.size(); ++cls)
        timingOf[cls] = opTiming(static_cast<OpClass>(cls));
    unitFreeAt.resize(numFuPools);
    for (std::size_t pool = 0; pool < numFuPools; ++pool) {
        unitFreeAt[pool].assign(
            config.fuPools.count[pool], 0);
    }
}

Core::RuuEntry &
Core::slot(InstSeqNum seq)
{
    return ruu[slotIndex(seq)];
}

bool
Core::producerReady(InstSeqNum producer) const
{
    if (producer == invalidSeqNum || producer < headSeq)
        return true;  // no producer, or already committed
    const RuuEntry &entry = ruu[slotIndex(producer)];
    // The producer is in flight: readiness is its completion.
    return entry.seq == producer && entry.status == EntryStatus::Completed;
}

void
Core::waitOn(InstSeqNum producer, std::uint32_t idx, std::uint32_t operand)
{
    if (producerReady(producer))
        return;
    RuuEntry &from = slot(producer);
    RuuEntry &entry = ruu[idx];
    entry.nextConsumer[operand] = from.firstConsumer;
    from.firstConsumer = idx * 2 + operand;
    ++entry.pendingSrcs;
}

void
Core::wakeConsumers(RuuEntry &producer)
{
    std::uint32_t link = producer.firstConsumer;
    producer.firstConsumer = noLink;
    while (link != noLink) {
        const std::uint32_t idx = link / 2;
        RuuEntry &consumer = ruu[idx];
        link = consumer.nextConsumer[link % 2];
        if (--consumer.pendingSrcs == 0)
            setBit(readyMask.data(), idx);
    }
}

void
Core::scheduleCompletion(std::uint32_t idx)
{
    const auto bucket =
        static_cast<std::uint32_t>(ruu[idx].completeCycle % wheelSize);
    setBit(&wheel[std::size_t{bucket} * slotWords], idx);
    wheelOccupied |= std::uint64_t{1} << bucket;
}

bool
Core::storeForwards(const RuuEntry &entry) const
{
    const LsqEntry &self = lsq[entry.lsqSlot];
    std::uint32_t idx = entry.lsqSlot;
    while (idx != lsqHead) {
        idx = (idx == 0 ? config.lsqSize : idx) - 1;
        const LsqEntry &other = lsq[idx];
        if (other.seq == invalidSeqNum || other.seq >= entry.seq)
            continue;
        if (other.isStore && other.addrReady &&
            other.wordAddr == self.wordAddr) {
            return true;
        }
        // Stores with unresolved addresses are optimistically assumed
        // not to alias (perfect disambiguation).
    }
    return false;
}

bool
Core::acquireUnit(OpClass cls)
{
    const OpTiming &t = timing(cls);
    auto &units = unitFreeAt[static_cast<std::size_t>(t.pool)];
    for (Cycle &free_at : units) {
        if (free_at <= cycleNum) {
            free_at = cycleNum + (t.pipelined ? 1 : t.latency);
            return true;
        }
    }
    return false;
}

bool
Core::startMemoryAccess(RuuEntry &entry, Tick now)
{
    const bool is_store = entry.op.cls == OpClass::Store;
    const bool is_prefetch = entry.op.cls == OpClass::Prefetch;
    const std::uint32_t latency = timing(entry.op.cls).latency;

    if (is_store) {
        // Store issue = address generation; the write happens at
        // commit through the write buffer.
        lsq[entry.lsqSlot].addrReady = true;
        entry.completeCycle = cycleNum + latency;
        return true;
    }

    power.recordAccess(PowerStructure::LsqCam);
    if (!is_prefetch && storeForwards(entry)) {
        ++storeForwardCount;
        entry.completeCycle = cycleNum + latency;
        return true;
    }

    if (dcachePortsUsed >= config.dcachePorts)
        return false;
    ++dcachePortsUsed;

    if (is_prefetch) {
        // Non-binding: complete regardless of the memory outcome; a
        // rejected prefetch is simply dropped.
        memory.dataAccess(entry.op.addr, false, true, now, {}, coreId);
        entry.completeCycle = cycleNum + latency;
        ++swPrefetchesExecuted;
        return true;
    }

    const InstSeqNum seq = entry.seq;
    const MemAccessOutcome outcome = memory.dataAccess(
        entry.op.addr, false, false, now, [this, seq](Tick) {
            RuuEntry &load = slot(seq);
            VSV_ASSERT(load.seq == seq && load.memPending,
                       "memory response for a stale load");
            load.memPending = false;
            load.status = EntryStatus::Completed;
            wakeConsumers(load);
            power.recordAccess(PowerStructure::ResultBus);
            power.recordAccess(PowerStructure::RuuCam);
            power.recordAccess(PowerStructure::RegFile);
        },
        coreId);

    if (!outcome.accepted) {
        ++memRetries;
        if (trace) {
            trace->record(TraceCategory::Core, TraceEventKind::MemRetry,
                          now, seq, 0,
                          static_cast<std::uint16_t>(coreId));
        }
        return false;
    }
    ++loadsExecuted;
    if (outcome.immediate) {
        entry.completeCycle = cycleNum + latency + outcome.latencyCycles;
    } else {
        entry.memPending = true;
        entry.completeCycle = 0;
    }
    return true;
}

void
Core::commitStage(Tick now)
{
    for (std::uint32_t n = 0; n < config.commitWidth; ++n) {
        if (headSeq >= tailSeq)
            return;
        RuuEntry &entry = slot(headSeq);
        VSV_ASSERT(entry.seq == headSeq, "RUU head slot mismatch");
        if (entry.status != EntryStatus::Completed)
            return;

        if (entry.op.cls == OpClass::Store) {
            if (dcachePortsUsed >= config.dcachePorts)
                return;
            const MemAccessOutcome outcome = memory.dataAccess(
                entry.op.addr, true, false, now, {}, coreId);
            if (!outcome.accepted) {
                ++memRetries;
                if (trace) {
                    trace->record(TraceCategory::Core,
                                  TraceEventKind::MemRetry, now,
                                  entry.seq, 0,
                                  static_cast<std::uint16_t>(coreId));
                }
                return;  // write buffer full; retry next cycle
            }
            ++dcachePortsUsed;
            ++storesExecuted;
        }

        if (isMemOp(entry.op.cls)) {
            VSV_ASSERT(lsq[lsqHead].seq == entry.seq,
                       "LSQ head out of order with RUU head");
            lsq[lsqHead].seq = invalidSeqNum;
            lsqHead = (lsqHead + 1) % config.lsqSize;
            --lsqOccupancy;
        }

        power.recordAccess(PowerStructure::RuuRam);
        power.recordAccess(PowerStructure::PipelineLatches);
        entry.status = EntryStatus::Empty;
        ++committed;
        ++headSeq;
        --ruuOccupancy;
    }
}

void
Core::completeStage(Tick now)
{
    const auto bucket = static_cast<std::uint32_t>(cycleNum % wheelSize);
    if ((wheelOccupied >> bucket & 1) == 0)
        return;

    // The bucket's entries complete in ascending seq order: branch
    // resolution trains the predictor in that order.
    std::uint64_t *due = &wheel[std::size_t{bucket} * slotWords];
    bool later_lap = false;
    const auto complete = [&](std::uint32_t idx) {
        RuuEntry &entry = ruu[idx];
        if (entry.completeCycle > cycleNum) {
            later_lap = true;
            return true;
        }
        clearBit(due, idx);
        entry.status = EntryStatus::Completed;
        wakeConsumers(entry);
        power.recordAccess(PowerStructure::ResultBus);
        power.recordAccess(PowerStructure::RuuCam);  // wakeup broadcast
        power.recordAccess(PowerStructure::RegFile); // result write
        power.recordAccess(PowerStructure::LevelConverters);

        if (entry.op.cls == OpClass::Branch) {
            power.recordAccess(PowerStructure::BranchPred);
            const bool mispredicted =
                predictor.resolve(entry.op, entry.pred);
            ++branchesResolved;
            if (entry.seq == blockingBranch) {
                VSV_ASSERT(mispredicted == entry.fetchMispredicted,
                           "fetch/resolve misprediction disagreement");
                fetchResumeCycle = cycleNum + config.mispredictPenalty;
                blockingBranch = invalidSeqNum;
                ++mispredictRecoveries;
                if (trace) {
                    trace->record(TraceCategory::Core,
                                  TraceEventKind::Mispredict, now,
                                  entry.seq, 0,
                                  static_cast<std::uint16_t>(coreId));
                }
            }
        }
        return true;
    };
    scanFrom(due, slotWords, slotIndex(headSeq), complete);
    if (!later_lap)
        wheelOccupied &= ~(std::uint64_t{1} << bucket);
}

std::uint32_t
Core::issueStage(Tick now)
{
    // Oldest-first select over the ready entries. An entry that finds
    // no free unit, or whose memory access is refused, stays ready
    // (a refused access still holds its unit and charged the LSQ CAM).
    std::uint32_t issued = 0;
    const auto try_issue = [&](std::uint32_t idx) {
        if (issued >= config.issueWidth)
            return false;
        RuuEntry &entry = ruu[idx];
        if (!acquireUnit(entry.op.cls))
            return true;

        if (isMemOp(entry.op.cls)) {
            if (!startMemoryAccess(entry, now))
                return true;  // ports exhausted or MSHR full: retry
        } else {
            entry.completeCycle = cycleNum + timing(entry.op.cls).latency;
        }

        entry.status = EntryStatus::Issued;
        clearBit(readyMask.data(), idx);
        if (!entry.memPending)
            scheduleCompletion(idx);
        ++issued;

        power.recordAccess(unitPowerStructure(entry.op.cls));
        power.recordAccess(PowerStructure::RuuCam);  // select/payload
        power.recordAccess(PowerStructure::RegFile, 2);  // operand reads
        power.recordAccess(PowerStructure::LevelConverters, 2);
        power.recordAccess(PowerStructure::PipelineLatches);
        return true;
    };
    scanFrom(readyMask.data(), slotWords, slotIndex(headSeq), try_issue);

    issuedTotal += static_cast<double>(issued);
    issueRateDist.sample(issued);
    if (issued == 0)
        ++zeroIssueCycles;
    return issued;
}

void
Core::dispatchStage()
{
    for (std::uint32_t n = 0; n < config.dispatchWidth; ++n) {
        if (fetchQueue.empty())
            return;
        if (ruuOccupancy >= config.ruuSize) {
            ++ruuFullStalls;
            return;
        }
        const FetchedOp &fo = fetchQueue.front();
        if (isMemOp(fo.op.cls) && lsqOccupancy >= config.lsqSize) {
            ++lsqFullStalls;
            return;
        }

        const std::uint32_t idx = slotIndex(tailSeq);
        RuuEntry &entry = ruu[idx];
        VSV_ASSERT(entry.status == EntryStatus::Empty,
                   "dispatch into an occupied RUU slot");
        entry.op = fo.op;
        entry.seq = tailSeq;
        entry.status = EntryStatus::Dispatched;
        entry.memPending = false;
        entry.pred = fo.pred;
        entry.fetchMispredicted = fo.fetchMispredicted;
        entry.src1 = fo.op.depDist1 != 0 && tailSeq > fo.op.depDist1
                         ? tailSeq - fo.op.depDist1
                         : invalidSeqNum;
        entry.src2 = fo.op.depDist2 != 0 && tailSeq > fo.op.depDist2
                         ? tailSeq - fo.op.depDist2
                         : invalidSeqNum;

        // Ready now, or woken when the last pending producer
        // completes (a doubled source waits once).
        entry.pendingSrcs = 0;
        waitOn(entry.src1, idx, 0);
        if (entry.src2 != entry.src1)
            waitOn(entry.src2, idx, 1);
        if (entry.pendingSrcs == 0)
            setBit(readyMask.data(), idx);

        if (isMemOp(fo.op.cls)) {
            LsqEntry &mem = lsq[lsqTail];
            mem.seq = tailSeq;
            mem.wordAddr = fo.op.addr & ~Addr{7};
            mem.isStore = fo.op.cls == OpClass::Store;
            mem.addrReady = false;
            entry.lsqSlot = lsqTail;
            lsqTail = (lsqTail + 1) % config.lsqSize;
            ++lsqOccupancy;
        }

        power.recordAccess(PowerStructure::RenameLogic);
        power.recordAccess(PowerStructure::RuuRam);
        power.recordAccess(PowerStructure::PipelineLatches);

        fetchQueue.pop_front();
        ++tailSeq;
        ++ruuOccupancy;
    }
}

void
Core::fetchStage(Tick now)
{
    if (icacheStall)
        return;
    if (blockingBranch != invalidSeqNum || cycleNum < fetchResumeCycle)
        return;
    if (fetchQueue.size() >= config.fetchQueueSize)
        return;

    bool accessed_icache = false;
    for (std::uint32_t n = 0; n < config.fetchWidth; ++n) {
        if (fetchQueue.size() >= config.fetchQueueSize)
            break;

        FetchedOp fo;
        fo.op = workload.next();
        fo.seq = nextFetchSeq++;

        if (!accessed_icache) {
            accessed_icache = true;
            const MemAccessOutcome outcome = memory.instFetch(
                fo.op.pc, now, [this](Tick) { icacheStall = false; },
                coreId);
            if (!outcome.accepted) {
                // L1I MSHRs full; retry the whole fetch next cycle.
                // The op is already drawn from the trace, so keep it.
            } else if (!outcome.immediate) {
                icacheStall = true;
            }
        }

        power.recordAccess(PowerStructure::FetchLogic);
        power.recordAccess(PowerStructure::PipelineLatches);

        bool stop_fetch = icacheStall;
        if (fo.op.cls == OpClass::Branch) {
            power.recordAccess(PowerStructure::BranchPred);
            fo.pred = predictor.predict(fo.op);
            fo.fetchMispredicted =
                BranchPredictor::wouldMispredict(fo.op, fo.pred);
            if (fo.fetchMispredicted) {
                // The trace holds only correct-path ops; model
                // wrong-path fetch as a stall until this branch
                // resolves plus the recovery penalty.
                blockingBranch = fo.seq;
                fetchResumeCycle = maxTick;
                stop_fetch = true;
            } else if (fo.op.taken) {
                // Fetch does not continue past a taken branch within
                // the same cycle.
                stop_fetch = true;
            }
        }

        fetchQueue.push_back(fo);
        ++fetched;
        if (stop_fetch)
            break;
    }
}

Cycle
Core::cyclesUntilProgress() const
{
    // Commit: a Completed head retires (or retries a store write,
    // touching the write buffer) on the very next cycle.
    if (headSeq < tailSeq &&
        ruu[headSeq % config.ruuSize].status == EntryStatus::Completed) {
        return 0;
    }

    Cycle limit = maxTick;

    // Fetch: an unblocked fetch draws from the trace next cycle. The
    // icache stall clears only via a memory event (caller's bound);
    // a blocking branch resolves only via completion (bounded below);
    // a full fetch queue drains only via dispatch (checked below).
    const bool fetch_blocked_indefinitely =
        icacheStall || blockingBranch != invalidSeqNum ||
        fetchQueue.size() >= config.fetchQueueSize;
    if (!fetch_blocked_indefinitely) {
        if (fetchResumeCycle <= cycleNum + 1)
            return 0;
        limit = std::min(limit, fetchResumeCycle - 1 - cycleNum);
    }

    // Dispatch: only a full RUU (or a full LSQ for a memory op at the
    // queue head) stalls it; either stall bumps a per-cycle counter
    // that skipIdleCycles() replays.
    if (!fetchQueue.empty()) {
        const bool ruu_full = ruuOccupancy >= config.ruuSize;
        const bool lsq_full = isMemOp(fetchQueue.front().op.cls) &&
                              lsqOccupancy >= config.lsqSize;
        if (!ruu_full && !lsq_full)
            return 0;
    }

    // Window: a ready entry would issue (or charge the LSQ CAM /
    // consume a unit while failing to); an Issued non-memory entry
    // completes on its wheel bucket's cycle. Entries waiting on
    // in-flight producers stay blocked until one of those completions
    // (or a memory event) lands.
    for (const std::uint64_t word : readyMask) {
        if (word != 0)
            return 0;
    }
    if (wheelOccupied != 0) {
        // The first occupied bucket after this cycle's. An entry a
        // lap or more away makes the bound early, never late.
        const int ahead = std::countr_zero(std::rotr(
            wheelOccupied, static_cast<int>((cycleNum + 1) % wheelSize)));
        if (ahead == 0)
            return 0;
        limit = std::min(limit, static_cast<Cycle>(ahead));
    }
    return limit;
}

void
Core::skipIdleCycles(Cycle edges)
{
    cycleNum += edges;
    issueRateDist.sample(0, edges);
    zeroIssueCycles += static_cast<double>(edges);
    // issuedTotal += 0 per cycle is a bit-exact no-op.
    if (!fetchQueue.empty()) {
        if (ruuOccupancy >= config.ruuSize)
            ruuFullStalls += static_cast<double>(edges);
        else if (isMemOp(fetchQueue.front().op.cls) &&
                 lsqOccupancy >= config.lsqSize)
            lsqFullStalls += static_cast<double>(edges);
    }
}

std::uint32_t
Core::cycle(Tick now)
{
    ++cycleNum;
    dcachePortsUsed = 0;

    commitStage(now);
    completeStage(now);
    const std::uint32_t issued = issueStage(now);
    dispatchStage();
    fetchStage(now);
    return issued;
}

void
Core::regStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerScalar(prefix + ".committed", &committed,
                            "instructions committed");
    registry.registerScalar(prefix + ".issued", &issuedTotal,
                            "instructions issued");
    registry.registerScalar(prefix + ".fetched", &fetched,
                            "instructions fetched");
    registry.registerScalar(prefix + ".loads", &loadsExecuted,
                            "loads sent to the memory system");
    registry.registerScalar(prefix + ".stores", &storesExecuted,
                            "stores written at commit");
    registry.registerScalar(prefix + ".swPrefetches",
                            &swPrefetchesExecuted,
                            "software prefetches executed");
    registry.registerScalar(prefix + ".storeForwards", &storeForwardCount,
                            "loads satisfied by store forwarding");
    registry.registerScalar(prefix + ".branches", &branchesResolved,
                            "branches resolved");
    registry.registerScalar(prefix + ".mispredictRecoveries",
                            &mispredictRecoveries,
                            "fetch stalls released after mispredictions");
    registry.registerScalar(prefix + ".zeroIssueCycles", &zeroIssueCycles,
                            "pipeline cycles issuing nothing");
    registry.registerScalar(prefix + ".ruuFullStalls", &ruuFullStalls,
                            "dispatch stalls on a full RUU");
    registry.registerScalar(prefix + ".lsqFullStalls", &lsqFullStalls,
                            "dispatch stalls on a full LSQ");
    registry.registerScalar(prefix + ".memRetries", &memRetries,
                            "memory accesses rejected and retried");
    registry.registerDistribution(prefix + ".issueRate", &issueRateDist,
                                  "instructions issued per cycle");
}

} // namespace vsv
