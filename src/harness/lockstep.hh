/**
 * @file
 * Config-parallel lockstep execution (DESIGN.md §5h): batch M sweep
 * configs that differ only in their PowerModelConfig into one
 * Simulator. The leader config runs end to end - micro-op stream,
 * branch prediction, caches, VSV controller - once, and every other
 * member is a follower PowerModel that prices the leader's activity
 * stream under its own power knobs (gating style/efficiency, idle and
 * leakage fractions, ramp energy).
 *
 * What may batch: configs equal in every option but `power`. The VSV
 * rail voltages and slew key the batch too, since followers charge at
 * the leader's pipeline VDD. VSV *does* change cache-hit counts
 * between baseline and FSM runs (the half-clock schedule shifts which
 * tick a miss is issued on), so the Figure-4 base/no-fsm/fsm axis
 * never shares a batch; the win is on power-characterization grids,
 * where one front-end feeds the whole grid.
 *
 * Fallback: any failure inside a batch re-runs every member serially
 * through the normal isolated path, so lockstep can make a sweep
 * faster but never less correct or less fault-tolerant.
 */

#ifndef VSV_HARNESS_LOCKSTEP_HH
#define VSV_HARNESS_LOCKSTEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace vsv
{

/**
 * Stable 64-bit hex fingerprint of every option but the power
 * accounting: configFingerprint() of the options with `power` reset
 * to PowerModelConfig{}. Two runs with equal structural fingerprints
 * drive identical micro-op streams, controller decisions and
 * per-tick power-model calls, which is exactly what licenses lockstep
 * batching.
 */
std::string structuralFingerprint(const SimulationOptions &options);

/**
 * Why a job cannot join a lockstep batch, or nullptr when it can.
 * The reasons are stable strings (manifest keys): "multi-core",
 * "event-tracing", "soft-timeout", "abort-hook".
 */
const char *lockstepIneligibleReason(const SweepJob &job);

/** One planned batch: indices into the job vector, submission order;
 *  members[0] is the leader (always >= 2 members). */
struct LockstepBatch
{
    std::vector<std::size_t> members;
};

/** How a grid was split into batches and serial remainders. */
struct LockstepPlan
{
    std::vector<LockstepBatch> batches;
    /** Jobs that run serially: ineligible, or in a group of one. */
    std::vector<std::size_t> serial;
};

/**
 * Group `jobs` by structural fingerprint, chunk each group to at most
 * `maxReplicas` members per batch, and record eligibility counters
 * into `stats` (batch/fallback counters are filled in by the runner).
 * maxReplicas < 2 plans everything serial.
 */
LockstepPlan planLockstep(const std::vector<SweepJob> &jobs,
                          unsigned maxReplicas, LockstepStats &stats);

/**
 * Execute one batch: leader simulator + one follower power model per
 * remaining member, one shared warmup (always fresh - a batch already
 * deduplicates its members' warmups by construction), one measured
 * window. Returns outcomes in member order, each carrying the same
 * result/scalars/stats dumps a serial run of that config produces,
 * bit for bit. No fault isolation here: exceptions and (throwing)
 * fatal() propagate, and the caller falls back to serial execution.
 */
std::vector<SweepOutcome>
runLockstepBatch(const std::vector<SweepJob> &jobs,
                 const std::vector<std::size_t> &members);

} // namespace vsv

#endif // VSV_HARNESS_LOCKSTEP_HH
