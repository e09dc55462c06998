/**
 * @file
 * The traced pass: feeds a workload's grid through the layers' public
 * calls (ResultStore::lookup/insert/flush, planLockstep, Simulator
 * construction/warmup/snapshotTo/restoreFrom/run, StatRegistry dumps,
 * writeSweepJson) on the same scheduling as runSweep, and puts a span
 * around each call. Spans stay in memory and are written out as a
 * Chrome trace-event file after the pass.
 */

#ifndef VSV_PERFBENCH_TRACED_PASS_HH
#define VSV_PERFBENCH_TRACED_PASS_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

/** One reported figure: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct TracedPass
{
    /** Host time from the first step's start to the last export. */
    double wallSeconds = 0.0;
    /** Outcomes per step, in submission order. */
    std::vector<std::vector<vsv::SweepOutcome>> outcomes;
    /** Per-layer metrics (self times, counts, simulated counts). */
    std::vector<Metric> metrics;
};

/** Run the traced pass; write the spans to `tracePath` if non-empty. */
TracedPass runTracedPass(const Workload &workload,
                         const std::string &tracePath);

} // namespace perfbench

#endif // VSV_PERFBENCH_TRACED_PASS_HH
