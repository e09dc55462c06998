/**
 * @file
 * The benchmark's workloads: the paper's own sweep grids, built the
 * way the per-figure binaries in bench/ build them, plus the model
 * accuracy figures each grid yields (README.md in this directory).
 */

#ifndef VSV_PERFBENCH_WORKLOADS_HH
#define VSV_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

/** Simulation window; 0 keeps the paper binary's default. */
struct Window
{
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    /** Time-Keeping warmup (table2 --tk-warmup); 0 = per profile. */
    std::uint64_t tkWarmup = 0;
};

/** One CLI invocation: its parsed flags and its grid. */
struct Step
{
    std::string tool;
    vsv::ExperimentArgs args;
    std::vector<vsv::SweepJob> jobs;
};

/** A workload is the steps a user would run back to back. */
struct Workload
{
    std::string name;
    std::vector<Step> steps;
    /** Result-store directory shared by the steps ("" = no store). */
    std::string storeDir;
};

/** Worker threads every workload runs with. */
constexpr unsigned kThreads = 4;

/**
 * Build a workload's grids, options and directories under `dir`
 * (created fresh; it must not exist yet). fatal() on an unknown name.
 */
Workload setupWorkload(const std::string &name, std::uint64_t seed,
                       const Window &window, const std::string &dir);

/** Model error of one workload's first step against the paper. */
struct Accuracy
{
    double ipcErrPct = 0.0;
    double saveErrPp = 0.0;
    double degErrPp = 0.0;
};

Accuracy computeAccuracy(const Workload &workload,
                         const std::vector<vsv::SweepOutcome> &firstStep);

} // namespace perfbench

#endif // VSV_PERFBENCH_WORKLOADS_HH
