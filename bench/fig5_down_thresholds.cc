/**
 * @file
 * Figure 5: effect of the down-FSM monitoring threshold (0, 1, 3, 5
 * consecutive zero-issue cycles within a 10-cycle period) on the
 * MR > 4 benchmarks. The up-FSM is fixed at threshold 3 / period 10.
 *
 * Flags: --instructions=N --warmup=N --benchmarks=a,b,c
 *        --jobs=N --json=path --seed=S
 */

#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, highMrBenchmarks());

    const std::uint32_t thresholds[] = {0, 1, 3, 5};

    // Five runs per benchmark: the baseline plus one per threshold.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const std::uint32_t threshold : thresholds) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.down = {threshold, 10};
            jobs.push_back(
                {name + "/down-" + std::to_string(threshold), opts});
        }
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "fig5_down_thresholds", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;
    const std::size_t stride = 1 + std::size(thresholds);

    std::cout << "Figure 5: Effects of thresholds on high-to-low "
                 "transitions (MR > 4 benchmarks)\n";
    std::cout << "(per threshold: performance degradation % / power "
                 "savings %)\n\n";

    TextTable table({"bench", "thr 0", "thr 1", "thr 3", "thr 5"});

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        const SimulationResult &base = outcomes[stride * b].result;
        std::vector<std::string> cells{args.benchmarks[b]};
        for (std::size_t t = 0; t < std::size(thresholds); ++t) {
            const VsvComparison cmp = makeComparison(
                base, outcomes[stride * b + 1 + t].result);
            cells.push_back(TextTable::num(cmp.perfDegradationPct, 1) +
                            "/" + TextTable::num(cmp.powerSavingsPct, 1));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    std::cout << "\npaper shape: low thresholds save most power but "
                 "degrade most (swim 13% at thr 0);\n"
                 "threshold 3 keeps degradation under ~5% while beating "
                 "threshold 5 savings.\n";
    return 0;
}
