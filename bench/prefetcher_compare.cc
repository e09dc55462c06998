/**
 * @file
 * Prefetcher comparison (extension of the paper's Section 6.4 stress
 * test): how much of VSV's opportunity survives under (a) no hardware
 * prefetching, (b) a conventional stream/stride prefetcher, and
 * (c) Time-Keeping. For each engine: the residual demand miss rate
 * and VSV-with-FSMs savings/degradation against the matching
 * baseline.
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
        argc, argv, 200000, 0, {"mcf", "ammp", "applu", "lucas", "swim"});

    const char *const engines[] = {"none", "stride", "tk"};

    // Two runs (matching baseline + VSV) per benchmark x engine cell.
    std::vector<SweepJob> jobs;
    for (const auto &bench : args.benchmarks) {
        for (int engine = 0; engine < 3; ++engine) {
            SimulationOptions base =
                makeOptions(args, bench, engine == 2);
            applyRunSeed(base, args.seed);
            base.stridePrefetch = engine == 1;
            if (engine == 1) {
                // The stream prefetcher trains fast; the long TK
                // warmup is unnecessary but harmless - reuse the
                // profile's to keep cache state comparable.
                base.warmupInstructions =
                    base.profile.tkWarmupInstructions;
            }
            const std::string stem =
                bench + "/" + engines[engine];
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            vsv.vsv = fsmVsvConfig();
            jobs.push_back({stem + "/vsv", vsv});
        }
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "prefetcher_compare", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;

    std::cout << "VSV opportunity under different hardware "
                 "prefetchers\n";
    std::cout << "(per engine: residual MR | VSV degradation % / "
                 "savings %)\n\n";

    TextTable table({"bench", "none", "stride", "timekeeping"});

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        std::vector<std::string> row{args.benchmarks[b]};
        for (int engine = 0; engine < 3; ++engine) {
            const std::size_t cell = 2 * (b * 3 + engine);
            const SimulationResult &base_result = outcomes[cell].result;
            const VsvComparison cmp = makeComparison(
                base_result, outcomes[cell + 1].result);
            row.push_back(TextTable::num(base_result.mr, 1) + " | " +
                          TextTable::num(cmp.perfDegradationPct, 1) +
                          "/" + TextTable::num(cmp.powerSavingsPct, 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nreading guide: both prefetchers shrink the miss "
                 "rate (and with it VSV's\nopportunity), but neither "
                 "eliminates it - the paper's Section 6.4 argument,\n"
                 "here extended to a conventional stream prefetcher.\n";
    return 0;
}
