/**
 * @file
 * Leakage extension (the paper's deferred benefit): the introduction
 * notes that supply scaling also cuts leakage with ~VDD^3..4 but the
 * evaluation models dynamic power only (leakage is small at 0.18 um).
 * This bench sweeps the leakage share of total power - standing in
 * for newer technology nodes - and shows VSV's savings growing with
 * it: the low-voltage windows now also cut the leakage of the scaled
 * domain by (1.2/1.8)^3 = 0.30x, an effect clock gating cannot touch
 * at all.
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
        argc, argv, 200000, 300000, {"mcf", "ammp", "lucas"});

    // leakageFraction is per-structure relative to its busy-cycle
    // dynamic power; the resulting share of *total* power depends on
    // activity and is reported per run.
    const double fractions[] = {0.0, 0.03, 0.08, 0.15};
    const std::size_t nf = std::size(fractions);

    // Two runs (baseline + VSV) per benchmark x fraction cell.
    std::vector<SweepJob> jobs;
    for (const auto &bench : args.benchmarks) {
        for (std::size_t f = 0; f < nf; ++f) {
            SimulationOptions base = makeOptions(args, bench);
            applyRunSeed(base, args.seed);
            base.power.leakageFraction = fractions[f];
            const std::string stem =
                bench + "/frac" + TextTable::num(fractions[f], 2);
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            vsv.vsv = fsmVsvConfig();
            jobs.push_back({stem + "/vsv", vsv});
        }
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "ablation_leakage", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;

    std::cout << "Leakage-node ablation (paper future-work: VSV also "
                 "cuts leakage ~VDD^3)\n";
    std::cout << "(cells: VSV power savings %; leak share = leakage as "
                 "% of baseline energy)\n\n";

    std::vector<std::string> headers{"bench"};
    for (const double f : fractions)
        headers.push_back("frac " + TextTable::num(f, 2));
    headers.push_back("leak share @0.15");
    TextTable table(headers);

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        std::vector<std::string> row{args.benchmarks[b]};
        double last_leak_share = 0.0;
        for (std::size_t f = 0; f < nf; ++f) {
            const std::size_t cell = 2 * (b * nf + f);
            const SweepOutcome &base = outcomes[cell];
            // Leakage only accrues in the measured window, so divide
            // by the window's energy delta, not the lifetime total.
            last_leak_share =
                100.0 * base.scalars.at("power.energy.leakage") /
                base.result.energyPj;
            const VsvComparison cmp = makeComparison(
                base.result, outcomes[cell + 1].result);
            row.push_back(TextTable::num(cmp.powerSavingsPct, 1));
        }
        row.push_back(TextTable::num(last_leak_share, 1) + "%");
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nreading guide: VSV's savings persist as the "
                 "leakage share grows - the low-voltage\nwindows cut "
                 "the scaled domain's leakage by (1.2/1.8)^3 = 0.30x, "
                 "so leakage is saved\nat roughly the same rate as "
                 "dynamic power. Gating-based techniques, by contrast,"
                 "\ncannot reduce leakage at all, so VSV's relative "
                 "advantage grows with the node's\nleakiness - the "
                 "paper's deferred argument.\n";
    return 0;
}
