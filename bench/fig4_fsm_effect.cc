/**
 * @file
 * Figure 4: VSV's performance degradation (top) and total CPU power
 * savings (bottom) for all SPEC2K benchmarks, with and without the
 * FSMs, sorted by decreasing baseline MR. Also prints the paper's
 * summary averages (all benchmarks, and the MR > 4 subset).
 *
 * Flags: --instructions=N --warmup=N --benchmarks=a,b,c
 *        --jobs=N --json=path --seed=S
 */

#include <algorithm>
#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

namespace
{

struct Row
{
    std::string name;
    double mr;
    VsvComparison noFsm;
    VsvComparison withFsm;
};

} // namespace

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, spec2kBenchmarks());

    // Three runs per benchmark: baseline, VSV without FSMs, VSV with
    // the paper's FSMs. All three share the benchmark's workload seed
    // so the comparison is apples to apples.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});

        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "fig4_fsm_effect", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;

    std::vector<Row> rows;
    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        const SimulationResult &base = outcomes[3 * b + 0].result;
        Row row;
        row.name = args.benchmarks[b];
        row.mr = base.mr;
        row.noFsm = makeComparison(base, outcomes[3 * b + 1].result);
        row.withFsm = makeComparison(base, outcomes[3 * b + 2].result);
        rows.push_back(row);
    }

    // The paper plots benchmarks sorted by decreasing MR.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) { return a.mr > b.mr; });

    std::cout << "Figure 4: VSV results with and without the FSMs\n";
    std::cout << "(sorted by decreasing baseline MR; deg = performance "
                 "degradation %, save = CPU power savings %)\n\n";

    TextTable table({"bench", "MR", "deg noFSM", "deg FSM", "save noFSM",
                     "save FSM"});
    struct Avg
    {
        double degNo = 0, degFsm = 0, saveNo = 0, saveFsm = 0;
        int n = 0;
    } all, high;

    for (const Row &row : rows) {
        table.addRow({row.name,
                      TextTable::num(row.mr, 1),
                      TextTable::num(row.noFsm.perfDegradationPct, 1),
                      TextTable::num(row.withFsm.perfDegradationPct, 1),
                      TextTable::num(row.noFsm.powerSavingsPct, 1),
                      TextTable::num(row.withFsm.powerSavingsPct, 1)});
        auto add = [&](Avg &avg) {
            avg.degNo += row.noFsm.perfDegradationPct;
            avg.degFsm += row.withFsm.perfDegradationPct;
            avg.saveNo += row.noFsm.powerSavingsPct;
            avg.saveFsm += row.withFsm.powerSavingsPct;
            ++avg.n;
        };
        add(all);
        if (row.mr > 4.0)
            add(high);
    }
    table.print(std::cout);

    auto report = [](const char *label, const Avg &avg) {
        if (avg.n == 0)
            return;
        std::cout << label << " (n=" << avg.n << "): "
                  << "noFSM " << TextTable::num(avg.saveNo / avg.n, 1)
                  << "% save / " << TextTable::num(avg.degNo / avg.n, 1)
                  << "% deg;  FSM "
                  << TextTable::num(avg.saveFsm / avg.n, 1) << "% save / "
                  << TextTable::num(avg.degFsm / avg.n, 1) << "% deg\n";
    };
    std::cout << '\n';
    report("MR>4 benchmarks", high);
    report("all benchmarks ", all);
    std::cout << "\npaper: MR>4 noFSM 33%/12%, FSM 21%/2%; "
                 "all-benchmark FSM 7%/1%\n";
    return 0;
}
