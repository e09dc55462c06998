#include "workloads.hh"

#include <cmath>
#include <filesystem>
#include <map>

#include "common/logging.hh"

using namespace vsv;

namespace perfbench
{

namespace
{

// The grid builders below repeat bench/table2_baseline.cc,
// fig4_fsm_effect.cc, fig5_down_thresholds.cc and
// fig6_up_thresholds.cc job for job, so the benchmark times exactly
// the runs those binaries execute.

std::vector<SweepJob>
table2Jobs(const ExperimentArgs &args)
{
    const std::uint64_t tk_warmup = args.config.getUInt("tk-warmup", 0);
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions tk = makeOptions(name, true, args.instructions,
                                           tk_warmup);
        tk.fastForward = args.fastForward;
        applyRunSeed(tk, args.seed);
        jobs.push_back({name + "/tk", tk});
    }
    return jobs;
}

std::vector<SweepJob>
fig4Jobs(const ExperimentArgs &args)
{
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
    return jobs;
}

std::vector<SweepJob>
fig5Jobs(const ExperimentArgs &args)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const std::uint32_t threshold : {0u, 1u, 3u, 5u}) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.down = {threshold, 10};
            jobs.push_back(
                {name + "/down-" + std::to_string(threshold), opts});
        }
    }
    return jobs;
}

std::vector<SweepJob>
fig6Jobs(const ExperimentArgs &args)
{
    struct Variant
    {
        const char *label;
        UpPolicy policy;
        std::uint32_t threshold;
    };
    const Variant variants[] = {
        {"first-r", UpPolicy::FirstR, 0},
        {"up-1", UpPolicy::Fsm, 1},
        {"up-3", UpPolicy::Fsm, 3},
        {"up-5", UpPolicy::Fsm, 5},
        {"last-r", UpPolicy::LastR, 0},
    };
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const Variant &variant : variants) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.upPolicy = variant.policy;
            if (variant.policy == UpPolicy::Fsm)
                opts.vsv.up = {variant.threshold, 10};
            jobs.push_back({name + "/" + variant.label, opts});
        }
    }
    return jobs;
}

/** Parse the flags a user would type for one invocation of `tool`. */
Step
makeStep(const std::string &tool, std::uint64_t seed, const Window &window,
         const std::string &json, const std::string &storeDir,
         const std::string &snapshotDir,
         const std::vector<std::string> &benchmarks)
{
    std::vector<std::string> flags{
        tool, "--jobs=" + std::to_string(kThreads),
        "--seed=" + std::to_string(seed), "--json=" + json};
    if (!storeDir.empty())
        flags.push_back("--store-dir=" + storeDir);
    if (!snapshotDir.empty())
        flags.push_back("--snapshot-dir=" + snapshotDir);
    if (window.instructions != 0)
        flags.push_back("--instructions=" +
                        std::to_string(window.instructions));
    if (window.warmup != 0)
        flags.push_back("--warmup=" + std::to_string(window.warmup));
    if (window.tkWarmup != 0 && tool == "table2_baseline")
        flags.push_back("--tk-warmup=" + std::to_string(window.tkWarmup));

    std::vector<char *> argv;
    for (std::string &flag : flags)
        argv.push_back(flag.data());
    Step step;
    step.tool = tool;
    step.args = parseExperimentArgs(static_cast<int>(argv.size()),
                                    argv.data(), 400000, 300000,
                                    benchmarks);
    if (tool == "table2_baseline")
        step.jobs = table2Jobs(step.args);
    else if (tool == "fig4_fsm_effect")
        step.jobs = fig4Jobs(step.args);
    else if (tool == "fig5_down_thresholds")
        step.jobs = fig5Jobs(step.args);
    else
        step.jobs = fig6Jobs(step.args);
    return step;
}

/** Run id -> outcome, for the "<benchmark>/<variant>" ids above. */
std::map<std::string, const SweepOutcome *>
byId(const std::vector<SweepOutcome> &outcomes)
{
    std::map<std::string, const SweepOutcome *> out;
    for (const SweepOutcome &o : outcomes)
        out[o.id] = &o;
    return out;
}

} // namespace

Workload
setupWorkload(const std::string &name, std::uint64_t seed,
              const Window &window, const std::string &dir)
{
    if (!std::filesystem::create_directories(dir))
        fatal("work directory already exists: " + dir);
    Workload w;
    w.name = name;
    if (name == "fig4") {
        w.steps.push_back(makeStep("fig4_fsm_effect", seed, window,
                                   dir + "/fig4.json", "", "",
                                   spec2kBenchmarks()));
    } else if (name == "table2") {
        w.steps.push_back(makeStep("table2_baseline", seed, window,
                                   dir + "/table2.json", "", "",
                                   spec2kBenchmarks()));
    } else if (name == "fig56-store") {
        // Figure 5, Figure 6, then Figure 5 again through one store
        // and one snapshot directory: three separate invocations.
        w.storeDir = dir + "/store";
        const std::string snapshots = dir + "/snapshots";
        std::filesystem::create_directories(w.storeDir);
        std::filesystem::create_directories(snapshots);
        int i = 0;
        for (const char *tool : {"fig5_down_thresholds",
                                 "fig6_up_thresholds",
                                 "fig5_down_thresholds"}) {
            w.steps.push_back(makeStep(
                tool, seed, window,
                dir + "/" + std::to_string(i++) + "-" + tool + ".json",
                w.storeDir, snapshots, highMrBenchmarks()));
        }
    } else {
        fatal("unknown workload: " + name);
    }
    return w;
}

Accuracy
computeAccuracy(const Workload &workload,
                const std::vector<SweepOutcome> &firstStep)
{
    // The paper's Section 5 averages for MR > 4 with the FSMs.
    constexpr double kPaperSavePct = 20.7;
    constexpr double kPaperDegPct = 2.0;

    // Which run of a benchmark carries the paper's FSM configuration
    // (down 3/10, up 3/10). table2 runs VSV off: its saving and
    // slowdown are 0, so its distance is the paper's figure itself.
    std::string fsm_variant;
    if (workload.name == "fig4")
        fsm_variant = "fsm";
    else if (workload.name == "fig56-store")
        fsm_variant = "down-3";

    const auto runs = byId(firstStep);
    double ipc_err = 0.0, save = 0.0, deg = 0.0;
    int bases = 0, high = 0;
    for (const auto &name : workload.steps.front().args.benchmarks) {
        const SimulationResult &base = runs.at(name + "/base")->result;
        const WorkloadProfile profile = spec2kProfile(name);
        ipc_err += std::abs(base.ipc - profile.targetIpc) /
                   profile.targetIpc;
        ++bases;
        if (fsm_variant.empty() || base.mr <= 4.0)
            continue;
        const VsvComparison cmp = makeComparison(
            base, runs.at(name + "/" + fsm_variant)->result);
        save += cmp.powerSavingsPct;
        deg += cmp.perfDegradationPct;
        ++high;
    }
    Accuracy a;
    a.ipcErrPct = 100.0 * ipc_err / bases;
    a.saveErrPp = std::abs((high ? save / high : 0.0) - kPaperSavePct);
    a.degErrPp = std::abs((high ? deg / high : 0.0) - kPaperDegPct);
    return a;
}

} // namespace perfbench
