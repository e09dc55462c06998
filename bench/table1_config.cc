/**
 * @file
 * Table 1: the baseline processor configuration. Prints the modeled
 * configuration straight from the default config structs so the table
 * can never drift from the code. Runs no simulations; --json still
 * writes a manifest-only sweep document for provenance.
 */

#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(argc, argv, 0, 0);

    const CoreConfig core;
    const HierarchyConfig mem;
    const BranchPredictorConfig bp;
    const VsvConfig vsv;
    const PowerModelConfig power;
    const TimekeepingConfig tk;

    std::cout << "Table 1: Baseline processor configuration\n";
    std::cout << "==========================================\n\n";

    TextTable table({"Component", "Modeled configuration"});
    table.addRow({"Processor",
                  std::to_string(core.issueWidth) + "-way issue, " +
                      std::to_string(core.ruuSize) + " RUU, " +
                      std::to_string(core.lsqSize) + " LSQ, " +
                      std::to_string(core.fuPools.size(FuPool::IntAlu)) +
                      " int ALUs, " +
                      std::to_string(core.fuPools.size(FuPool::IntMulDiv)) +
                      " int mul/div, " +
                      std::to_string(core.fuPools.size(FuPool::FpAlu)) +
                      " FP ALUs, " +
                      std::to_string(core.fuPools.size(FuPool::FpMulDiv)) +
                      " FP mul/div; DCG + s/w prefetching"});
    table.addRow({"Branch prediction",
                  std::to_string(bp.bimodalEntries / 1024) + "K/" +
                      std::to_string(bp.gshareEntries / 1024) + "K/" +
                      std::to_string(bp.chooserEntries / 1024) +
                      "K hybrid; " + std::to_string(bp.rasEntries) +
                      "-entry RAS, " + std::to_string(bp.btbEntries) +
                      "-entry " + std::to_string(bp.btbAssoc) +
                      "-way BTB, " +
                      std::to_string(core.mispredictPenalty) +
                      "-cycle misprediction penalty"});
    table.addRow({"Caches",
                  std::to_string(mem.l1i.sizeBytes / 1024) + "KB " +
                      std::to_string(mem.l1i.assoc) + "-way " +
                      std::to_string(mem.l1i.hitLatency) +
                      "-cycle I/D L1, " +
                      std::to_string(mem.l2.sizeBytes / 1024 / 1024) +
                      "MB " + std::to_string(mem.l2.assoc) + "-way " +
                      std::to_string(mem.l2.hitLatency) +
                      "-cycle L2, both LRU"});
    table.addRow({"MSHR",
                  "IL1 - " + std::to_string(mem.l1iMshrs) + ", DL1 - " +
                      std::to_string(mem.l1dMshrs) + ", L2 - " +
                      std::to_string(mem.l2Mshrs)});
    table.addRow({"Memory",
                  "Infinite capacity, " +
                      std::to_string(mem.dram.latency) +
                      "-cycle latency"});
    table.addRow({"Memory bus",
                  std::to_string(mem.bus.widthBytes) +
                      "-byte wide, pipelined, split transaction, " +
                      std::to_string(mem.bus.occupancy) +
                      "-cycle occupancy"});
    table.addRow({"VSV supplies",
                  "VDDH " + TextTable::num(vsv.vddHigh, 1) + "V, VDDL " +
                      TextTable::num(vsv.vddLow, 1) + "V, slew " +
                      TextTable::num(vsv.slewVoltsPerTick, 2) +
                      "V/ns (12-cycle ramp), " +
                      TextTable::num(power.rampEnergyPj / 1000.0, 0) +
                      "nJ per ramp; 1/" +
                      std::to_string(vsv.clockDivider) +
                      " clock at VDDL"});
    table.addRow({"VSV FSMs",
                  "down-FSM threshold " +
                      std::to_string(vsv.down.threshold) + "/period " +
                      std::to_string(vsv.down.period) +
                      ", up-FSM threshold " +
                      std::to_string(vsv.up.threshold) + "/period " +
                      std::to_string(vsv.up.period)});
    table.addRow({"Time-Keeping",
                  std::to_string(tk.bufferEntries) +
                      "-entry FIFO prefetch buffer, " +
                      std::to_string(tk.decayResolution) +
                      "-cycle decay resolution, " +
                      std::to_string(tk.predictorEntries) +
                      "-entry address predictor"});
    table.print(std::cout);

    if (!args.jsonPath.empty()) {
        runSweep(args, "table1_config", {});
    } else {
        args.config.rejectUnknown("table1_config");
    }
    return 0;
}
