/**
 * @file
 * Run every kernel on every scheduler configuration and print the IPC
 * matrix — a compact view of the paper's whole argument: the 2-cycle
 * loop costs serial code dearly, select-free recovers speculatively,
 * macro-op scheduling recovers non-speculatively.
 */

#include <iostream>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sim/config.hh"
#include "stats/table.hh"

int
main()
{
    using namespace mop;

    const std::vector<sim::Machine> &machines = sim::allMachines();

    stats::Table t("IPC of every kernel on every scheduler "
                   "(32-entry issue queue)");
    std::vector<std::string> cols = {"kernel"};
    for (auto m : machines)
        cols.push_back(sim::machineName(m));
    t.setColumns(cols);

    for (const auto &k : prog::kernelNames()) {
        std::vector<std::string> row = {k};
        for (auto m : machines) {
            prog::Interpreter interp(
                prog::assemble(prog::kernelSource(k)));
            sim::RunConfig cfg;
            cfg.machine = m;
            cfg.iqEntries = 32;
            pipeline::OooCore core(sim::makeCoreParams(cfg), interp);
            row.push_back(stats::Table::fmt(core.run(1'000'000).ipc, 2));
        }
        t.addRow(row);
    }
    t.setFootnote("fib/hash are serial ALU chains (scheduler-bound); "
                  "chase is load-latency-bound; sort is branchy.");
    t.print(std::cout);
    return 0;
}
