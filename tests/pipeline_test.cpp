/**
 * @file
 * Integration tests of the full out-of-order core: every scheduler
 * configuration runs every kernel and synthetic workload with the
 * dataflow invariant checker enabled; performance-ordering and
 * queue-contention properties from the paper are asserted.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"

namespace
{

using namespace mop;
using sim::Machine;
using sim::RunConfig;

pipeline::SimResult
runKernel(const std::string &kernel, Machine m, int iq = 32)
{
    prog::Interpreter interp(
        prog::assemble(prog::kernelSource(kernel)));
    RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = iq;
    pipeline::OooCore core(sim::makeCoreParams(cfg), interp);
    return core.run(10'000'000);
}

const std::vector<Machine> kMachines = {
    Machine::Base,
    Machine::TwoCycle,
    Machine::MopCam,
    Machine::MopWiredOr,
    Machine::SelectFreeSquashDep,
    Machine::SelectFreeScoreboard,
};

/** Every (machine, kernel) combination must drain with the dataflow
 *  invariant checker on, and commit the same instruction count. */
class MachineKernelTest
    : public ::testing::TestWithParam<std::tuple<Machine, std::string>>
{
};

TEST_P(MachineKernelTest, RunsToCompletionWithInvariants)
{
    auto [m, kernel] = GetParam();
    pipeline::SimResult r = runKernel(kernel, m);
    pipeline::SimResult base = runKernel(kernel, Machine::Base);
    EXPECT_GT(r.insts, 0u);
    EXPECT_EQ(r.insts, base.insts)
        << "committed instruction count must not depend on scheduling";
    EXPECT_GT(r.ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MachineKernelTest,
    ::testing::Combine(::testing::ValuesIn(kMachines),
                       ::testing::ValuesIn(mop::prog::kernelNames())),
    [](const auto &info) {
        std::string n = sim::machineName(std::get<0>(info.param));
        n += "_" + std::get<1>(info.param);
        for (auto &c : n)
            if (!isalnum(uint8_t(c)))
                c = '_';
        return n;
    });

TEST(PipelineOrdering, TwoCycleSlowerOnDependentChain)
{
    // fib is a serial dependence chain: the pipelined 2-cycle loop
    // must cost real IPC, and macro-op grouping must recover most of it.
    auto base = runKernel("fib", Machine::Base);
    auto two = runKernel("fib", Machine::TwoCycle);
    auto mo = runKernel("fib", Machine::MopWiredOr);
    EXPECT_LT(two.ipc, base.ipc * 0.85);
    EXPECT_GT(mo.ipc, two.ipc * 1.05);
}

TEST(PipelineOrdering, HashKernelMopRecoversMostOfLoss)
{
    auto base = runKernel("hash", Machine::Base);
    auto two = runKernel("hash", Machine::TwoCycle);
    auto mo = runKernel("hash", Machine::MopWiredOr);
    EXPECT_LT(two.ipc, base.ipc);
    EXPECT_GT(mo.ipc, two.ipc);
    EXPECT_GT(mo.groupedFrac(), 0.25);
}

TEST(PipelineOrdering, GroupingOnlyUnderMopMachines)
{
    EXPECT_EQ(runKernel("hash", Machine::Base).groupedFrac(), 0.0);
    EXPECT_EQ(runKernel("hash", Machine::TwoCycle).groupedFrac(), 0.0);
    EXPECT_GT(runKernel("hash", Machine::MopCam).groupedFrac(), 0.0);
}

TEST(PipelineContention, MopReducesQueuePressure)
{
    // Figure 15's mechanism: two instructions share one issue entry,
    // so fewer entries are consumed for the same committed stream.
    auto two = runKernel("hash", Machine::TwoCycle);
    auto mo = runKernel("hash", Machine::MopWiredOr);
    EXPECT_LT(mo.iqEntriesInserted, mo.uopsInserted);
    EXPECT_EQ(two.iqEntriesInserted, two.uopsInserted);
    // Section 6.3 reports a ~16% average reduction; demand at least
    // a tenth on this grouping-friendly kernel.
    EXPECT_LT(double(mo.iqEntriesInserted),
              0.9 * double(mo.uopsInserted));
}

TEST(PipelineMemory, ChaseKernelStressesLoadUse)
{
    // Pointer chasing: load-to-load chains; MOPs cannot help much but
    // the machine must stay correct and loads dominate the time.
    auto base = runKernel("chase", Machine::Base);
    auto mo = runKernel("chase", Machine::MopWiredOr);
    EXPECT_EQ(base.insts, mo.insts);
    // The walk is a serial load-to-load chain: roughly one instruction
    // per cycle (3 insts per ~3-cycle load-to-use), far below peak.
    EXPECT_LT(base.ipc, 1.3);
}

TEST(PipelineBranches, SortKernelHasMispredicts)
{
    auto r = runKernel("sort", Machine::Base);
    EXPECT_GT(r.mispredicts, 0u);
}

class SyntheticMachineTest : public ::testing::TestWithParam<Machine>
{
};

TEST_P(SyntheticMachineTest, SyntheticWorkloadRunsWithInvariants)
{
    RunConfig cfg;
    cfg.machine = GetParam();
    cfg.iqEntries = 32;
    auto r = sim::runBenchmark("gzip", cfg, 30000);
    // The 4-wide commit stage may overshoot the target by a few insts.
    EXPECT_GE(r.insts, 30000u);
    EXPECT_LT(r.insts, 30004u);
    EXPECT_GT(r.ipc, 0.1);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, SyntheticMachineTest,
                         ::testing::ValuesIn(kMachines),
                         [](const auto &info) {
                             std::string n = sim::machineName(info.param);
                             for (auto &c : n)
                                 if (!isalnum(uint8_t(c)))
                                     c = '_';
                             return n;
                         });

TEST(SyntheticPipeline, ReplaysOccurOnMissyWorkload)
{
    RunConfig cfg;
    cfg.machine = Machine::Base;
    auto r = sim::runBenchmark("mcf", cfg, 30000);
    EXPECT_GT(r.replays, 0u);  // load-hit speculation mis-schedules
}

TEST(SyntheticPipeline, McfFarSlowerThanGzip)
{
    RunConfig cfg;
    cfg.machine = Machine::Base;
    auto mcf = sim::runBenchmark("mcf", cfg, 30000);
    auto gzip = sim::runBenchmark("gzip", cfg, 30000);
    EXPECT_LT(mcf.ipc, gzip.ipc * 0.6);
}

TEST(SyntheticPipeline, UnrestrictedQueueBeatsSmallQueue)
{
    RunConfig small;
    small.machine = Machine::Base;
    small.iqEntries = 32;
    RunConfig big = small;
    big.iqEntries = 0;
    auto r_small = sim::runBenchmark("gap", small, 40000);
    auto r_big = sim::runBenchmark("gap", big, 40000);
    EXPECT_GE(r_big.ipc, r_small.ipc * 0.98);  // Table 2's two columns
}

TEST(SyntheticPipeline, ExtraFormationStagesCostLittle)
{
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.extraStages = 0;
    auto s0 = sim::runBenchmark("gzip", cfg, 40000);
    cfg.extraStages = 2;
    auto s2 = sim::runBenchmark("gzip", cfg, 40000);
    EXPECT_GE(s2.ipc, s0.ipc * 0.9);
    EXPECT_LE(s2.ipc, s0.ipc * 1.02);
}

TEST(SyntheticPipeline, GroupedFractionInPlausibleRange)
{
    // Figure 13: 28-46% of committed instructions grouped.
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    auto r = sim::runBenchmark("gzip", cfg, 50000);
    EXPECT_GT(r.groupedFrac(), 0.15);
    EXPECT_LT(r.groupedFrac(), 0.75);
    uint64_t grouped =
        r.groupCounts[size_t(pipeline::GroupClass::MopValueGen)] +
        r.groupCounts[size_t(pipeline::GroupClass::MopNonValueGen)] +
        r.groupCounts[size_t(pipeline::GroupClass::IndependentMop)];
    uint64_t total = 0;
    for (uint64_t c : r.groupCounts)
        total += c;
    EXPECT_EQ(total, r.insts);
    EXPECT_GT(grouped, 0u);
}

TEST(SyntheticPipeline, WiredOrGroupsAtLeastAsMuchAsCam)
{
    RunConfig cam;
    cam.machine = Machine::MopCam;
    RunConfig wor;
    wor.machine = Machine::MopWiredOr;
    auto rc = sim::runBenchmark("crafty", cam, 50000);
    auto rw = sim::runBenchmark("crafty", wor, 50000);
    // Three-source MOP entries are only possible under wired-OR.
    EXPECT_GE(rw.groupedFrac() + 0.02, rc.groupedFrac());
}

TEST(SyntheticPipeline, LastArrivalFilterDeletesPointers)
{
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    auto on = sim::runBenchmark("gap", cfg, 60000);
    cfg.lastArrivalFilter = false;
    auto off = sim::runBenchmark("gap", cfg, 60000);
    EXPECT_GT(on.filterDeletions, 0u);
    EXPECT_EQ(off.filterDeletions, 0u);
}

TEST(SyntheticPipeline, DeterministicResults)
{
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    auto a = sim::runBenchmark("twolf", cfg, 20000);
    auto b = sim::runBenchmark("twolf", cfg, 20000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.groupedFrac(), b.groupedFrac());
    EXPECT_EQ(a.replays, b.replays);
}

TEST(Termination, TinyQueuesCompleteOrAreRejected)
{
    // machine x policy x iq 1..4 x mop-size 2..4: validateRunConfig
    // (mopsim exits 2 on it) rejects exactly the cells that cannot
    // finish, and every other cell runs its budget to the end.
    int rejected = 0;
    for (Machine m : kMachines) {
        bool mop = m == Machine::MopCam || m == Machine::MopWiredOr;
        bool select_free = m == Machine::SelectFreeSquashDep ||
                           m == Machine::SelectFreeScoreboard;
        for (sched::PolicyId pol : sched::registeredPolicies()) {
            for (int iq = 1; iq <= 4; ++iq) {
                for (int size = 2; size <= 4; ++size) {
                    RunConfig cfg;
                    cfg.machine = m;
                    cfg.policy = pol;
                    cfg.iqEntries = iq;
                    cfg.mopSize = size;
                    std::string cell = std::string(sim::machineName(m)) +
                                       " " + sched::policyIdToken(pol) +
                                       " iq " + std::to_string(iq) +
                                       " mop-size " + std::to_string(size);
                    bool deadlocks = mop && iq == 1;
                    bool refused =
                        select_free && pol == sched::PolicyId::LoadDelay;
                    if (deadlocks || refused) {
                        EXPECT_THROW(sim::validateRunConfig(cfg),
                                     std::invalid_argument)
                            << cell;
                        ++rejected;
                        continue;
                    }
                    EXPECT_NO_THROW(sim::validateRunConfig(cfg)) << cell;
                    pipeline::SimResult r;
                    EXPECT_NO_THROW(r = sim::runBenchmark("gzip", cfg, 2000))
                        << cell;
                    EXPECT_EQ(r.insts, 2000u) << cell;
                }
            }
        }
    }
    EXPECT_EQ(rejected, 2 * 3 * 3 + 2 * 4 * 3);

    // Why the iq-1 MOP cells are rejected: run anyway, they deadlock.
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    cfg.iqEntries = 1;
    EXPECT_THROW(sim::runBenchmark("gzip", cfg, 2000), sched::DeadlockError);
}

} // namespace
