/**
 * @file
 * Integration tests of the full out-of-order core: every scheduler
 * configuration runs every kernel and synthetic workload with the
 * dataflow invariant checker enabled; performance-ordering and
 * queue-contention properties from the paper are asserted.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sim/config.hh"
#include "sim/selftest.hh"
#include "stats/stats.hh"
#include "sweep/result_cache.hh"
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
    ::testing::Combine(::testing::ValuesIn(sim::allMachines()),
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
                         ::testing::ValuesIn(sim::allMachines()),
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

TEST(TagEcho, CoversOneTagsLivesAndChangesNoResult)
{
    // MOP_TRACE_TAG's path: the core's event ring echoes one tag's
    // events as they are recorded. Tags are pooled, so tag 5 lives
    // many lives in a run; each shows up from insert to free, and the
    // echo perturbs nothing.
    RunConfig cfg;
    cfg.machine = Machine::MopWiredOr;
    cfg.iqEntries = 32;
    auto run = [&cfg](std::ostream *echo, std::string &stats,
                      size_t &events) {
        trace::SyntheticSource src(trace::profileFor("gzip"));
        pipeline::OooCore core(sim::makeCoreParams(cfg), src);
        if (echo)
            core.echoTag(5, echo);
        pipeline::SimResult r = core.run(20000);
        stats::StatGroup g("sim");
        core.addStats(g);
        std::ostringstream os;
        g.print(os);
        stats = os.str();
        events = core.events().size();
        return r;
    };
    std::string plainStats, echoStats;
    size_t plainEvents = 0, echoEvents = 0;
    std::ostringstream echo;
    pipeline::SimResult plain = run(nullptr, plainStats, plainEvents);
    pipeline::SimResult echoed = run(&echo, echoStats, echoEvents);
    EXPECT_EQ(sweep::packSimResult(echoed).fields,
              sweep::packSimResult(plain).fields);
    EXPECT_EQ(echoStats, plainStats);
    // Nothing reads a plain run's events, so none are recorded.
    EXPECT_EQ(plainEvents, 0u);
    EXPECT_EQ(echoEvents, 256u);

    std::istringstream in(echo.str());
    std::string line;
    std::set<std::string> kinds;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        ASSERT_EQ(line.rfind("  cycle ", 0), 0u) << line;
        EXPECT_NE((line + "  ").find("  tag=5  "), std::string::npos)
            << line;
        std::istringstream words(line);
        std::string cycleWord, cycle, kind;
        words >> cycleWord >> cycle >> kind;
        kinds.insert(kind);
    }
    EXPECT_GT(lines, 100u);
    for (const char *k : {"insert", "issue", "bcast", "deliver", "free"})
        EXPECT_EQ(kinds.count(k), 1u) << k;
}

TEST(Termination, TinyQueuesCompleteOrAreRejected)
{
    // Every machine x policy x iq 1..4 x mop-size 2..4 x wrong-path x
    // sched-depth {0, 3, 6, 8}: pipeline::configError (mopsim exits 2
    // on it) rejects exactly the cells that cannot finish, building one
    // of them throws before a cycle runs, and every other cell runs its
    // budget to the end. At depths 6 and 8 a broadcast is due after
    // its producer completes (dispatch 4, plus 1).
    std::vector<RunConfig> grid;
    for (Machine m : sim::allMachines())
        for (sched::PolicyId pol : sched::registeredPolicies())
            for (int iq = 1; iq <= 4; ++iq)
                for (int size = 2; size <= 4; ++size)
                    for (bool wp : {false, true})
                        for (int depth : {0, 3, 6, 8}) {
                            RunConfig cfg;
                            cfg.machine = m;
                            cfg.policy = pol;
                            cfg.iqEntries = iq;
                            cfg.mopSize = size;
                            cfg.wrongPath = wp;
                            cfg.schedDepth = depth;
                            grid.push_back(cfg);
                        }
    ASSERT_EQ(grid.size(), 1728u);

    int rejected = 0;
    for (const RunConfig &cfg : grid) {
        std::string cell = std::string(sim::machineName(cfg.machine)) +
                           " " + sched::policyIdToken(cfg.policy) +
                           " iq " + std::to_string(cfg.iqEntries) +
                           " mop-size " + std::to_string(cfg.mopSize) +
                           (cfg.wrongPath ? " wrong-path" : "") +
                           " sched-depth " +
                           std::to_string(cfg.schedDepth);
        if (!pipeline::configError(sim::makeCoreParams(cfg)).empty()) {
            EXPECT_THROW(sim::runBenchmark("gzip", cfg, 2000),
                         std::invalid_argument)
                << cell;
            ++rejected;
            continue;
        }
        pipeline::SimResult r;
        EXPECT_NO_THROW(r = sim::runBenchmark("gzip", cfg, 2000)) << cell;
        EXPECT_EQ(r.insts, 2000u) << cell;
    }
    // iq 1 on the two MOP machines (2 x 3 policies x 3 sizes x 2 x 4)
    // and load-delay on the two select-free machines (2 x 4 x 3 x 2 x 4).
    EXPECT_EQ(rejected, 336);

    // A delayed broadcast can also land after its producer completed.
    RunConfig delayed;
    delayed.schedDepth = 5;
    delayed.faults[verify::FaultKind::DelayBcast] = 0.01;
    pipeline::SimResult r;
    EXPECT_NO_THROW(r = sim::runBenchmark("gzip", delayed, 2000));
    EXPECT_GE(r.insts, 2000u);
}

TEST(Termination, TinyQueuesUnderEveryFaultKindWithObsOn)
{
    // Every machine x policy x iq {2, 4} x wrong-path {off, on} x each
    // fault kind at the selftest's rate, with stall attribution on,
    // and mop-size {2, 4} on the two MOP machines (size changes nothing
    // elsewhere): a cell either runs its budget with every issue slot
    // charged once, or ends in a checked error. A broken stall
    // invariant is neither; the watchdogs bound the rest, so no cell
    // can hang.
    std::vector<RunConfig> grid;
    for (Machine m : sim::allMachines()) {
        RunConfig machine;
        machine.machine = m;
        const bool mops = sim::makeCoreParams(machine).sched.mopEnabled;
        for (sched::PolicyId pol : sched::registeredPolicies())
            for (int iq : {2, 4})
                for (int size : mops ? std::vector<int>{2, 4}
                                     : std::vector<int>{2})
                    for (bool wp : {false, true})
                        for (size_t k = 0; k < verify::kNumFaultKinds;
                             ++k) {
                            const auto kind = verify::FaultKind(k);
                            RunConfig cfg = machine;
                            cfg.policy = pol;
                            cfg.iqEntries = iq;
                            cfg.mopSize = size;
                            cfg.wrongPath = wp;
                            cfg.obs.enabled = true;
                            cfg.faults[kind] = sim::selftestRate(kind);
                            cfg.faults.seed = 42;
                            grid.push_back(cfg);
                        }
    }
    ASSERT_EQ(grid.size(), 768u);

    int completed = 0, checked = 0, refused = 0, overshot = 0;
    for (const RunConfig &cfg : grid) {
        const std::string cell =
            std::string(sim::machineName(cfg.machine)) + " " +
            sched::policyIdToken(cfg.policy) + " iq " +
            std::to_string(cfg.iqEntries) + " mop-size " +
            std::to_string(cfg.mopSize) +
            (cfg.wrongPath ? " wrong-path " : " ") +
            cfg.faults.toString();
        pipeline::SimResult r;
        try {
            r = sim::runBenchmark("gzip", cfg, 2000);
        } catch (const verify::IntegrityError &e) {
            EXPECT_NE(e.check(), "stall-accounting")
                << cell << ": " << e.what();
            ++checked;
            continue;
        } catch (const sched::DeadlockError &) {
            ++checked;
            continue;
        } catch (const std::invalid_argument &) {
            ++checked;
            ++refused;
            continue;
        }
        ++completed;
        // The budget is checked once per cycle, so the last cycle may
        // commit up to commitWidth - 1 past it.
        const int commitWidth = sim::makeCoreParams(cfg).commitWidth;
        EXPECT_GE(r.insts, 2000u) << cell;
        EXPECT_LT(r.insts, 2000u + uint64_t(commitWidth)) << cell;
        overshot += r.insts > 2000;
        ASSERT_GT(r.stallWidth, 0u) << cell;
        EXPECT_EQ(std::accumulate(r.stallSlots.begin(),
                                  r.stallSlots.end(), uint64_t(0)),
                  uint64_t(r.stallWidth) * r.cycles)
            << cell;
    }
    // Checked endings: load-delay refused on the two select-free
    // machines (64), corrupt-wakeup deadlocks (64) and corrupt-mop
    // deadlocks (16); the other 624 finish. One of those commits past
    // its budget: MOP-wiredOR, paper, iq 4, mop-size 2, wrong-path,
    // delay-bcast.
    EXPECT_EQ(completed + checked, int(grid.size()));
    EXPECT_EQ(checked, 144);
    EXPECT_EQ(refused, 64);
    EXPECT_EQ(overshot, 1);
}

} // namespace
