/**
 * @file
 * Event-driven cycle skipping must be invisible: a skipping run and a
 * stepped run of the same workload produce byte-identical statistics
 * (modulo the skippedCycles counter itself) on every machine, the skip
 * gate disarms under fault injection and observability, and idle-heavy
 * workloads actually skip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "prog/interpreter.hh"

#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sched/scheduler.hh"
#include "sim/config.hh"
#include "stats/stats.hh"
#include "trace/profiles.hh"
#include "verify/fault_injector.hh"
#include "verify/golden.hh"
#include "verify/integrity.hh"

namespace
{

using namespace mop;
using sim::Machine;
using sim::RunConfig;

struct RunOut
{
    pipeline::SimResult result;
    std::string stats;
};

/** Full stats report minus the one line that legitimately differs. */
std::string
stripSkipCounter(const std::string &stats)
{
    std::istringstream in(stats);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.find("skippedCycles") == std::string::npos)
            out << line << '\n';
    return out.str();
}

RunOut
runWith(trace::TraceSource &src, const RunConfig &cfg, bool skip)
{
    pipeline::CoreParams params = sim::makeCoreParams(cfg);
    params.cycleSkip = skip;
    pipeline::OooCore core(params, src);
    RunOut out;
    out.result = core.run(10'000'000);

    stats::StatGroup g("sim");
    core.addStats(g);
    std::ostringstream os;
    g.print(os);
    out.stats = os.str();
    return out;
}

RunOut
runKernel(const std::string &kernel, Machine m, bool skip,
          sched::PolicyId pol = sched::PolicyId::Paper)
{
    prog::Interpreter src(prog::assemble(prog::kernelSource(kernel)));
    RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = 32;
    cfg.policy = pol;
    return runWith(src, cfg, skip);
}

RunOut
runSynthetic(const std::string &bench, Machine m, bool skip,
             uint64_t insts = 100'000,
             sched::PolicyId pol = sched::PolicyId::Paper)
{
    trace::SyntheticSource src(trace::profileFor(bench));
    RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = 32;
    cfg.policy = pol;
    pipeline::CoreParams params = sim::makeCoreParams(cfg);
    params.cycleSkip = skip;
    pipeline::OooCore core(params, src);
    RunOut out;
    out.result = core.run(insts);
    stats::StatGroup g("sim");
    core.addStats(g);
    std::ostringstream os;
    g.print(os);
    out.stats = os.str();
    return out;
}

void
expectEquivalent(const RunOut &skip, const RunOut &step,
                 const std::string &label)
{
    EXPECT_EQ(skip.result.cycles, step.result.cycles) << label;
    EXPECT_EQ(skip.result.insts, step.result.insts) << label;
    EXPECT_EQ(skip.result.uops, step.result.uops) << label;
    EXPECT_EQ(skip.result.replays, step.result.replays) << label;
    EXPECT_EQ(skip.result.mispredicts, step.result.mispredicts) << label;
    EXPECT_EQ(skip.result.groupCounts, step.result.groupCounts) << label;
    EXPECT_DOUBLE_EQ(skip.result.avgIqOccupancy,
                     step.result.avgIqOccupancy)
        << label;
    EXPECT_EQ(stripSkipCounter(skip.stats), stripSkipCounter(step.stats))
        << label << ": stats must be byte-identical modulo skippedCycles";
}

/** Every machine, a compute-bound and a memory-bound kernel: the
 *  skipping run must be indistinguishable from the stepped one. */
TEST(CycleSkip, KernelRunsAreByteIdenticalAcrossMachines)
{
    for (Machine m : sim::allMachines()) {
        for (const char *kernel : {"sort", "chase"}) {
            RunOut skip = runKernel(kernel, m, true);
            RunOut step = runKernel(kernel, m, false);
            expectEquivalent(skip, step,
                            std::string(sim::machineName(m)) + "/" +
                                kernel);
        }
    }
}

/** Synthetic workloads drive the frontend/ring paths the kernels
 *  cannot (load-miss chains, branch storms). */
TEST(CycleSkip, SyntheticRunsAreByteIdentical)
{
    for (const char *bench : {"mcf", "gzip", "gcc"}) {
        for (Machine m : {Machine::Base, Machine::MopWiredOr}) {
            RunOut skip = runSynthetic(bench, m, true);
            RunOut step = runSynthetic(bench, m, false);
            expectEquivalent(skip, step,
                            std::string(bench) + "/" +
                                sim::machineName(m));
        }
    }
}

/** The behaviour policies change what counts as an event (load-delay
 *  retimes load broadcasts; static-fuse swaps the formation engine):
 *  nextEventCycle() must stay exact under each, on every machine the
 *  policy admits and on both trace paths. */
TEST(CycleSkip, PolicyRunsAreByteIdentical)
{
    for (auto pol : {sched::PolicyId::LoadDelay,
                     sched::PolicyId::StaticFuse}) {
        std::string tok = sched::policyIdToken(pol);
        for (Machine m : sim::allMachines()) {
            RunConfig cfg;
            cfg.machine = m;
            cfg.policy = pol;
            if (!pipeline::configError(sim::makeCoreParams(cfg)).empty())
                continue;
            RunOut skip = runKernel("chase", m, true, pol);
            RunOut step = runKernel("chase", m, false, pol);
            expectEquivalent(skip, step,
                             tok + "/" + sim::machineName(m) + "/chase");
        }
        for (const char *bench : {"mcf", "gcc"}) {
            RunOut skip =
                runSynthetic(bench, Machine::MopWiredOr, true, 100'000, pol);
            RunOut step =
                runSynthetic(bench, Machine::MopWiredOr, false, 100'000, pol);
            expectEquivalent(skip, step,
                             tok + "/" + bench + "/MopWiredOr");
        }
    }
}

/** mcf is the memory-bound extreme; a large share of its cycles are
 *  provably idle and must actually be skipped. */
TEST(CycleSkip, IdleHeavyWorkloadSkips)
{
    RunOut r = runSynthetic("mcf", Machine::Base, true);
    EXPECT_GT(r.result.skippedCycles, 0u);
    EXPECT_GT(double(r.result.skippedCycles), 0.2 * double(r.result.cycles))
        << "mcf should spend well over 20% of cycles in skippable gaps";
}

/** The stepped run never reports skipped cycles. */
TEST(CycleSkip, SteppedRunReportsZeroSkipped)
{
    RunOut r = runSynthetic("mcf", Machine::Base, false);
    EXPECT_EQ(r.result.skippedCycles, 0u);
}

/** Observability hooks sample every cycle, so the gate must disarm
 *  even when cycleSkip is requested. */
TEST(CycleSkip, ObservabilityDisablesSkipping)
{
    trace::SyntheticSource src(trace::profileFor("mcf"));
    RunConfig cfg;
    cfg.machine = Machine::Base;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    pipeline::CoreParams params = sim::makeCoreParams(cfg);
    params.cycleSkip = true;
    pipeline::OooCore core(params, src);
    pipeline::SimResult r = core.run(100'000);
    EXPECT_EQ(r.skippedCycles, 0u);
    EXPECT_GT(r.insts, 0u);
}

/** One run under every fault kind, skip requested vs not: the fault
 *  gate forces both onto the stepped path, so every outcome — stats on
 *  success, error type on structured detection — must match exactly. */
TEST(CycleSkip, FaultInjectionDisablesSkippingForAllKinds)
{
    const char *specs[] = {
        "spurious-wakeup:0.02", "drop-grant:0.02",   "delay-bcast:0.05",
        "replay-storm:0.05",    "miss-burst:0.005",  "corrupt-mop:0.3",
        "corrupt-wakeup:0.005", "corrupt-commit:0.01",
    };
    for (const char *spec : specs) {
        auto outcome = [&](bool skip) -> std::string {
            prog::Program p = prog::assemble(prog::kernelSource("sort"));
            prog::Interpreter src(p);
            verify::GoldenModel golden(p);
            RunConfig cfg;
            cfg.machine = Machine::MopWiredOr;
            cfg.iqEntries = 32;
            cfg.faults = verify::FaultSpec::parse(spec, 42);
            pipeline::CoreParams params = sim::makeCoreParams(cfg);
            params.cycleSkip = skip;
            pipeline::OooCore core(params, src);
            core.setGoldenModel(&golden);
            try {
                pipeline::SimResult r = core.run(10'000'000);
                EXPECT_EQ(r.skippedCycles, 0u)
                    << spec << ": fault gate must disarm skipping";
                stats::StatGroup g("sim");
                core.addStats(g);
                std::ostringstream os;
                g.print(os);
                return os.str();
            } catch (const verify::IntegrityError &e) {
                return std::string("IntegrityError: ") + e.what();
            } catch (const verify::GoldenMismatchError &e) {
                return std::string("GoldenMismatch: ") + e.what();
            } catch (const sched::DeadlockError &e) {
                return std::string("DeadlockError: ") + e.what();
            }
        };
        EXPECT_EQ(outcome(true), outcome(false)) << spec;
    }
}

} // namespace
