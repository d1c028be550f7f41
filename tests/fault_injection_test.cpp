/**
 * @file
 * Integration tests for deterministic fault injection: bit-identical
 * replay from a seed, recovery vs. structured detection per fault kind,
 * deadlock diagnostics with dissolution recovery, and the selftest
 * matrix.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched_harness.hh"
#include "sim/config.hh"
#include "sim/selftest.hh"
#include "stats/stats.hh"
#include "verify/fault_injector.hh"
#include "verify/golden.hh"
#include "verify/integrity.hh"

namespace
{

using namespace mop;
using mop::test::Harness;
using sim::Machine;
using sim::RunConfig;
using verify::FaultKind;
using verify::FaultSpec;

struct RunOutput
{
    pipeline::SimResult result;
    std::string stats;
    uint64_t fires = 0;
};

RunOutput
runInjected(const std::string &kernel, Machine m, const std::string &spec,
            uint64_t seed, bool golden_on = true)
{
    prog::Program p = prog::assemble(prog::kernelSource(kernel));
    prog::Interpreter src(p);
    verify::GoldenModel golden(p);

    RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = 32;
    cfg.faults = spec.empty() ? FaultSpec{} : FaultSpec::parse(spec, seed);
    cfg.faults.seed = seed;

    pipeline::OooCore core(sim::makeCoreParams(cfg), src);
    if (golden_on)
        core.setGoldenModel(&golden);
    RunOutput out;
    out.result = core.run(10'000'000);
    if (core.injector())
        out.fires = core.injector()->totalFires();

    stats::StatGroup g("sim");
    core.addStats(g);
    std::ostringstream os;
    g.print(os);
    out.stats = os.str();
    return out;
}

TEST(InjectDeterminism, SameSeedBitIdenticalStats)
{
    const std::string spec =
        "spurious-wakeup:0.01,drop-grant:0.02,delay-bcast:0.05,"
        "replay-storm:0.05";
    RunOutput a = runInjected("sort", Machine::MopWiredOr, spec, 42);
    RunOutput b = runInjected("sort", Machine::MopWiredOr, spec, 42);
    EXPECT_GT(a.fires, 0u);
    EXPECT_EQ(a.fires, b.fires);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.insts, b.result.insts);
    EXPECT_EQ(a.stats, b.stats) << "full stats report must be identical";
}

TEST(InjectDeterminism, DifferentSeedDifferentCampaign)
{
    const std::string spec = "spurious-wakeup:0.01,replay-storm:0.05";
    RunOutput a = runInjected("sort", Machine::MopWiredOr, spec, 42);
    RunOutput b = runInjected("sort", Machine::MopWiredOr, spec, 1042);
    EXPECT_NE(a.stats, b.stats);
}

/** Recoverable kinds: the perturbed run costs cycles, never
 *  correctness — same committed stream, golden check green. */
TEST(InjectRecovery, PerturbationsNeverChangeCommittedStream)
{
    RunOutput clean = runInjected("sort", Machine::MopWiredOr, "", 42);
    const char *specs[] = {
        "spurious-wakeup:0.02", "drop-grant:0.02", "delay-bcast:0.05",
        "replay-storm:0.05",    "miss-burst:0.005", "corrupt-mop:0.3",
    };
    for (const char *spec : specs) {
        RunOutput r = runInjected("sort", Machine::MopWiredOr, spec, 42);
        EXPECT_GT(r.fires, 0u) << spec;
        EXPECT_EQ(r.result.insts, clean.result.insts) << spec;
    }
}

TEST(InjectRecovery, SpuriousWakeupRecoversOnScoreboard)
{
    // Regression: the corrective recall used to wipe the value-ready
    // time of a tag whose producer was already in flight, leaving
    // scoreboard consumers pileup-killing forever (caught only by the
    // commit watchdog). The repair must restore the producer's timing.
    RunOutput clean =
        runInjected("sort", Machine::SelectFreeScoreboard, "", 42);
    RunOutput r = runInjected("sort", Machine::SelectFreeScoreboard,
                              "spurious-wakeup:0.02", 42);
    EXPECT_GT(r.fires, 0u);
    EXPECT_EQ(r.result.insts, clean.result.insts);
}

TEST(InjectDetection, CorruptWakeupRaisesStructuredDiagnostic)
{
    // A corrupted wakeup tag is not recoverable; the run must die with
    // a structured error (integrity check, dataflow invariant, golden
    // mismatch or watchdog), never hang or commit silently wrong.
    bool structured = false;
    try {
        RunOutput r = runInjected("sort", Machine::MopWiredOr,
                                  "corrupt-wakeup:0.005", 42);
        // Tolerated only if the campaign never actually corrupted
        // anything a consumer observed.
        structured = true;
        EXPECT_EQ(r.result.insts,
                  runInjected("sort", Machine::MopWiredOr, "", 42)
                      .result.insts);
    } catch (const verify::IntegrityError &) {
        structured = true;
    } catch (const verify::GoldenMismatchError &) {
        structured = true;
    } catch (const sched::DeadlockError &) {
        structured = true;
    }
    EXPECT_TRUE(structured);
}

TEST(InjectDetection, CorruptCommitCaughtByGoldenModel)
{
    // ROB payload corruption is invisible to the scheduler; only the
    // golden-model cross-check can see it.
    EXPECT_THROW(
        runInjected("sort", Machine::Base, "corrupt-commit:0.01", 42),
        verify::GoldenMismatchError);
}

TEST(InjectDetection, CorruptCommitSilentWithoutGolden)
{
    // Without the golden model the perturbation only touches the
    // compared copy, so the run completes — this is exactly the silent
    // wrong-commit case the cross-check exists to catch.
    RunOutput r = runInjected("sort", Machine::Base, "corrupt-commit:0.01",
                              42, /*golden_on=*/false);
    EXPECT_GT(r.result.insts, 0u);
}

TEST(DeadlockDiag, WatchdogReportsStuckEntriesAndEvents)
{
    // Figure 8(a) circular wait, built directly: the diagnostic must
    // name the stall window and dump the stuck entries.
    using test::LoopPolicy;
    sched::SchedParams p = Harness::params(LoopPolicy::TwoCycle);
    p.watchdogCycles = 500;
    Harness h(p);
    int e = h.s.insert(Harness::alu(1, 0), h.now, /*expect_tail=*/true);
    h.s.insert(Harness::alu(2, 1, 0), h.now);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(3, 0, 0, 1), h.now));
    try {
        for (int i = 0; i < 2000; ++i)
            h.tick();
        FAIL() << "watchdog must fire on a MOP-induced cycle";
    } catch (const sched::DeadlockError &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("scheduler deadlock"), std::string::npos);
        EXPECT_NE(msg.find("no issue since cycle"), std::string::npos);
        // The entry dump: both stuck entries with their seqs.
        EXPECT_NE(msg.find("seq"), std::string::npos);
    }
}

TEST(DeadlockDiag, DissolvingThePendingMopRecovers)
{
    // Same cycle as above, but dissolved before the watchdog window
    // closes: clearPending() releases the head and the queue drains.
    using test::LoopPolicy;
    sched::SchedParams p = Harness::params(LoopPolicy::TwoCycle);
    p.watchdogCycles = 500;
    Harness h(p);
    int e = h.s.insert(Harness::alu(1, 0), h.now, /*expect_tail=*/true);
    h.s.insert(Harness::alu(2, 1, 0), h.now);
    for (int i = 0; i < 100; ++i)
        h.tick();
    EXPECT_TRUE(h.done.empty());  // circularly blocked so far
    h.s.clearPending(e, h.now);          // dissolve: head becomes a plain op
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(1));
    EXPECT_TRUE(h.done.count(2));
}

TEST(Selftest, FullFaultMatrixHasNoFailedCells)
{
    std::ostringstream os;
    sim::SelftestResult r = sim::runSelftest(os);
    EXPECT_TRUE(r.ok()) << os.str();
    EXPECT_EQ(r.failed, 0);
    EXPECT_EQ(r.cells(), 48);
    EXPECT_GT(r.recovered, 0);
    EXPECT_GT(r.detected, 0);
}

} // namespace
