/**
 * @file
 * Unit tests for the simulation-integrity subsystem (src/verify):
 * fault-spec parsing, injector determinism, the always-on integrity
 * checker, the scheduler event ring, and the golden model.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "verify/event_ring.hh"
#include "verify/fault_injector.hh"
#include "verify/golden.hh"
#include "verify/integrity.hh"

namespace
{

using namespace mop;
using verify::FaultInjector;
using verify::FaultKind;
using verify::FaultSpec;

TEST(FaultSpec, ParsesSingleAndMultipleKinds)
{
    FaultSpec s = FaultSpec::parse("spurious-wakeup:0.01", 7);
    EXPECT_DOUBLE_EQ(s[FaultKind::SpuriousWakeup], 0.01);
    EXPECT_EQ(s.seed, 7u);
    EXPECT_TRUE(s.any());

    FaultSpec m =
        FaultSpec::parse("drop-grant:0.5,miss-burst:0.001,corrupt-mop:1");
    EXPECT_DOUBLE_EQ(m[FaultKind::DropGrant], 0.5);
    EXPECT_DOUBLE_EQ(m[FaultKind::MissBurst], 0.001);
    EXPECT_DOUBLE_EQ(m[FaultKind::CorruptMop], 1.0);
    EXPECT_DOUBLE_EQ(m[FaultKind::SpuriousWakeup], 0.0);
}

TEST(FaultSpec, RoundTripsThroughToString)
{
    FaultSpec s = FaultSpec::parse("replay-storm:0.25,corrupt-wakeup:0.5");
    FaultSpec t = FaultSpec::parse(s.toString(), s.seed);
    for (size_t k = 0; k < verify::kNumFaultKinds; ++k)
        EXPECT_DOUBLE_EQ(t.rate[k], s.rate[k]) << k;
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultSpec::parse(""), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("bogus-kind:0.1"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:zebra"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:-0.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:1.5"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:0"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop-grant:0.1,,"),
                 std::invalid_argument);
}

TEST(FaultInjector, SameSeedSameDecisionStream)
{
    FaultSpec s = FaultSpec::parse("spurious-wakeup:0.3,delay-bcast:0.4",
                                   1234);
    FaultInjector a(s), b(s);
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(a.fire(FaultKind::SpuriousWakeup),
                  b.fire(FaultKind::SpuriousWakeup));
        ASSERT_EQ(a.broadcastDelay(), b.broadcastDelay());
        ASSERT_EQ(a.pick(17), b.pick(17));
    }
    EXPECT_EQ(a.totalFires(), b.totalFires());
    EXPECT_GT(a.totalFires(), 0u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultSpec s = FaultSpec::parse("drop-grant:0.5", 1);
    FaultSpec t = FaultSpec::parse("drop-grant:0.5", 2);
    FaultInjector a(s), b(t);
    int differing = 0;
    for (int i = 0; i < 1000; ++i)
        differing += a.fire(FaultKind::DropGrant) !=
                     b.fire(FaultKind::DropGrant);
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ZeroRateConsumesNoRandomness)
{
    // Drawing for a rate-0 kind must not advance the RNG: a campaign is
    // reproducible regardless of how many disabled sites are visited.
    FaultSpec s = FaultSpec::parse("drop-grant:0.5", 99);
    FaultInjector a(s), b(s);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(b.fire(FaultKind::ReplayStorm));  // rate 0
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(a.fire(FaultKind::DropGrant),
                  b.fire(FaultKind::DropGrant));
    EXPECT_EQ(b.draws(FaultKind::ReplayStorm), 0u);
}

TEST(FaultInjector, MissBurstOpensLatencyWindow)
{
    FaultSpec s;
    s[FaultKind::MissBurst] = 1.0;  // first load opens the window
    s.seed = 5;
    FaultInjector inj(s);
    int lat = inj.loadFaultLatency(1000, 2);
    EXPECT_GT(lat, 50);
    // Inside the window every load pays, without further draws firing.
    EXPECT_GT(inj.loadFaultLatency(1001, 2), 50);
    EXPECT_EQ(inj.loadFaultLatency(999999, 2) > 50, true)
        << "rate 1.0 reopens the window on the next draw";
}

TEST(FaultInjector, StatsReportDrawsAndFires)
{
    FaultSpec s = FaultSpec::parse("corrupt-wakeup:1", 3);
    FaultInjector inj(s);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(inj.fire(FaultKind::CorruptWakeup));
    EXPECT_EQ(inj.draws(FaultKind::CorruptWakeup), 10u);
    EXPECT_EQ(inj.fires(FaultKind::CorruptWakeup), 10u);
    stats::StatGroup g("t");
    inj.addStats(g);
    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("inject.corrupt-wakeup.fires"),
              std::string::npos);
}

TEST(Integrity, RequirePassesAndFailThrows)
{
    verify::IntegrityChecker c;
    EXPECT_NO_THROW(c.require(true, verify::IntegrityChecker::Check::RobOrder,
                              "fine"));
    EXPECT_EQ(c.totalViolations(), 0u);
    try {
        c.fail(verify::IntegrityChecker::Check::IqAccounting, "leaked");
        FAIL() << "fail() must throw";
    } catch (const verify::IntegrityError &e) {
        EXPECT_EQ(e.check(), "iq-accounting");
        EXPECT_NE(std::string(e.what()).find("leaked"), std::string::npos);
    }
    EXPECT_EQ(c.violations(verify::IntegrityChecker::Check::IqAccounting),
              1u);
    EXPECT_EQ(c.totalViolations(), 1u);
}

TEST(Integrity, LiteralMessageIsBuiltOnlyOnFailure)
{
    // A literal binds to the const char * overload (no std::string on
    // the pass path) and still reaches the thrown error on failure.
    using Check = verify::IntegrityChecker::Check;
    verify::IntegrityChecker c;
    EXPECT_NO_THROW(c.require(true, Check::StallAccounting, "unused"));
    try {
        c.require(false, Check::StallAccounting,
                  "slots charged past the issue width");
        FAIL() << "require(false, ...) must throw";
    } catch (const verify::IntegrityError &e) {
        EXPECT_EQ(e.check(), "stall-accounting");
        EXPECT_NE(std::string(e.what()).find(
                      "slots charged past the issue width"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(c.violations(Check::StallAccounting), 1u);
}

TEST(Integrity, ViolationCountersAppearInStats)
{
    verify::IntegrityChecker c;
    EXPECT_THROW(c.fail(verify::IntegrityChecker::Check::MopPairing, "x"),
                 verify::IntegrityError);
    stats::StatGroup g("t");
    c.addStats(g, "sched.integrity");
    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("sched.integrity.mop-pairing.violations"),
              std::string::npos);
}

TEST(EventRing, KeepsOnlyTheLastCapacityEvents)
{
    verify::EventRing ring(4);
    for (uint64_t i = 0; i < 10; ++i) {
        ring.push(i, verify::SchedEvent::Kind::Issue, i, int32_t(i),
                  int32_t(i), "e");
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    std::ostringstream os;
    ring.dump(os);
    std::string s = os.str();
    EXPECT_EQ(s.find("seq=5"), std::string::npos);  // overwritten
    EXPECT_NE(s.find("seq=6"), std::string::npos);  // oldest survivor
    EXPECT_NE(s.find("seq=9"), std::string::npos);
    // Oldest-first ordering.
    EXPECT_LT(s.find("seq=6"), s.find("seq=9"));
}

TEST(Golden, AcceptsTheOracleOwnStream)
{
    prog::Program p = prog::assemble(prog::kernelSource("fib"));
    prog::Interpreter src(p);
    verify::GoldenModel golden(p);
    isa::MicroOp u;
    uint64_t n = 0;
    while (src.next(u)) {
        if (u.op == isa::OpClass::Nop)
            continue;  // the decoder filters Nops before rename
        ASSERT_NO_THROW(golden.onCommit(u)) << "at uop " << n;
        ++n;
    }
    EXPECT_EQ(golden.compared(), n);
    EXPECT_GT(n, 0u);
}

TEST(Golden, CatchesAMutatedCommit)
{
    prog::Program p = prog::assemble(prog::kernelSource("fib"));
    prog::Interpreter src(p);
    isa::MicroOp u;
    do {
        ASSERT_TRUE(src.next(u));
    } while (u.op == isa::OpClass::Nop);

    verify::GoldenModel golden(p);
    isa::MicroOp bad = u;
    bad.dst = int16_t(bad.dst == 3 ? 4 : 3);
    try {
        golden.onCommit(bad);
        FAIL() << "mutated commit must be rejected";
    } catch (const verify::GoldenMismatchError &e) {
        EXPECT_NE(std::string(e.what()).find("dst"), std::string::npos);
    }
}

TEST(Golden, RejectsCommitsPastEndOfProgram)
{
    prog::Program p = prog::assemble(prog::kernelSource("fib"));
    prog::Interpreter src(p);
    verify::GoldenModel golden(p);
    isa::MicroOp u, last{};
    while (src.next(u)) {
        if (u.op == isa::OpClass::Nop)
            continue;
        golden.onCommit(u);
        last = u;
    }
    EXPECT_THROW(golden.onCommit(last), verify::GoldenMismatchError);
}

} // namespace
