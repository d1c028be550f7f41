/**
 * @file
 * Unit tests for the simulation-integrity subsystem (src/verify):
 * fault-spec parsing, injector determinism, the always-on integrity
 * checker, the scheduler event ring, and the golden model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
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

TEST(Integrity, OccupancyLawFiresOnAOneCycleDiscrepancy)
{
    // A queue sampled at the end of every cycle, with random arrivals
    // and departures stamped with their cycle. The identity holds over
    // the true samples; a sampler that drops or repeats any one busy
    // cycle breaks it.
    using Check = verify::IntegrityChecker::Check;
    std::mt19937 rng(3);
    verify::OccupancyLedger ledger;
    std::vector<uint64_t> samples;
    uint64_t live = 0;
    for (uint64_t c = 0; c < 400; ++c) {
        for (unsigned a = rng() % 3; a > 0; --a) {
            ledger.arrive(c);
            ++live;
        }
        const uint64_t leave = std::min<uint64_t>(live, rng() % 3);
        ledger.depart(c, leave);
        live -= leave;
        samples.push_back(live);
    }
    const uint64_t n = samples.size();
    const uint64_t sum =
        std::accumulate(samples.begin(), samples.end(), uint64_t(0));
    verify::IntegrityChecker ic;
    auto law = [&](uint64_t s) {
        ic.requireOccupancyLaw(Check::IqAccounting, "queue", s, n, ledger,
                               live, n);
    };
    EXPECT_NO_THROW(law(sum));
    int busy = 0;
    for (uint64_t t = 0; t < n; ++t) {
        if (samples[t] == 0)
            continue;
        ++busy;
        EXPECT_THROW(law(sum - samples[t]), verify::IntegrityError) << t;
        EXPECT_THROW(law(sum + samples[t]), verify::IntegrityError) << t;
    }
    EXPECT_GT(busy, 300);
    try {
        law(sum + 1);
        FAIL() << "an off-by-one sum must throw";
    } catch (const verify::IntegrityError &e) {
        EXPECT_EQ(e.check(), "iq-accounting");
        EXPECT_NE(std::string(e.what()).find("queue: 400 occupancy samples"),
                  std::string::npos)
            << e.what();
    }
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

TEST(EventRing, EchoesExactlyTheMatchingTagInDumpFormat)
{
    using K = verify::SchedEvent::Kind;
    verify::EventRing ring(8);
    std::ostringstream echo;
    ring.echoTag(7, &echo);
    const verify::SchedEvent events[] = {
        {1, K::Insert, 10, 7, 2, ""},
        {1, K::Insert, 11, 70, 3, ""},   // "tag=70" must not match 7
        {2, K::Squash, 12, -1, -1, ""},  // tagless
        {3, K::Issue, 10, 7, 2, ""},
        {5, K::Bcast, 10, 7, 2, "speculative"},
        {5, K::Deliver, 0, 7, -1, ""},
        {6, K::Free, 10, 7, 2, ""},
        {6, K::Free, 11, 17, 3, ""},
    };
    std::string expected;
    for (const verify::SchedEvent &e : events) {
        ring.push(e);
        if (e.tag == 7) {
            std::ostringstream line;
            verify::EventRing::writeLine(line, e);
            expected += line.str();
        }
    }
    EXPECT_EQ(echo.str(), expected);

    // The echoed lines are the dump's lines for those events.
    std::ostringstream dump;
    ring.dump(dump);
    std::istringstream in(dump.str());
    std::string line, dumped;
    std::getline(in, line);  // header
    for (const verify::SchedEvent &e : events) {
        std::getline(in, line);
        if (e.tag == 7)
            dumped += line + "\n";
    }
    EXPECT_EQ(dumped, expected);
    EXPECT_NE(echo.str().find("  cycle 5  bcast  seq=10  tag=7  entry=2"
                              "  (speculative)\n"),
              std::string::npos);

    // Off again: nothing more is written, and the ring still records.
    ring.echoTag(7, nullptr);
    ring.push(7, K::Recall, 0, 7);
    EXPECT_EQ(echo.str(), expected);
    EXPECT_EQ(ring.at(ring.size() - 1).kind, K::Recall);
}

TEST(EventRing, RejectsCapacitiesThatAreNotPowersOfTwo)
{
    for (size_t cap : {size_t(0), size_t(3), size_t(100)})
        EXPECT_THROW(verify::EventRing ring(cap), std::invalid_argument)
            << cap;
    EXPECT_NO_THROW(verify::EventRing ring(1));
    EXPECT_NO_THROW(verify::EventRing ring(64));
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
