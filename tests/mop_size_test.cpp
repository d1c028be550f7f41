/**
 * @file
 * Tests for MOP sizes beyond 2 (Section 4.3 future work): N-op entry
 * timing in the scheduler, pointer-chained formation, and end-to-end
 * behaviour under an N-deep scheduling loop.
 */

#include <gtest/gtest.h>

#include "core/mop_formation.hh"
#include "sched_harness.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"

namespace
{

using namespace mop::test;
using mop::isa::MicroOp;
using mop::isa::OpClass;
namespace sched = mop::sched;
namespace core = mop::core;

SchedParams
mopParams(int size, int depth = 0)
{
    SchedParams p = Harness::params(LoopPolicy::TwoCycle);
    p.maxMopSize = size;
    p.schedDepth = depth;
    p.style = sched::WakeupStyle::WiredOr;
    return p;
}

TEST(MopSize, ThreeOpEntrySequencesOverThreeCycles)
{
    Harness h(mopParams(3));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now,
                               /*more_coming=*/true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.s.insert(Harness::alu(3, 1, 0), h.now);  // consumer of the MOP
    h.runUntilIdle();

    Cycle mop = h.issuedAt(0);
    EXPECT_EQ(h.issuedAt(1), mop);
    EXPECT_EQ(h.issuedAt(2), mop);
    EXPECT_EQ(h.execAt(1), h.execAt(0) + 1);
    EXPECT_EQ(h.execAt(2), h.execAt(0) + 2);
    // One 3-cycle broadcast: the consumer of the last op is
    // back-to-back even though the MOP spans three execution cycles.
    EXPECT_EQ(h.issuedAt(3), mop + 3);
    EXPECT_EQ(h.execAt(3), h.completeAt(2));
}

TEST(MopSize, EntryStaysPendingBetweenChainLinks)
{
    Harness h(mopParams(3));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    for (int i = 0; i < 10; ++i)
        h.tick();
    EXPECT_TRUE(h.done.empty());  // still waiting for the third link
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.runUntilIdle();
    EXPECT_EQ(h.done.size(), 3u);
}

TEST(MopSize, AppendBeyondCapacityRejected)
{
    Harness h(mopParams(2));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    EXPECT_FALSE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.s.clearPending(e, h.now);
    h.runUntilIdle();
}

TEST(MopSize, FourOpMopConsumesIssueSlots)
{
    SchedParams p = mopParams(4);
    p.issueWidth = 1;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(3, 0, 0), h.now));
    h.s.insert(Harness::alu(4, 1), h.now);  // independent
    h.runUntilIdle();
    // The MOP sequences through the single slot for 4 cycles.
    EXPECT_EQ(h.issuedAt(4), h.issuedAt(0) + 4);
}

TEST(MopSize, DeeperSchedulingLoopCoveredByMop)
{
    // A 3-deep scheduling loop makes plain dependent edges 3 cycles;
    // a 3-op MOP chain keeps execution consecutive.
    Harness plain(mopParams(2, /*depth=*/3));
    for (uint64_t i = 0; i < 3; ++i)
        plain.s.insert(Harness::alu(i, Tag(i),
                                    i ? Tag(i - 1) : sched::kNoTag),
                       plain.now);
    plain.runUntilIdle();
    EXPECT_EQ(plain.issuedAt(2), plain.issuedAt(0) + 6);

    Harness m(mopParams(3, 3));
    int e = m.s.insert(Harness::alu(0, 0), m.now, true);
    ASSERT_TRUE(m.s.appendTail(e, Harness::alu(1, 0, 0), m.now, true));
    ASSERT_TRUE(m.s.appendTail(e, Harness::alu(2, 0, 0), m.now));
    m.runUntilIdle();
    EXPECT_EQ(m.execAt(2), m.execAt(0) + 2);  // back-to-back-to-back
}

TEST(MopSize, MopIssueReportsOpCount)
{
    Harness h(mopParams(3));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.runUntilIdle();
    ASSERT_EQ(h.mops.size(), 1u);
    EXPECT_EQ(h.mops[0].numOps, 3);
    EXPECT_EQ(h.mops[0].tailSeq, 2u);
}

TEST(MopSize, SquashTruncatesChainSuffix)
{
    Harness h(mopParams(4));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(5, 0, 0, 9), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(6, 0, 0), h.now));
    h.tick();
    h.s.squashAfter(1, h.now);  // ops 5 and 6 squashed, 0 and 1 stay
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
    EXPECT_FALSE(h.done.count(5));
    EXPECT_FALSE(h.done.count(6));
}

TEST(MopSize, GrantChecksEveryFuSlotOfAWideMop)
{
    // Regression: select used to check unit availability only for the
    // first two ops of a MOP, so a 3-op MOP whose third op needed a
    // busy unit issued anyway and overbooked the pool.
    SchedParams p = mopParams(3);
    p.fuCounts[size_t(mop::isa::FuKind::IntMultDiv)] = 1;
    Harness h(p);
    // Occupy the only IntMultDiv unit with an unpipelined divide.
    h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now);
    h.tick();
    int e = h.s.insert(Harness::alu(1, 1), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 1, 1), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::op(3, OpClass::IntMult, 1, 1),
                               h.now));
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);
    // The divide holds the unit until cycle 21, so the MOP whose third
    // op wants it at issue+2 cannot issue before cycle 19. The buggy
    // two-slot check granted it at cycle 2.
    EXPECT_EQ(h.issuedAt(1), 19u);
    EXPECT_EQ(h.execAt(3), 19u + 4 + 2);
}

TEST(MopSize, SquashAfterCompletedPrefixFreesShrunkenEntry)
{
    // Regression: squashAfter shrank an issued MOP whose surviving
    // prefix had already completed without re-running the completion
    // check, leaking the entry until the watchdog fired.
    Harness h(mopParams(3));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    // The MOP issues at cycle 1 and its ops complete on consecutive
    // cycles; wait until the first two are done but the third is still
    // in flight, then squash the third away.
    while (!h.done.count(1))
        h.tick();
    h.s.squashAfter(1, h.now);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
    EXPECT_FALSE(h.done.count(2));
}

TEST(MopSize, SquashedTailCompletionsDoNotRetireLongLatencyHead)
{
    // Regression: completion is tracked per op, not as a count. The
    // short ALU tails of this MOP complete while the divide at its
    // head is still executing; squashing the tails away then shrank
    // numOps below the number of completions already counted and the
    // entry was reaped with the head in flight, so the head's
    // completion was dropped by the generation guard and never
    // reported.
    Harness h(mopParams(3));
    int e = h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now, true));
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    while (!h.done.count(2))
        h.tick();
    ASSERT_FALSE(h.done.count(0));  // the divide is still in flight
    h.s.squashAfter(0, h.now);      // both tails squashed, head stays
    h.runUntilIdle();
    ASSERT_TRUE(h.done.count(0));   // head completion still reported
    EXPECT_EQ(h.completeAt(0), h.execAt(0) + 20);
}

TEST(MopSizeFormation, ChainsFollowPerInstructionPointers)
{
    // Pointers: I0 -> I1, I1 -> I2 (each instruction carries one
    // pointer); with maxMopSize 3 formation builds a 3-op MOP.
    constexpr uint64_t kPc = 0x400000;
    core::MopPointerCache cache;
    auto wp = [&](uint64_t idx, uint8_t off) {
        core::MopPointer p;
        p.offset = off;
        p.chainSafe = off == 1;  // adjacent single-source links
        p.tailPc = kPc + 4 * (idx + off);
        cache.write(kPc + 4 * idx, p);
    };
    wp(0, 1);
    wp(1, 1);
    core::MopFormation f(true, cache, 3);
    auto mk = [&](uint64_t idx, int dst, int s0 = -1) {
        MicroOp u;
        u.pc = kPc + 4 * idx;
        u.op = OpClass::IntAlu;
        u.dst = int16_t(dst);
        u.src = {int16_t(s0), mop::isa::kNoReg};
        return u;
    };
    auto h = f.process(mk(0, 1), 0);
    ASSERT_EQ(h.role, core::FormOutcome::Role::Head);
    f.setHeadEntry(0, 5);
    auto t1 = f.process(mk(1, 2, 1), 1);
    ASSERT_EQ(t1.role, core::FormOutcome::Role::Tail);
    EXPECT_TRUE(t1.moreExpected);
    EXPECT_EQ(t1.dst, h.dst);
    auto t2 = f.process(mk(2, 3, 2), 2);
    ASSERT_EQ(t2.role, core::FormOutcome::Role::Tail);
    EXPECT_FALSE(t2.moreExpected);  // size cap reached
    EXPECT_EQ(t2.dst, h.dst);
    EXPECT_EQ(t2.headEntry, 5);
}

TEST(MopSizeFormation, UnsafePointerDoesNotExtendChain)
{
    // A tail whose own pointer is not chain-safe (distant or
    // multi-source link) must end the MOP: pointers from different
    // detection passes could otherwise compose into a dependence
    // cycle through the merged chain (Figure 8).
    constexpr uint64_t kPc = 0x400000;
    core::MopPointerCache cache;
    core::MopPointer p;
    p.offset = 1;
    p.chainSafe = true;
    p.tailPc = kPc + 4;
    cache.write(kPc, p);
    p.offset = 2;        // distant link: not chain-safe
    p.chainSafe = false;
    p.tailPc = kPc + 12;
    cache.write(kPc + 4, p);
    core::MopFormation f(true, cache, 4);
    MicroOp u;
    u.pc = kPc;
    u.op = OpClass::IntAlu;
    u.dst = 1;
    ASSERT_EQ(f.process(u, 0).role, core::FormOutcome::Role::Head);
    f.setHeadEntry(0, 2);
    u.pc = kPc + 4;
    u.dst = 2;
    u.src = {1, mop::isa::kNoReg};
    auto t = f.process(u, 1);
    ASSERT_EQ(t.role, core::FormOutcome::Role::Tail);
    EXPECT_FALSE(t.moreExpected);
}

TEST(MopSizeFormation, SizeTwoNeverChains)
{
    constexpr uint64_t kPc = 0x400000;
    core::MopPointerCache cache;
    for (uint64_t i = 0; i < 2; ++i) {
        core::MopPointer p;
        p.offset = 1;
        p.chainSafe = true;
        p.tailPc = kPc + 4 * (i + 1);
        cache.write(kPc + 4 * i, p);
    }
    core::MopFormation f(true, cache, 2);
    MicroOp u;
    u.pc = kPc;
    u.op = OpClass::IntAlu;
    u.dst = 1;
    auto h = f.process(u, 0);
    ASSERT_EQ(h.role, core::FormOutcome::Role::Head);
    f.setHeadEntry(0, 3);
    u.pc = kPc + 4;
    u.dst = 2;
    auto t = f.process(u, 1);
    ASSERT_EQ(t.role, core::FormOutcome::Role::Tail);
    EXPECT_FALSE(t.moreExpected);
}

class MopSizePipeline : public ::testing::TestWithParam<int>
{
};

TEST_P(MopSizePipeline, EndToEndWithInvariants)
{
    using namespace mop;
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.mopSize = GetParam();
    cfg.schedDepth = GetParam();  // N-deep loop with N-op MOPs
    auto r = sim::runBenchmark("gzip", cfg, 30000);
    EXPECT_GE(r.insts, 30000u);
    EXPECT_GT(r.groupedFrac(), 0.2);
    EXPECT_GT(r.ipc, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MopSizePipeline,
                         ::testing::Values(2, 3, 4));

TEST(MopSizePipeline, LargerMopsReduceEntriesFurther)
{
    using namespace mop;
    auto run = [](int size) {
        sim::RunConfig cfg;
        cfg.machine = sim::Machine::MopWiredOr;
        cfg.iqEntries = 32;
        cfg.mopSize = size;
        return sim::runBenchmark("gzip", cfg, 40000);
    };
    auto r2 = run(2);
    auto r4 = run(4);
    double red2 = 1.0 - double(r2.iqEntriesInserted) /
                            double(r2.uopsInserted);
    double red4 = 1.0 - double(r4.iqEntriesInserted) /
                            double(r4.uopsInserted);
    EXPECT_GT(red4, red2 + 0.03);  // Section 4.3's promise
}

TEST(MopSizePipeline, MopsCoverDeeperLoopBetterThanPlain)
{
    using namespace mop;
    auto run = [](sim::Machine m, int size, int depth) {
        sim::RunConfig cfg;
        cfg.machine = m;
        cfg.iqEntries = 32;
        cfg.mopSize = size;
        cfg.schedDepth = depth;
        return sim::runBenchmark("gzip", cfg, 40000).ipc;
    };
    double plain3 = run(sim::Machine::TwoCycle, 2, 3);
    double mop3 = run(sim::Machine::MopWiredOr, 3, 3);
    EXPECT_GT(mop3, plain3 * 1.1);
}

} // namespace
