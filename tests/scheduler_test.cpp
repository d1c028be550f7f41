/**
 * @file
 * Scheduler mechanics: speculative load scheduling with selective
 * replay, select-free collision handling, MOP entry management
 * (pending bits, source unions, squash behaviour), FU contention, and
 * the deadlock watchdog (Figure 8).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sched_harness.hh"

namespace
{

using namespace mop::test;
using mop::isa::OpClass;
namespace sched = mop::sched;

// Policy-agnostic suites run once per registered behaviour policy:
// entry management, select priority, FU booking and queue accounting
// must not depend on how loads wake consumers or how MOPs were
// located. The Replay suite below stays paper-only (speculative
// wakeup + selective replay IS the paper policy); the LoadDelaySched
// suite covers the load-delay equivalents.
class Mop : public PerPolicyTest
{
};
class Deadlock : public PerPolicyTest
{
};
class Select : public PerPolicyTest
{
};
class SelectFree : public PerPolicyTest
{
};
class Queue : public PerPolicyTest
{
};

TEST(Replay, LoadMissInvalidatesAndReplaysConsumer)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });  // L2 hit: miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();

    EXPECT_EQ(h.s.replayInvalidations(), 1u);  // issued in the shadow
    EXPECT_TRUE(h.done.at(0).wasMiss);
    // The consumer's final execution respects the real latency.
    EXPECT_GE(h.execAt(1), h.completeAt(0));
    // Load value ready at issue + D + 1 (addr gen) + 10.
    EXPECT_EQ(h.completeAt(0), h.issuedAt(0) + 4 + 1 + 10);
}

TEST(Replay, PoisonPropagatesTransitively)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);   // child
    h.s.insert(Harness::alu(2, 2, 1), h.now);   // grandchild
    h.runUntilIdle();
    // Both dependents were woken in the shadow and replayed.
    EXPECT_GE(h.s.replayInvalidations(), 2u);
    h.assertDataflow({{0, 1}, {1, 2}});
}

TEST(Replay, IndependentOpsUnaffectedByMiss)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 110; });  // memory miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);    // dependent
    h.s.insert(Harness::alu(2, 2), h.now);       // independent
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(2), 1u);  // issues immediately
    EXPECT_GE(h.execAt(1), h.completeAt(0));
}

TEST(Replay, ReplayPenaltyApplied)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();
    // Corrected wakeup: complete - D = issue + 11; exec = complete.
    EXPECT_EQ(h.execAt(1), h.completeAt(0));
}

TEST(Replay, HitCausesNoReplay)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    h.s.setLoadLatencyFn([](uint64_t) { return 2; });
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.s.replayInvalidations(), 0u);
    EXPECT_FALSE(h.done.at(0).wasMiss);
}

TEST_P(Mop, PendingEntryDoesNotIssue)
{
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, /*expect_tail=*/true);
    for (int i = 0; i < 10; ++i)
        h.tick();
    EXPECT_TRUE(h.done.empty());  // head waits for its tail
    h.s.clearPending(e, h.now);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
}

TEST_P(Mop, SourceUnionBudgetCamVsWiredOr)
{
    // Head has two sources; tail adds a third distinct one.
    auto build = [this](sched::WakeupStyle style) {
        SchedParams p = params(LoopPolicy::TwoCycle);
        p.style = style;
        return p;
    };
    {
        Harness h(build(sched::WakeupStyle::Cam2));
        int e = h.s.insert(Harness::alu(0, 0, 10, 11), h.now, true);
        EXPECT_FALSE(h.s.appendTail(e, Harness::alu(1, 0, 0, 12), h.now));
    }
    {
        Harness h(build(sched::WakeupStyle::WiredOr));
        int e = h.s.insert(Harness::alu(0, 0, 10, 11), h.now, true);
        EXPECT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0, 12), h.now));
    }
}

TEST_P(Mop, InternalEdgeElided)
{
    // The tail's dependence on the head (same MOP tag) must not count
    // as a source (it never receives a broadcast).
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);  // nothing external to wait for
}

TEST_P(Mop, SingleBroadcastWakesBothConsumersOnce)
{
    Harness h(params(LoopPolicy::TwoCycle));
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.s.insert(Harness::alu(2, 1, 0), h.now);
    h.s.insert(Harness::alu(3, 2, 0), h.now);
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(2), h.issuedAt(0) + 2);
    EXPECT_EQ(h.issuedAt(3), h.issuedAt(0) + 2);
}

TEST_P(Mop, IssueSlotHeldForSequencing)
{
    // Section 5.3.1: while a MOP sequences its second op, the slot is
    // not available. With issue width 1, a ready single op is delayed
    // by the MOP in front of it.
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.issueWidth = 1;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    h.s.insert(Harness::alu(2, 1), h.now);  // independent, same age order
    h.runUntilIdle();
    EXPECT_EQ(h.issuedAt(0), 1u);
    EXPECT_EQ(h.issuedAt(2), 3u);  // cycle 2 is consumed by sequencing
}

TEST_P(Mop, SquashSplitsEntryAndForcesTailSources)
{
    Harness h(params(LoopPolicy::TwoCycle));
    // Tail depends on tag 7 which will never be produced; after the
    // squash removes the tail, the head must issue alone (5.3.2).
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(5, 0, 0, 7), h.now));
    h.tick();
    h.s.squashAfter(3, h.now);  // squashes seq 5, keeps seq 0
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_FALSE(h.done.count(5));
}

TEST_P(Mop, SquashRemovesWholeYoungEntries)
{
    Harness h(params(LoopPolicy::TwoCycle));
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(10, 1, 5), h.now);  // waits forever
    EXPECT_EQ(h.s.occupancy(), 2);
    h.s.squashAfter(0, h.now);
    EXPECT_EQ(h.s.occupancy(), 1);
    h.runUntilIdle();
}

TEST_P(Mop, SquashEventRecordedAtCurrentCycle)
{
    // Regression: the squash event used to be stamped with the cycle
    // of the last scheduler progress instead of the cycle the flush
    // actually happened, which scrambled event-ring forensics.
    Harness h(params(LoopPolicy::TwoCycle));
    mop::verify::EventRing ring(64);
    h.s.setEventRing(&ring);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.runUntilIdle();
    for (int i = 0; i < 10; ++i)  // idle cycles: no progress
        h.tick();
    Cycle at = h.now;
    h.s.squashAfter(0, h.now);
    bool found = false;
    for (size_t i = 0; i < ring.size(); ++i) {
        const mop::verify::SchedEvent &ev = ring.at(i);
        if (ev.kind == mop::verify::SchedEvent::Kind::Squash) {
            found = true;
            EXPECT_EQ(ev.cycle, at);
        }
    }
    EXPECT_TRUE(found);
}

TEST_P(Deadlock, MopCycleCaughtByWatchdog)
{
    // Figure 8(a): MOP(1,3) and instruction 2 form a circular wait:
    // the MOP needs 2's result (tail source) and 2 needs the MOP's
    // head result. The conservative detection heuristic exists to
    // prevent exactly this; built directly, the watchdog must fire.
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.watchdogCycles = 500;
    Harness h(p);
    int e = h.s.insert(Harness::alu(1, 0), h.now, true);       // head
    h.s.insert(Harness::alu(2, 1, 0), h.now);                  // insn 2
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(3, 0, 0, 1), h.now));
    EXPECT_THROW(
        {
            for (int i = 0; i < 2000; ++i)
                h.tick();
        },
        sched::DeadlockError);
}

TEST_P(Select, AgePriorityOldestFirst)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.issueWidth = 1;
    Harness h(p);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    h.s.insert(Harness::alu(2, 2), h.now);
    h.runUntilIdle();
    EXPECT_LT(h.issuedAt(0), h.issuedAt(1));
    EXPECT_LT(h.issuedAt(1), h.issuedAt(2));
}

TEST_P(Select, IssueWidthLimits)
{
    Harness h(params(LoopPolicy::Atomic));  // width 4
    for (uint64_t i = 0; i < 6; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);
    h.runUntilIdle();
    int first = 0, second = 0;
    for (uint64_t i = 0; i < 6; ++i)
        (h.issuedAt(i) == 1 ? first : second)++;
    EXPECT_EQ(first, 4);
    EXPECT_EQ(second, 2);
}

TEST_P(Select, FuContentionDelaysFifthAlu)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.issueWidth = 8;
    Harness h(p);
    for (uint64_t i = 0; i < 5; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);
    h.runUntilIdle();
    // 4 integer ALUs: the fifth op waits a cycle despite issue width.
    uint64_t at1 = 0, at2 = 0;
    for (uint64_t i = 0; i < 5; ++i)
        (h.issuedAt(i) == 1 ? at1 : at2)++;
    EXPECT_EQ(at1, 4u);
    EXPECT_EQ(at2, 1u);
}

TEST_P(Select, UnpipelinedDivideBlocksUnit)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.fuCounts = {4, 1, 2, 2, 2};  // single int mult/div unit
    Harness h(p);
    h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now);
    h.s.insert(Harness::op(1, OpClass::IntDiv, 1), h.now);
    h.runUntilIdle();
    EXPECT_GE(h.issuedAt(1), h.issuedAt(0) + 20);
}

TEST_P(SelectFree, SquashDepCollisionsCountedAndCorrect)
{
    SchedParams p = params(LoopPolicy::SelectFreeSquashDep);
    MOP_SKIP_IF_REJECTED(p);
    p.issueWidth = 1;
    Harness h(p);
    // Two independent producers, each with a dependent chain; with
    // width 1, one producer collides and its wakeups are recalled.
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    h.s.insert(Harness::alu(2, 2, 0), h.now);
    h.s.insert(Harness::alu(3, 3, 1), h.now);
    h.runUntilIdle();
    EXPECT_GE(h.s.collisions(), 1u);
    h.assertDataflow({{0, 2}, {1, 3}});
}

TEST_P(SelectFree, NoCollisionMatchesAtomicTiming)
{
    MOP_SKIP_IF_REJECTED(params(LoopPolicy::SelectFreeSquashDep));
    Harness sf(params(LoopPolicy::SelectFreeSquashDep));
    Harness at(params(LoopPolicy::Atomic));
    for (Harness *h : {&sf, &at}) {
        h->s.insert(Harness::alu(0, 0), h->now);
        h->s.insert(Harness::alu(1, 1, 0), h->now);
        h->s.insert(Harness::alu(2, 2, 1), h->now);
        h->runUntilIdle();
    }
    for (uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(sf.issuedAt(i), at.issuedAt(i)) << i;
}

TEST_P(SelectFree, ScoreboardPileupVictimsReplayed)
{
    // A collision victim's child is woken as if its parent issued at
    // ready time; when the parent is delayed by older work, the child
    // can issue in the same cycle as the parent and reaches RF before
    // the value exists: the scoreboard kills and replays it.
    SchedParams p = params(LoopPolicy::SelectFreeScoreboard);
    MOP_SKIP_IF_REJECTED(p);
    p.issueWidth = 4;
    Harness h(p);
    for (uint64_t i = 0; i < 4; ++i)
        h.s.insert(Harness::alu(i, Tag(i)), h.now);  // older blockers
    h.s.insert(Harness::alu(4, 4), h.now);           // collision victim
    h.s.insert(Harness::alu(5, 5, 4), h.now);        // mis-woken child
    h.runUntilIdle();
    EXPECT_GE(h.s.collisions(), 1u);
    EXPECT_GE(h.s.pileupKills(), 1u);  // mis-woken op reached RF
    h.assertDataflow({{4, 5}});
}

TEST_P(SelectFree, ScoreboardConsumesIssueBandwidth)
{
    MOP_SKIP_IF_REJECTED(params(LoopPolicy::SelectFreeScoreboard));
    // Pileup victims occupy issue slots; squash-dep mostly avoids
    // that. Compare total cycles to drain the same workload.
    auto drain_cycles = [this](LoopPolicy pol) {
        SchedParams p = params(pol);
        p.issueWidth = 2;
        Harness h(p);
        // A burst of producers and consumers exceeding the width.
        for (uint64_t i = 0; i < 6; ++i)
            h.s.insert(Harness::alu(i, Tag(i)), h.now);
        for (uint64_t i = 0; i < 6; ++i)
            h.s.insert(Harness::alu(6 + i, Tag(6 + i), Tag(i)), h.now);
        h.runUntilIdle();
        Cycle last = 0;
        for (auto &[seq, ev] : h.done)
            last = std::max(last, ev.complete);
        return last;
    };
    EXPECT_LE(drain_cycles(LoopPolicy::SelectFreeSquashDep),
              drain_cycles(LoopPolicy::SelectFreeScoreboard));
}

TEST_P(Queue, CapacityRespected)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.numEntries = 4;
    Harness h(p);
    for (uint64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(h.s.canInsert());
        h.s.insert(Harness::alu(i, Tag(i), 99), h.now);  // all waiting
    }
    EXPECT_FALSE(h.s.canInsert());
    EXPECT_EQ(h.s.occupancy(), 4);
}

TEST_P(Queue, EntriesFreedAfterCompletion)
{
    SchedParams p = params(LoopPolicy::Atomic);
    p.numEntries = 2;
    Harness h(p);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1), h.now);
    EXPECT_FALSE(h.s.canInsert());
    h.runUntilIdle();
    EXPECT_TRUE(h.s.canInsert(2));
}

TEST_P(Queue, WakeupDueAfterCompletionStillWakes)
{
    // A scheduling loop deeper than dispatch plus execution broadcasts
    // after its producer completed (issue + 8 against issue + 5). The
    // entry is freed only once its broadcast has left the bus, so the
    // chain still wakes, one link per loop depth.
    SchedParams p = params(LoopPolicy::Atomic);
    p.schedDepth = p.dispatchDepth + 4;
    Harness h(p);
    h.s.insert(Harness::alu(0, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.s.insert(Harness::alu(2, 2, 1), h.now);
    h.runUntilIdle();
    h.assertDataflow({{0, 1}, {1, 2}});
    EXPECT_LT(h.completeAt(0), h.issuedAt(0) + Cycle(p.schedDepth));
    EXPECT_EQ(h.issuedAt(1), h.issuedAt(0) + Cycle(p.schedDepth));
    EXPECT_EQ(h.issuedAt(2), h.issuedAt(1) + Cycle(p.schedDepth));
    EXPECT_NO_THROW(h.s.auditStructures());
}

TEST_P(Queue, MopSharesOneEntry)
{
    SchedParams p = params(LoopPolicy::TwoCycle);
    p.numEntries = 1;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now));
    EXPECT_EQ(h.s.occupancy(), 1);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
}

// --- load-delay policy semantics (the replay-free counterparts of
// --- the Replay suite above) -----------------------------------------

TEST(LoadDelaySched, MissWakesConsumerWithoutReplay)
{
    Harness h(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    h.s.setLoadLatencyFn([](uint64_t) { return 10; });  // L2 hit: miss
    h.s.insert(Harness::op(0, OpClass::Load, 0), h.now);
    h.s.insert(Harness::alu(1, 1, 0), h.now);
    h.runUntilIdle();

    // The delay table predicted the miss at issue: the consumer was
    // never woken speculatively, so there is nothing to replay.
    EXPECT_EQ(h.s.replayInvalidations(), 0u);
    EXPECT_TRUE(h.done.at(0).wasMiss);
    EXPECT_EQ(h.completeAt(0), h.issuedAt(0) + 4 + 1 + 10);
    // The wakeup lands exactly on the value: no replay penalty, no
    // slack either.
    EXPECT_EQ(h.execAt(1), h.completeAt(0));
}

TEST(LoadDelaySched, HitTimingMatchesPaperPolicy)
{
    // On hits the delay table predicts dl1HitLatency, which is what
    // the paper policy speculates: identical schedules.
    Harness ld(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    Harness pa(Harness::params(LoopPolicy::Atomic, PolicyId::Paper));
    for (Harness *h : {&ld, &pa}) {
        h->s.setLoadLatencyFn([](uint64_t) { return 2; });
        h->s.insert(Harness::op(0, OpClass::Load, 0), h->now);
        h->s.insert(Harness::alu(1, 1, 0), h->now);
        h->s.insert(Harness::alu(2, 2, 1), h->now);
        h->runUntilIdle();
    }
    for (uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ld.issuedAt(i), pa.issuedAt(i)) << i;
        EXPECT_EQ(ld.completeAt(i), pa.completeAt(i)) << i;
    }
    EXPECT_EQ(ld.s.replayInvalidations(), 0u);
    EXPECT_EQ(pa.s.replayInvalidations(), 0u);
}

TEST(LoadDelaySched, DelayQueriedExactlyOncePerLoad)
{
    // The latency callback is side-effecting in the pipeline (cache
    // state, fault-campaign RNG draws): the load-delay policy must
    // sample it once per load even though both the broadcast-timing
    // computation and the execution model need the answer.
    Harness h(Harness::params(LoopPolicy::Atomic, PolicyId::LoadDelay));
    std::map<uint64_t, int> queries;
    h.s.setLoadLatencyFn([&queries](uint64_t seq) {
        ++queries[seq];
        return seq % 2 ? 10 : 2;
    });
    for (uint64_t i = 0; i < 6; ++i)
        h.s.insert(Harness::op(i, OpClass::Load, Tag(i)), h.now);
    h.runUntilIdle();
    ASSERT_EQ(queries.size(), 6u);
    for (auto [seq, n] : queries)
        EXPECT_EQ(n, 1) << "load " << seq;
}

TEST(LoadDelaySched, SelectFreeOrganizationsRejected)
{
    // Select-free broadcasts before selection, when the load's delay
    // is not yet known: the combination is structurally impossible and
    // must be rejected at construction, not mis-scheduled.
    for (LoopPolicy pol : {LoopPolicy::SelectFreeSquashDep,
                           LoopPolicy::SelectFreeScoreboard}) {
        EXPECT_THROW(
            sched::Scheduler s(
                Harness::params(pol, PolicyId::LoadDelay)),
            std::invalid_argument);
    }
}

// --- static-fuse policy semantics ------------------------------------

TEST(StaticFuseSched, MopSizeClampedToPairs)
{
    // Decode-fused pairs only: even when the configuration asks for
    // 4-op MOPs, the static-fuse policy caps the entry at 2 ops and
    // the chain-extension appendTail must be refused.
    SchedParams p =
        Harness::params(LoopPolicy::TwoCycle, PolicyId::StaticFuse);
    p.maxMopSize = 4;
    Harness h(p);
    int e = h.s.insert(Harness::alu(0, 0), h.now, true);
    ASSERT_TRUE(h.s.appendTail(e, Harness::alu(1, 0, 0), h.now,
                               /*more_coming=*/true));
    EXPECT_FALSE(h.s.appendTail(e, Harness::alu(2, 0, 0), h.now));
    h.s.clearPending(e, h.now);
    h.runUntilIdle();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
    EXPECT_FALSE(h.done.count(2));

    // The same chain is accepted under the paper policy.
    SchedParams pp = Harness::params(LoopPolicy::TwoCycle);
    pp.maxMopSize = 4;
    Harness hp(pp);
    int ep = hp.s.insert(Harness::alu(0, 0), hp.now, true);
    ASSERT_TRUE(hp.s.appendTail(ep, Harness::alu(1, 0, 0), hp.now, true));
    EXPECT_TRUE(hp.s.appendTail(ep, Harness::alu(2, 0, 0), hp.now));
}

// --- whole-entry FU admission (regression for the intra-entry
// --- double-booking bug fixed by FuPool::availableSeq) ---------------

TEST_P(Select, UnpipelinedMopWaitsForWholeEntryFuSequence)
{
    // A divide pair grouped into one MOP, with a third divide already
    // holding one of the two IntMultDiv units. Under the old per-op
    // independent FU check, select granted the pair against the single
    // free unit twice and reserve() hit assert(available); the seq
    // check must instead hold the MOP until both units are free, and
    // the run must drain cleanly.
    Harness h(params(LoopPolicy::TwoCycle));
    h.s.insert(Harness::op(9, OpClass::IntDiv, 9), h.now);
    int e = h.s.insert(Harness::op(0, OpClass::IntDiv, 0), h.now, true);
    ASSERT_TRUE(
        h.s.appendTail(e, Harness::op(1, OpClass::IntDiv, 1, 0), h.now));
    h.runUntilIdle();
    // Tail executes the cycle after its head (the internal edge is
    // elided by MOP semantics), each on its own unit.
    EXPECT_EQ(h.execAt(1), h.execAt(0) + 1);
    // The MOP could not start while the independent divide held a
    // unit: its head initiates no earlier than that divide frees one
    // of the two units for the tail's +1 slot.
    EXPECT_GE(h.issuedAt(0), h.issuedAt(9));
}

// --- consumer index: tags t, t+K, t+2K share one bucket --------------

constexpr Tag kK = Tag(sched::Scheduler::kConsumerBuckets);

/** Both harnesses completed the same ops with identical timing. */
void
expectSameSchedule(const Harness &a, const Harness &b)
{
    ASSERT_EQ(a.done.size(), b.done.size());
    for (const auto &[seq, ea] : a.done) {
        ASSERT_TRUE(b.done.count(seq)) << "seq " << seq;
        const ExecEvent &eb = b.done.at(seq);
        EXPECT_EQ(ea.ready, eb.ready) << "seq " << seq;
        EXPECT_EQ(ea.issued, eb.issued) << "seq " << seq;
        EXPECT_EQ(ea.execStart, eb.execStart) << "seq " << seq;
        EXPECT_EQ(ea.complete, eb.complete) << "seq " << seq;
        EXPECT_EQ(ea.wasMiss, eb.wasMiss) << "seq " << seq;
        EXPECT_EQ(ea.replayed, eb.replayed) << "seq " << seq;
    }
    EXPECT_EQ(a.s.replayInvalidations(), b.s.replayInvalidations());
}

TEST(ConsumerIndex, DeliverWakesOnlyExactMatches)
{
    // Every tag below lands in bucket 5. Only the consumer of the one
    // tag that is broadcast may wake; the others stay waiting.
    Harness h(Harness::params(LoopPolicy::Atomic));
    const Tag never = 5 + 3 * kK;  // no producer
    h.s.insert(Harness::alu(0, 5), h.now);
    h.s.insert(Harness::alu(1, 100, 5), h.now);
    h.s.insert(Harness::alu(2, 5 + kK, never), h.now);
    h.s.insert(Harness::alu(3, 5 + 2 * kK, never), h.now);
    h.s.insert(Harness::alu(4, 101, 5 + kK), h.now);
    h.s.insert(Harness::alu(5, 102, 5 + 2 * kK), h.now);
    for (int i = 0; i < 20; ++i)
        h.tick();
    EXPECT_TRUE(h.done.count(0));
    EXPECT_TRUE(h.done.count(1));
    for (uint64_t seq = 2; seq <= 5; ++seq)
        EXPECT_FALSE(h.done.count(seq)) << seq;
    EXPECT_TRUE(h.s.tagIsReady(5));
    EXPECT_FALSE(h.s.tagIsReady(5 + kK));
    EXPECT_FALSE(h.s.tagIsReady(5 + 2 * kK));
    EXPECT_EQ(h.s.occupancy(), 4);
    EXPECT_NO_THROW(h.s.auditStructures());
    h.s.squashAfter(1, h.now);
    h.runUntilIdle();
    EXPECT_NO_THROW(h.s.auditStructures());
}

TEST(ConsumerIndex, RecallReplaysOnlyExactConsumers)
{
    // A missing load's recall must replay its own consumers and
    // nothing else, whether the other in-flight tags share its bucket
    // (stride K) or not (stride 1): the two schedules are identical.
    auto run = [](Harness &h, Tag stride) {
        auto tag = [stride](int n) { return Tag(3 + n * stride); };
        h.s.setLoadLatencyFn([](uint64_t seq) { return seq == 0 ? 10 : 2; });
        h.s.insert(Harness::op(0, OpClass::Load, tag(0)), h.now);
        h.s.insert(Harness::alu(1, tag(1)), h.now);
        h.s.insert(Harness::alu(2, tag(2), tag(0)), h.now);  // child
        h.s.insert(Harness::alu(3, tag(3), tag(1)), h.now);  // bystander
        h.s.insert(Harness::alu(4, tag(4), tag(2)), h.now);  // grandchild
        h.s.insert(Harness::alu(5, tag(5), tag(3)), h.now);  // bystander
        h.runUntilIdle();
    };
    Harness spread(Harness::params(LoopPolicy::Atomic));
    Harness alias(Harness::params(LoopPolicy::Atomic));
    run(spread, 1);
    run(alias, kK);
    expectSameSchedule(spread, alias);
    EXPECT_TRUE(alias.done.at(2).replayed);
    EXPECT_TRUE(alias.done.at(4).replayed);
    EXPECT_FALSE(alias.done.at(3).replayed);
    EXPECT_FALSE(alias.done.at(5).replayed);
    EXPECT_EQ(alias.s.replayInvalidations(), 2u);
    alias.assertDataflow({{0, 2}, {2, 4}, {1, 3}, {3, 5}});
}

TEST(ConsumerIndex, FreedEntryInheritsNoStaleBits)
{
    SchedParams p = Harness::params(LoopPolicy::Atomic);
    p.numEntries = 2;
    Harness h(p);
    const Tag x = 7 + kK;
    int e = h.s.insert(Harness::alu(10, 1, x), h.now);
    EXPECT_TRUE(h.s.consumerIndexed(x, e));
    EXPECT_TRUE(h.s.consumerIndexed(7, e));  // same bucket as x
    h.s.squashAfter(9, h.now);
    EXPECT_FALSE(h.s.consumerIndexed(x, e));
    EXPECT_NO_THROW(h.s.auditStructures());

    // The slot is reused by x's producer, which names no source, and
    // by a consumer of 7 (x's bucket): only the latter is indexed.
    int prod = h.s.insert(Harness::alu(11, x), h.now);
    EXPECT_EQ(prod, e);
    int cons = h.s.insert(Harness::alu(12, 2, 7), h.now);
    EXPECT_FALSE(h.s.consumerIndexed(x, prod));
    EXPECT_TRUE(h.s.consumerIndexed(7, cons));
    EXPECT_NO_THROW(h.s.auditStructures());
    for (int i = 0; i < 20; ++i)
        h.tick();
    EXPECT_TRUE(h.done.count(11));
    EXPECT_FALSE(h.done.count(12));  // x's broadcast must not wake it
    EXPECT_EQ(h.s.occupancy(), 1);
    h.s.squashAfter(11, h.now);
    EXPECT_EQ(h.s.occupancy(), 0);
    EXPECT_NO_THROW(h.s.auditStructures());
}

TEST(ConsumerIndex, SquashShrunkMopKeepsLeftoverBits)
{
    // A squash drops a MOP's tail; the source it contributed is forced
    // ready but stays in the entry (Section 5.3.2), and so does its
    // index bit. When that tag is later recalled by a load miss, the
    // shrunken entry is still compared against it and replays, as it
    // did before the index existed, with or without aliasing.
    auto run = [](Harness &h, Tag stride) {
        auto tag = [stride](int n) { return Tag(3 + n * stride); };
        h.s.setLoadLatencyFn([](uint64_t) { return 10; });
        int e = h.s.insert(Harness::alu(0, tag(0)), h.now, true);
        h.s.insert(Harness::op(1, OpClass::Load, tag(1)), h.now);
        h.s.insert(Harness::alu(2, tag(2), tag(0)), h.now);
        EXPECT_TRUE(h.s.appendTail(e, Harness::alu(5, tag(0), tag(0), tag(1)),
                                   h.now));
        h.tick();
        h.s.squashAfter(3, h.now);
        EXPECT_TRUE(h.s.consumerIndexed(tag(1), e));
        h.runUntilIdle();
    };
    Harness spread(Harness::params(LoopPolicy::TwoCycle));
    Harness alias(Harness::params(LoopPolicy::TwoCycle));
    run(spread, 1);
    run(alias, kK);
    expectSameSchedule(spread, alias);
    EXPECT_FALSE(alias.done.count(5));
    // Values of the full-queue scan the index replaced.
    EXPECT_TRUE(alias.done.at(0).replayed);
    EXPECT_EQ(alias.done.at(0).issued, 12u);
    EXPECT_EQ(alias.done.at(2).issued, 14u);
    EXPECT_EQ(alias.s.replayInvalidations(), 2u);
}

// --- wakeup/select work against queue size ---------------------------

constexpr uint64_t kStreamOps = 4096;

/**
 * Drive the scaling stream through a TwoCycle queue of @p entries and
 * store its work counts in @p work. The stream is kStreamOps
 * single-cycle ops, up to four inserted a cycle while there is room,
 * each depending on the op four before it, so four chains keep the
 * queue full. With @p loads every 7th op is a load that misses for 20
 * cycles, whose speculative wakeup is recalled.
 */
void
runScalingStream(int entries, bool loads, sched::SchedWork &work)
{
    SchedParams p;
    p.policy = LoopPolicy::TwoCycle;
    p.numEntries = entries;
    sched::Scheduler s(p);
    s.setLoadLatencyFn([](uint64_t) { return 20; });
    std::vector<ExecEvent> completed;
    Cycle now = 0;
    uint64_t seq = 0, done = 0;
    while (done < kStreamOps) {
        ASSERT_LT(now, 100000u) << "IQ " << entries << " stalled";
        for (int w = 0; w < 4 && seq < kStreamOps && s.canInsert(); ++w) {
            const bool load = loads && seq % 7 == 0;
            s.insert(Harness::op(seq, load ? OpClass::Load : OpClass::IntAlu,
                                 Tag(seq),
                                 seq >= 4 ? Tag(seq - 4) : sched::kNoTag),
                     now);
            ++seq;
        }
        completed.clear();
        s.tick(now, completed);
        done += completed.size();
        ++now;
    }
    work = s.work();
}

TEST(SchedWork, WakeupSelectWorkDoesNotGrowWithTheQueue)
{
    // Section 2.2's loop at IQ 32, 128 and 512. The consumer index
    // limits deliver and recall to a tag's bucket, and select walks
    // only the ready bitmap. Per op, without loads (one delivered tag
    // each), deliver compares 1.0 / 1.0 / 1.9 entries and select
    // visits 1.0; with the missing loads, recall compares 0.29 / 0.29 /
    // 0.55. Walking the whole waiting or valid bitmap instead gives
    // 22 / 115 / 441, 16 / 62 / 226 and 9 / 36 / 135. Every bound sits
    // between the two.
    const auto perOp = [](uint64_t n) { return double(n) / kStreamOps; };
    for (bool loads : {false, true}) {
        std::map<int, sched::SchedWork> w;
        for (int entries : {32, 128, 512}) {
            SCOPED_TRACE("IQ " + std::to_string(entries) +
                         (loads ? " with loads" : ""));
            ASSERT_NO_FATAL_FAILURE(
                runScalingStream(entries, loads, w[entries]));
            const sched::SchedWork &c = w[entries];
            // Floors: every op after the first four waits on one tag,
            // and every op is seen by the walk that selects it.
            EXPECT_GE(c.deliverCompares, kStreamOps - 4);
            EXPECT_LE(perOp(c.deliverCompares), 4.0);
            EXPECT_LE(perOp(c.recallCompares), 2.0);
            EXPECT_GE(c.selectVisits, kStreamOps);
            EXPECT_LE(perOp(c.selectVisits), 2.0);
            if (!loads)
                EXPECT_EQ(c.recallCompares, 0u);
            else
                EXPECT_GT(c.recallCompares, 0u);
        }
        // 16x the queue: at most 3x the deliver and recall work (bucket
        // aliasing doubles it at 512) and 1.5x the select work.
        const sched::SchedWork &small = w[32], &big = w[512];
        EXPECT_LE(big.deliverCompares, 3 * small.deliverCompares);
        EXPECT_LE(big.recallCompares, 3 * small.recallCompares);
        EXPECT_LE(2 * big.selectVisits, 3 * small.selectVisits);
    }
}

TEST(TagPool, BoundCoversBothMapsAndEveryEntrySlot)
{
    EXPECT_EQ(sched::Scheduler::tagBoundFor(32), 288u);
    EXPECT_EQ(sched::Scheduler::tagBoundFor(128), 768u);
    EXPECT_EQ(sched::Scheduler::tagBoundFor(512), 2688u);
    // The planes start at the bound; 0 entries means 512.
    for (int entries : {32, 128, 0}) {
        sched::Scheduler s(Harness::params(LoopPolicy::Atomic, entries));
        size_t want = sched::Scheduler::tagBoundFor(entries ? entries : 512);
        EXPECT_EQ(s.tagPool().bound(), want);
        EXPECT_EQ(s.tagCapacity(), want);
        EXPECT_FALSE(s.tagPool().inUse());
    }
}

/** Stands in for the formation: the tags a test holds outside the
 *  scheduler, reported to its audit. */
struct HeldTags : sched::TagHolder
{
    std::vector<Tag> tags;

    void
    forEachTagRef(const std::function<void(Tag)> &fn) const override
    {
        for (Tag t : tags)
            fn(t);
    }
};

/** The message of the IntegrityError @p fn throws ("" if none). */
template <typename Fn>
std::string
integrityError(Fn &&fn)
{
    try {
        fn();
    } catch (const mop::verify::IntegrityError &e) {
        return e.what();
    }
    return "";
}

TEST(TagPool, RecycledTagStartsLikeANeverUsedTag)
{
    Harness h(Harness::params(LoopPolicy::Atomic));
    HeldTags held;
    h.s.setTagHolder(&held);
    const Tag t = h.s.allocTag();
    EXPECT_EQ(t, 0);
    h.s.retainTag(t);  // a rename-table slot, say
    held.tags = {t};
    h.s.insert(Harness::alu(0, t), h.now);
    h.runUntilIdle();
    ASSERT_TRUE(h.s.tagIsReady(t));
    EXPECT_EQ(h.s.tagPool().live(), 1u);  // the table still names it
    h.s.releaseTag(t);
    held.tags.clear();
    EXPECT_FALSE(h.s.tagPool().isLive(t));

    // The most recently freed tag comes back first, with no trace of
    // its previous life: a consumer of the new producer must wait.
    const Tag again = h.s.allocTag();
    ASSERT_EQ(again, t);
    EXPECT_FALSE(h.s.tagIsReady(again));
    h.s.retainTag(again);
    held.tags = {again};
    h.s.insert(Harness::op(1, OpClass::Load, again), h.now);
    h.s.insert(Harness::alu(2, h.s.allocTag(), again), h.now);
    h.runUntilIdle();
    h.assertDataflow({{1, 2}});
    EXPECT_GT(h.issuedAt(2), h.issuedAt(1));
    h.s.releaseTag(again);
    held.tags.clear();
    EXPECT_EQ(h.s.tagPool().live(), 0u);
    EXPECT_EQ(h.s.tagPool().peakLive(), 2u);
    EXPECT_NO_THROW(h.s.auditStructures());
}

TEST(TagPool, CallerChosenTagsAboveTheBoundStillWork)
{
    // Callers that name their own tags (unit tests, the difftest
    // driver, the scheduler replay of the benchmark) bypass the pool;
    // tags past the bound grow the planes on demand.
    Harness h(Harness::params(LoopPolicy::Atomic, 32));
    const Tag far = Tag(200'000);
    const Tag past = Tag(h.s.tagPool().bound() + 7);
    h.s.insert(Harness::alu(0, past), h.now);
    h.s.insert(Harness::alu(1, far, past), h.now);
    h.s.insert(Harness::alu(2, 3, far), h.now);
    h.runUntilIdle();
    h.assertDataflow({{0, 1}, {1, 2}});
    EXPECT_TRUE(h.s.tagIsReady(far));
    EXPECT_GT(h.s.tagCapacity(), size_t(far));
    EXPECT_FALSE(h.s.tagPool().inUse());
    EXPECT_NO_THROW(h.s.auditStructures());
}

TEST(TagPool, AuditRecountsEveryReference)
{
    {
        // A reference no holder reports: the stored count is ahead of
        // the names the audit finds.
        Harness h(Harness::params(LoopPolicy::Atomic));
        Tag t = h.s.allocTag();
        h.s.retainTag(t);
        h.s.insert(Harness::alu(0, t), h.now);
        EXPECT_NE(integrityError([&] { h.s.auditStructures(); })
                      .find("counts 2 references but 1 were found"),
                  std::string::npos);
    }
    {
        // A reference dropped early: the entry still names its source
        // after the tag went back to the free list.
        Harness h(Harness::params(LoopPolicy::Atomic));
        HeldTags held;
        h.s.setTagHolder(&held);
        Tag src = h.s.allocTag();
        Tag dst = h.s.allocTag();
        h.s.retainTag(src);
        h.s.retainTag(dst);
        held.tags = {src, dst};
        h.s.insert(Harness::alu(0, dst, src), h.now);
        EXPECT_NO_THROW(h.s.auditStructures());
        h.s.releaseTag(src);
        h.s.releaseTag(src);
        held.tags = {dst};
        EXPECT_FALSE(h.s.tagPool().isLive(src));
        EXPECT_NE(integrityError([&] { h.s.auditStructures(); })
                      .find("an issue-queue source names free tag"),
                  std::string::npos);
    }
    {
        // Releasing a tag nothing has retained.
        Harness h(Harness::params(LoopPolicy::Atomic));
        Tag t = h.s.allocTag();
        EXPECT_NE(integrityError([&] { h.s.releaseTag(t); })
                      .find("released more often than retained"),
                  std::string::npos);
    }
}

MOP_INSTANTIATE_PER_POLICY(Mop);
MOP_INSTANTIATE_PER_POLICY(Deadlock);
MOP_INSTANTIATE_PER_POLICY(Select);
MOP_INSTANTIATE_PER_POLICY(SelectFree);
MOP_INSTANTIATE_PER_POLICY(Queue);

} // namespace
