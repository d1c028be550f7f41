/**
 * @file
 * MOP detection tests: the dependence-matrix algorithm of Figure 9,
 * the conservative cycle heuristic of Figure 8(c), pointer encoding
 * constraints (Section 5.1.3), CAM source budgets, independent MOPs,
 * detection latency, and the exclusion-driven alternative-pair search.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/mop_detector.hh"

namespace
{

using namespace mop::core;
using mop::isa::MicroOp;
using mop::isa::OpClass;

constexpr uint64_t kPc = 0x400000;

MicroOp
mk(OpClass op, int dst, int s0 = -1, int s1 = -1)
{
    MicroOp u;
    u.op = op;
    u.dst = int16_t(dst);
    u.src = {int16_t(s0), int16_t(s1)};
    return u;
}

MicroOp
alu(int dst, int s0 = -1, int s1 = -1)
{
    return mk(OpClass::IntAlu, dst, s0, s1);
}

struct Fixture
{
    MopPointerCache cache;
    DetectorParams params;
    uint64_t next_id = 0;

    Fixture()
    {
        params.detectLatency = 0;
    }

    /** Feed µops as groups of params.groupWidth; pcs follow dyn ids. */
    void
    feed(MopDetector &d, std::vector<MicroOp> uops)
    {
        for (auto &u : uops) {
            u.pc = kPc + 4 * next_id;
            d.observe(u, next_id);
            ++next_id;
            if (next_id % uint64_t(params.groupWidth) == 0)
                d.endGroup(next_id / uint64_t(params.groupWidth));
        }
        d.endGroup(next_id / uint64_t(params.groupWidth) + 1);
        d.drain(1u << 20);
    }

    MopPointer at(uint64_t dyn_id) { return cache.lookup(kPc + 4 * dyn_id); }
};

TEST(Detector, SimpleDependentPair)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(2, 1), alu(3), alu(4)});
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.offset, 1);
    EXPECT_FALSE(p.ctrl);
    EXPECT_FALSE(p.independent);
    EXPECT_EQ(p.tailPc, kPc + 4);
    EXPECT_EQ(d.dependentPairs(), 1u);
}

TEST(Detector, SingleSourceMarkSelectableAcrossEarlierMarks)
{
    // Column scan: a "1" mark may be chosen even after earlier marks;
    // the tail's only source is the head, so no cycle is possible.
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1),                         // head
        mk(OpClass::Load, 2, 1),        // earlier mark, not a candidate
        alu(4, 1),                      // "1" mark -> selectable
        alu(5),
    });
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.offset, 2);
}

TEST(Detector, CycleHeuristicRejectsFigure8aPattern)
{
    // Figure 8(a)/9 step n: head 1 has an outgoing edge to 2, and the
    // would-be tail 3 has an incoming edge ("2" mark is not the first
    // mark in the column) -> grouping must be forgone.
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1),                      // insn 1
        mk(OpClass::Load, 2, 1),     // insn 2: depends on 1, inval
        alu(3, 1, 2),                // insn 3: "2" mark after 2's mark
        alu(9, 20),                  // filler (unique source)
    });
    EXPECT_FALSE(f.at(0).valid());
    EXPECT_GE(d.cycleRejects(), 1u);
}

TEST(Detector, TwoSourceMarkAcceptedWhenFirstInColumn)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1),
        alu(2),           // no dependence on head
        alu(3, 1, 2),     // "2" mark, first in head's column
        alu(9),
    });
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.offset, 2);
}

TEST(Detector, PreciseDetectionAcceptsHeuristicFalsePositive)
{
    // The consumer between head and tail does NOT feed the tail, so no
    // real cycle exists: precise detection groups, the conservative
    // heuristic does not (Section 5.1.1's >90% coverage claim).
    auto build = [](bool heuristic) {
        Fixture f;
        f.params.cycleHeuristic = heuristic;
        MopDetector d(f.params, f.cache);
        f.feed(d, {
            alu(1),                   // head
            mk(OpClass::Load, 2, 1),  // consumer of head, feeds nothing
            alu(3, 1, 9),             // "2" mark; other source external
            alu(8, 21),
        });
        return f.at(0).valid();
    };
    EXPECT_FALSE(build(true));
    EXPECT_TRUE(build(false));
}

TEST(Detector, PreciseDetectionStillRejectsRealCycle)
{
    Fixture f;
    f.params.cycleHeuristic = false;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1),                   // head
        mk(OpClass::Load, 2, 1),  // on the path head -> 2 -> 3
        alu(3, 2, 1),             // tail depends on 2: genuine cycle
        alu(8, 21),
    });
    EXPECT_FALSE(f.at(0).valid());
    EXPECT_GE(d.cycleRejects(), 1u);
}

TEST(Detector, PriorityDecoderFirstHeadWinsSharedTail)
{
    // Figure 9 step n+1: when a tail is selected by multiple heads,
    // only one (the first) gets it.
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1),          // head A
        alu(2),          // head B
        alu(3, 1, 2),    // depends on both
        alu(9, 20),
    });
    EXPECT_TRUE(f.at(0).valid());   // A got the tail
    EXPECT_FALSE(f.at(1).valid());  // B found nothing else
}

TEST(Detector, CrossGroupPairInTwoGroupWindow)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1, 30), alu(9, 20), alu(10, 21), alu(11, 22),  // group 1
        alu(2, 1), alu(12, 23), alu(13, 24), alu(14, 25),  // group 2
    });
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_EQ(p.offset, 4);
}

TEST(Detector, OffsetLimitedToThreeBits)
{
    Fixture f;
    f.params.groupWidth = 8;  // 16-µop window: offsets up to 15 exist
    MopDetector d(f.params, f.cache);
    std::vector<MicroOp> uops;
    uops.push_back(alu(1, 30));  // unique source: no independent pair
    for (int i = 0; i < 8; ++i)
        uops.push_back(alu(10 + i));
    uops.push_back(alu(2, 1));  // distance 9 > 7
    for (int i = 0; i < 6; ++i)
        uops.push_back(alu(20 + i));
    f.feed(d, uops);
    EXPECT_FALSE(f.at(0).valid());
}

TEST(Detector, ControlBitEncodesSingleTakenBranch)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    MicroOp br = mk(OpClass::Branch, -1, 9);
    br.taken = true;
    f.feed(d, {alu(1), br, alu(2, 1), alu(8)});
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(p.ctrl);
}

TEST(Detector, UntakenBranchesDoNotSetControlBit)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    MicroOp br = mk(OpClass::Branch, -1, 9);
    br.taken = false;
    f.feed(d, {alu(1), br, alu(2, 1), alu(8)});
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_FALSE(p.ctrl);
}

TEST(Detector, TwoTakenControlsRejectPair)
{
    Fixture f;
    f.params.groupWidth = 8;
    MopDetector d(f.params, f.cache);
    MicroOp b1 = mk(OpClass::Branch, -1, 9);
    b1.taken = true;
    MicroOp b2 = mk(OpClass::Jump, -1);
    b2.taken = true;
    f.feed(d, {alu(1, 30), b1, b2, alu(2, 1), alu(8, 20), alu(9, 21),
               alu(10, 22), alu(11, 23)});
    EXPECT_FALSE(f.at(0).valid());
    EXPECT_GE(d.ctrlRejects(), 1u);
}

TEST(Detector, InterveningIndirectJumpRejectsPair)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    MicroOp ind = mk(OpClass::JumpInd, -1, 9);
    ind.taken = true;
    f.feed(d, {alu(1), ind, alu(2, 1), alu(8)});
    EXPECT_FALSE(f.at(0).valid());
}

TEST(Detector, CamSourceBudgetRestrictsGrouping)
{
    // Head with two sources + tail with an extra external source
    // -> union of three sources: only wired-OR can group (Section 3.1).
    auto detect = [](bool cam) {
        Fixture f;
        f.params.camRestrict = cam;
        MopDetector d(f.params, f.cache);
        f.feed(d, {alu(1, 10, 11), alu(2, 1, 12), alu(8), alu(9)});
        return f.at(0).valid();
    };
    EXPECT_FALSE(detect(true));
    EXPECT_TRUE(detect(false));
}

TEST(Detector, CamBudgetCountsProducersNotRegisterNames)
{
    // Head and tail both name r10, but r10 is rewritten in between, so
    // the *tags* differ and the union exceeds two comparators.
    Fixture f;
    f.params.camRestrict = true;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        alu(1, 10, 11),  // head reads old r10
        alu(10),         // rewrites r10
        alu(2, 1, 10),   // tail reads new r10
        alu(8),
    });
    EXPECT_FALSE(f.at(0).valid());
    EXPECT_GE(d.budgetRejects(), 1u);
}

TEST(Detector, IndependentPairWithIdenticalSources)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1, 10), alu(2, 10), alu(8, 20), alu(9, 21)});
    MopPointer p = f.at(0);
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(p.independent);
    EXPECT_EQ(d.independentPairs(), 1u);
}

TEST(Detector, IndependentPairWithNoSources)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(2), alu(3, 1, 2), alu(9, 3)});
    // 1 is grouped with 3 (dependent). 2's identical-source partner
    // would be... none left with no sources in window.
    EXPECT_TRUE(f.at(0).valid());
    EXPECT_FALSE(f.at(0).independent);
}

TEST(Detector, IndependentPairRejectedWhenProducerRewritten)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {
        mk(OpClass::StoreAddr, -1, 10),  // reads old r10
        alu(10),                         // rewrites r10
        mk(OpClass::StoreAddr, -1, 10),  // reads new r10
        alu(9),
    });
    EXPECT_FALSE(f.at(0).valid());
}

TEST(Detector, IndependentDisabledByParam)
{
    Fixture f;
    f.params.independentMops = false;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1, 10), alu(2, 10), alu(8), alu(9)});
    EXPECT_FALSE(f.at(0).valid());
}

TEST(Detector, DetectionLatencyDelaysPointerVisibility)
{
    Fixture f;
    f.params.detectLatency = 100;
    MopDetector d(f.params, f.cache);
    for (auto &u : std::vector<MicroOp>{alu(1), alu(2, 1), alu(8), alu(9)}) {
        u.pc = kPc + 4 * f.next_id;
        d.observe(u, f.next_id++);
    }
    d.endGroup(10);
    d.drain(50);
    EXPECT_FALSE(f.at(0).valid());
    d.drain(110);
    EXPECT_TRUE(f.at(0).valid());
}

TEST(Detector, CoveredHeadNotRedetected)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(2, 1), alu(8, 20), alu(9, 21)});
    EXPECT_EQ(f.cache.writes(), 1u);
    // Same static code executes again (same pcs): no duplicate write.
    f.next_id = 0;
    f.feed(d, {alu(1), alu(2, 1), alu(8, 20), alu(9, 21)});
    EXPECT_EQ(f.cache.writes(), 1u);
}

TEST(Detector, ExclusionSearchesAlternativePair)
{
    // Two possible tails; the filter excludes the first pairing and
    // re-detection must choose the second (Figure 12c).
    Fixture f;
    MopDetector d(f.params, f.cache);
    std::vector<MicroOp> code = {alu(1), alu(2, 1), alu(3, 1), alu(9)};
    f.feed(d, code);
    ASSERT_EQ(f.at(0).offset, 1);
    f.cache.deleteAndExclude(kPc);
    f.next_id = 0;
    f.feed(d, code);
    ASSERT_TRUE(f.at(0).valid());
    EXPECT_EQ(f.at(0).offset, 2);
}

TEST(Detector, HeadMustGenerateValue)
{
    // A store address generation cannot head a dependent MOP (it has
    // no register result), though it may be a tail.
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {mk(OpClass::StoreAddr, -1, 10), alu(1, 10), alu(2, 1),
               alu(9)});
    EXPECT_FALSE(f.at(0).valid());
    EXPECT_TRUE(f.at(1).valid());  // alu(1) heads with tail alu(2)
}

TEST(Detector, ChainSafeBitOnAdjacentSingleSourceLinks)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(2, 1), alu(3), alu(4, 3, 1)});
    // 0 -> 1: adjacent, tail has one source -> chain-safe.
    EXPECT_TRUE(f.at(0).chainSafe);
    // 2 -> 3: adjacent but the tail has two sources -> unsafe.
    ASSERT_TRUE(f.at(2).valid());
    EXPECT_FALSE(f.at(2).chainSafe);
}

TEST(Detector, DistantLinksNeverChainSafe)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(9, 20), alu(2, 1), alu(8, 21)});
    ASSERT_TRUE(f.at(0).valid());
    EXPECT_EQ(f.at(0).offset, 2);
    EXPECT_FALSE(f.at(0).chainSafe);
}

TEST(Detector, RejectsOffsetsBeyondThreeBits)
{
    // Exclusions are kept per offset bit (offset & 7): offset 9 would
    // alias offset 1, so the pointer's 3-bit range is enforced.
    MopPointerCache cache;
    for (int off : {0, 8, 9, -1}) {
        DetectorParams p;
        p.maxOffset = off;
        EXPECT_THROW(MopDetector(p, cache), std::invalid_argument) << off;
    }
    DetectorParams ok;
    ok.maxOffset = 1;
    EXPECT_NO_THROW(MopDetector(ok, cache));
}

TEST(Detector, RejectsGroupWidthBeyondWindowMask)
{
    MopPointerCache cache;
    for (int width : {0, MopDetector::kMaxWindow / 2 + 1, 1000}) {
        DetectorParams p;
        p.groupWidth = width;
        EXPECT_THROW(MopDetector(p, cache), std::invalid_argument) << width;
    }
    DetectorParams widest;
    widest.groupWidth = MopDetector::kMaxWindow / 2;
    EXPECT_NO_THROW(MopDetector(widest, cache));
}

TEST(Detector, MultiplePairsPerWindow)
{
    Fixture f;
    MopDetector d(f.params, f.cache);
    f.feed(d, {alu(1), alu(2, 1), alu(3), alu(4, 3)});
    EXPECT_TRUE(f.at(0).valid());
    EXPECT_TRUE(f.at(2).valid());
    EXPECT_EQ(d.dependentPairs(), 2u);
}

} // namespace
