/**
 * @file
 * Tests for the machine-independent Figure 6/7 characterizers.
 */

#include <gtest/gtest.h>

#include "analysis/characterize.hh"
#include <map>
#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace mop::analysis;
using mop::isa::MicroOp;
using mop::isa::OpClass;
using mop::trace::VectorSource;

MicroOp
mk(OpClass op, int dst, int s0 = -1, int s1 = -1)
{
    static uint64_t pc = 0x400000;
    MicroOp u;
    u.pc = pc += 4;
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

TEST(DistanceAnalysis, BucketsByNearestCandidateConsumer)
{
    // Producer r1; nearest candidate consumer at distance 2.
    VectorSource src({
        alu(1),             // head
        mk(OpClass::Nop, -1),
        alu(2, 1),          // tail candidate at distance 2 (nop filtered)
        alu(3, 1),          // later consumer: irrelevant (not nearest)
        alu(1),             // overwrite
    });
    DistanceResult r = characterizeDistance(src, 100);
    EXPECT_EQ(r.totalInsts, 4u);  // nop filtered
    EXPECT_EQ(r.dist1to3, 1u);
    EXPECT_EQ(r.dist4to7, 0u);
}

TEST(DistanceAnalysis, MidAndFarBuckets)
{
    std::vector<MicroOp> v;
    v.push_back(alu(1));
    for (int i = 0; i < 4; ++i)
        v.push_back(alu(10 + i));
    v.push_back(alu(2, 1));  // distance 5 -> 4..7 bucket
    v.push_back(alu(3));
    for (int i = 0; i < 9; ++i)
        v.push_back(alu(14 + i));
    v.push_back(alu(4, 3));  // distance 10 -> 8+ bucket
    VectorSource src(v);
    DistanceResult r = characterizeDistance(src, 1000);
    EXPECT_EQ(r.dist4to7, 1u);
    EXPECT_EQ(r.dist8plus, 1u);
}

TEST(DistanceAnalysis, DeadAndNonCandidateCategories)
{
    VectorSource src({
        alu(1),                    // dead: overwritten before any read
        alu(1),                    // consumed only by a load
        mk(OpClass::Load, 2, 1),   // non-candidate consumer
        alu(1),                    // never read until end: dead
    });
    DistanceResult r = characterizeDistance(src, 100);
    EXPECT_EQ(r.valueGenCands, 3u);
    EXPECT_EQ(r.dead, 2u);
    EXPECT_EQ(r.notCandidate, 1u);
}

TEST(DistanceAnalysis, StoreDataReadKeepsValueLive)
{
    // A store consumes the value through its data half: the producer
    // is "not MOP candidate", not dead (stores as tails link only via
    // the address register).
    MicroOp sa = mk(OpClass::StoreAddr, -1, 9);
    MicroOp sd;
    sd.pc = sa.pc;
    sd.op = OpClass::StoreData;
    sd.src = {1, -1};
    sd.firstUop = false;
    VectorSource src({alu(1), sa, sd, alu(1)});
    DistanceResult r = characterizeDistance(src, 100);
    EXPECT_EQ(r.notCandidate, 1u);
    EXPECT_EQ(r.dead, 1u);  // the final write is never consumed
}

TEST(DistanceAnalysis, StoreAddressIsGroupableEdge)
{
    VectorSource src({alu(1), mk(OpClass::StoreAddr, -1, 1), alu(1)});
    DistanceResult r = characterizeDistance(src, 100);
    EXPECT_EQ(r.dist1to3, 1u);
}

TEST(GroupingAnalysis, PairsChainOfTwo)
{
    VectorSource src({alu(1), alu(2, 1), alu(9), alu(8)});
    GroupingResult r = characterizeGrouping(src, 100, 2);
    EXPECT_EQ(r.groups, 1u);
    EXPECT_EQ(r.grouped(), 2u);
    EXPECT_EQ(r.groupedValueGen, 2u);
}

TEST(GroupingAnalysis, TwoXCapsChainsAtTwo)
{
    // Chain of five dependent ALU ops.
    VectorSource src({alu(1), alu(2, 1), alu(3, 2), alu(4, 3),
                      alu(5, 4)});
    GroupingResult r2 = characterizeGrouping(src, 100, 2);
    // (1,2) and (3,4) pair; 5 remains.
    EXPECT_EQ(r2.groups, 2u);
    EXPECT_EQ(r2.grouped(), 4u);
    EXPECT_EQ(r2.candNotGrouped, 1u);

    src.reset();
    GroupingResult r8 = characterizeGrouping(src, 100, 8);
    EXPECT_EQ(r8.groups, 1u);
    EXPECT_EQ(r8.grouped(), 5u);
    EXPECT_DOUBLE_EQ(r8.avgGroupSize(), 5.0);
}

TEST(GroupingAnalysis, ScopeLimitsChainExtension)
{
    // Tail beyond the 8-instruction scope of the chain head is not
    // grouped even though it depends on the chain.
    std::vector<MicroOp> v;
    v.push_back(alu(1));
    v.push_back(alu(2, 1));
    for (int i = 0; i < 7; ++i)
        v.push_back(alu(10 + i));
    v.push_back(alu(3, 2));  // distance 9 from chain head
    VectorSource src(v);
    GroupingResult r = characterizeGrouping(src, 100, 8);
    EXPECT_EQ(r.grouped(), 2u);
}

TEST(GroupingAnalysis, NonValueGenTailEndsChain)
{
    VectorSource src({alu(1), mk(OpClass::Branch, -1, 1), alu(9),
                      alu(8)});
    GroupingResult r = characterizeGrouping(src, 100, 8);
    EXPECT_EQ(r.grouped(), 2u);
    EXPECT_EQ(r.groupedNonValueGen, 1u);  // the branch tail
    EXPECT_EQ(r.groupedValueGen, 1u);
}

TEST(GroupingAnalysis, ClassifiesNonCandidates)
{
    VectorSource src({mk(OpClass::Load, 1), alu(2, 1),
                      mk(OpClass::FpAlu, 40, 40)});
    GroupingResult r = characterizeGrouping(src, 100, 2);
    EXPECT_EQ(r.notCandidate, 2u);
    EXPECT_EQ(r.candNotGrouped, 1u);
    EXPECT_EQ(r.grouped(), 0u);
}

TEST(GroupingAnalysis, RenameSemanticsBreakStaleEdges)
{
    // The consumer reads r1 *after* r1 is rewritten: no edge to the
    // original producer.
    VectorSource src({alu(1), alu(1), alu(2, 1), alu(9)});
    GroupingResult r = characterizeGrouping(src, 100, 2);
    // Group must be (second r1 writer, consumer).
    EXPECT_EQ(r.groups, 1u);
    EXPECT_EQ(r.grouped(), 2u);
}

TEST(CharacterizeStream, BudgetSizesNoBuffer)
{
    // Both analyses stream their source: a budget far beyond memory
    // costs nothing when the source ends first. (Buffering the stream
    // used to reserve 16 bytes per budgeted instruction up front.)
    const uint64_t huge = uint64_t(1) << 40;
    VectorSource a({alu(1), alu(2, 1), alu(9)});
    DistanceResult d = characterizeDistance(a, huge);
    EXPECT_EQ(d.totalInsts, 3u);
    EXPECT_EQ(d.dist1to3, 1u);
    VectorSource b({alu(1), alu(2, 1), alu(9)});
    GroupingResult g = characterizeGrouping(b, huge, 2);
    EXPECT_EQ(g.totalInsts, 3u);
    EXPECT_EQ(g.groups, 1u);
}

TEST(CharacterizeStream, StoreDataFoldStopsAtTheBudget)
{
    // r1 is read only by the store's data half, which folds into the
    // store's record: a consumer, but not a groupable one. When the
    // store is the budget's last instruction, its data half is never
    // read, so r1 counts as dead instead.
    MicroOp data = mk(OpClass::StoreData, -1, 1);
    data.firstUop = false;
    const std::vector<MicroOp> ops = {alu(1), mk(OpClass::StoreAddr, -1, 5),
                                      data, alu(9)};
    VectorSource whole(ops);
    DistanceResult r = characterizeDistance(whole, 100);
    EXPECT_EQ(r.totalInsts, 3u);
    EXPECT_EQ(r.notCandidate, 1u);
    EXPECT_EQ(r.dead, 1u);  // r9
    VectorSource cut(ops);
    r = characterizeDistance(cut, 2);
    EXPECT_EQ(r.totalInsts, 2u);
    EXPECT_EQ(r.notCandidate, 0u);
    EXPECT_EQ(r.dead, 1u);  // r1
}

class CalibrationTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CalibrationTest, ValueGenFractionMatchesPaperLabel)
{
    // Figure 6's "% total insts" labels, per benchmark, within
    // tolerance: the central calibration target of the workloads.
    // Paper labels (Section 4.2).
    static const std::map<std::string, double> labels = {
        {"bzip", 0.492},  {"crafty", 0.509}, {"eon", 0.278},
        {"gap", 0.487},   {"gcc", 0.374},    {"gzip", 0.563},
        {"mcf", 0.402},   {"parser", 0.475}, {"perl", 0.427},
        {"twolf", 0.477}, {"vortex", 0.376}, {"vpr", 0.447},
    };
    mop::trace::SyntheticSource src(
        mop::trace::profileFor(GetParam()));
    DistanceResult r = characterizeDistance(src, 100000);
    EXPECT_NEAR(r.valueGenPct(), labels.at(GetParam()), 0.06)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CalibrationTest,
                         ::testing::ValuesIn(mop::trace::specCint2000()));

} // namespace
