/**
 * @file
 * Structural tests of the synthetic workload generator's dependence
 * machinery: loop-carried recurrences (induction chains), the
 * register-pool knob, load-to-load chains, and calibration pinning.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace mop::trace;
using mop::isa::MicroOp;
using mop::isa::OpClass;

WorkloadProfile
baseProfile()
{
    WorkloadProfile p;
    p.seed = 7;
    p.numBlocks = 64;
    p.avgBlockLen = 10;
    p.randomBranchFrac = 0.05;
    p.takenBias = 0.95;
    return p;
}

/** Longest register-carried chain of 1-cycle ops per instruction. */
double
dataflowHeightPerInst(SyntheticSource &src, int n)
{
    std::array<uint64_t, 64> ready{};
    uint64_t cp = 0, insts = 0;
    MicroOp u;
    for (int i = 0; i < n; ++i) {
        src.next(u);
        if (u.op == OpClass::Nop)
            continue;
        uint64_t t = 0;
        for (auto r : u.src)
            if (r >= 0)
                t = std::max(t, ready[size_t(r)]);
        uint64_t d = t + uint64_t(mop::isa::opLatency(u.op));
        if (u.hasDst())
            ready[size_t(u.dst)] = d;
        cp = std::max(cp, d);
        insts += u.firstUop;
    }
    return double(cp) / double(insts);
}

TEST(SyntheticStructure, InductionChainLengthControlsHeight)
{
    WorkloadProfile p = baseProfile();
    p.inductionRegs = 1;  // one global recurrence spine
    p.inductionChainLen = 1;
    SyntheticSource s1(p);
    double h1 = dataflowHeightPerInst(s1, 40000);
    p.inductionChainLen = 4;
    SyntheticSource s4(p);
    double h4 = dataflowHeightPerInst(s4, 40000);
    EXPECT_GT(h4, h1 * 2.0)
        << "longer recurrences must raise dependence height";
}

TEST(SyntheticStructure, SmallInductionPoolSerializes)
{
    WorkloadProfile p = baseProfile();
    p.inductionChainLen = 2;
    p.inductionRegs = 1;
    SyntheticSource narrow(p);
    double hn = dataflowHeightPerInst(narrow, 40000);
    p.inductionRegs = 6;
    SyntheticSource wide(p);
    double hw = dataflowHeightPerInst(wide, 40000);
    EXPECT_GT(hn, hw * 1.5)
        << "a shared induction register must serialize blocks";
}

TEST(SyntheticStructure, LoadChainsThreadThroughLoads)
{
    WorkloadProfile p = baseProfile();
    p.loadFrac = 0.3;
    p.loadChainFrac = 1.0;
    SyntheticSource s(p);
    MicroOp u;
    int chained = 0, loads = 0;
    int16_t last_load_dst = mop::isa::kNoReg;
    // Walk the *static* program: every load (after the first) must
    // read the previous load's destination.
    for (const auto &op : s.program().code) {
        if (op.op != OpClass::Load)
            continue;
        ++loads;
        if (last_load_dst != mop::isa::kNoReg)
            chained += op.src[0] == last_load_dst;
        last_load_dst = op.dst;
    }
    ASSERT_GT(loads, 10);
    EXPECT_GT(double(chained) / double(loads - 1), 0.9);
}

TEST(SyntheticStructure, CalibrationPreservesRecurrences)
{
    // Calibration converts ops to hit the value-gen target but must
    // never touch pinned (recurrence) ops: the dependence height would
    // otherwise include multi-cycle loads.
    WorkloadProfile p = profileFor("gap");
    SyntheticSource s(p);
    for (const auto &op : s.program().code) {
        if (op.pinned) {
            EXPECT_EQ(op.op, OpClass::IntAlu);
        }
    }
}

TEST(SyntheticStructure, CalibrationHitsTarget)
{
    for (const char *b : {"gap", "eon", "gzip"}) {
        SyntheticSource s(profileFor(b));
        MicroOp u;
        uint64_t insts = 0, vg = 0;
        for (int i = 0; i < 80000; ++i) {
            s.next(u);
            if (!u.firstUop)
                continue;
            ++insts;
            vg += u.isValueGenCandidate();
        }
        EXPECT_NEAR(double(vg) / double(insts),
                    profileFor(b).valueGenTarget, 0.05)
            << b;
    }
}

TEST(SyntheticStructure, InductionBranchesReadInduction)
{
    WorkloadProfile p = baseProfile();
    p.inductionRegs = 2;
    SyntheticSource s(p);
    int checked = 0;
    for (size_t b = 0; b + 1 < s.program().blockStart.size(); ++b) {
        int end = s.program().blockStart[b + 1];
        const StaticOp &last = s.program().code[size_t(end - 1)];
        if (last.op != OpClass::Branch)
            continue;
        int16_t ind = int16_t(19 + int(b) % 2);
        EXPECT_EQ(last.src[0], ind) << "block " << b;
        ++checked;
    }
    EXPECT_GT(checked, 10);
}

TEST(SyntheticStructure, DistinctSeedsGiveDistinctPrograms)
{
    WorkloadProfile a = baseProfile();
    WorkloadProfile b = baseProfile();
    b.seed = 8;
    SyntheticSource sa(a), sb(b);
    int diff = 0;
    size_t n = std::min(sa.program().code.size(),
                        sb.program().code.size());
    for (size_t i = 0; i < n; ++i)
        diff += sa.program().code[i].op != sb.program().code[i].op;
    EXPECT_GT(diff, int(n / 20));
}

} // namespace
