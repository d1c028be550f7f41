/**
 * @file
 * Tests for the synthetic workload generator: determinism, static-code
 * properties (recurring PCs with stable dependence structure), op-mix
 * calibration, and the 12 SPEC CINT2000 profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace mop::trace;
using mop::isa::MicroOp;
using mop::isa::OpClass;

TEST(Synthetic, DeterministicAcrossInstances)
{
    WorkloadProfile p = profileFor("gzip");
    SyntheticSource a(p), b(p);
    MicroOp ua, ub;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ua));
        ASSERT_TRUE(b.next(ub));
        ASSERT_EQ(ua.pc, ub.pc);
        ASSERT_EQ(ua.op, ub.op);
        ASSERT_EQ(ua.memAddr, ub.memAddr);
        ASSERT_EQ(ua.taken, ub.taken);
    }
}

TEST(Synthetic, SeedDerivationsAreDistinct)
{
    // The three RNG streams (program build, dynamic walk, calibration)
    // must stay decorrelated; see the contract in profiles.hh.
    for (uint64_t s : {uint64_t(0), uint64_t(1), uint64_t(42),
                       uint64_t(0xdeadbeef)}) {
        EXPECT_NE(buildSeed(s), walkSeed(s)) << s;
        EXPECT_NE(buildSeed(s), calibrationSeed(s)) << s;
        EXPECT_NE(walkSeed(s), calibrationSeed(s)) << s;
    }
}

TEST(Synthetic, DistinctSeedsGiveDistinctStreams)
{
    // Profiles that differ only in seed must not alias: both the
    // static program and the dynamic walk should diverge.
    WorkloadProfile p = profileFor("gzip");
    WorkloadProfile q = p;
    q.seed = p.seed + 1;
    SyntheticSource a(p), b(q);
    MicroOp ua, ub;
    int diffs = 0;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ua));
        ASSERT_TRUE(b.next(ub));
        diffs += ua.pc != ub.pc || ua.op != ub.op ||
                 ua.memAddr != ub.memAddr || ua.taken != ub.taken;
    }
    EXPECT_GT(diffs, 0);
}

TEST(Synthetic, ResetReplays)
{
    SyntheticSource s(profileFor("gap"));
    std::vector<uint64_t> pcs;
    MicroOp u;
    for (int i = 0; i < 2000; ++i) {
        s.next(u);
        pcs.push_back(u.pc);
    }
    s.reset();
    for (int i = 0; i < 2000; ++i) {
        s.next(u);
        ASSERT_EQ(u.pc, pcs[size_t(i)]) << i;
    }
}

TEST(Synthetic, PcsRecurWithStableStaticOps)
{
    // MOP pointers are keyed by PC: the same PC must always carry the
    // same op class and register operands (static code).
    SyntheticSource s(profileFor("bzip"));
    std::map<uint64_t, MicroOp> seen;
    MicroOp u;
    int recurrences = 0;
    for (int i = 0; i < 50000; ++i) {
        s.next(u);
        if (!u.firstUop)
            continue;
        auto it = seen.find(u.pc);
        if (it != seen.end()) {
            ++recurrences;
            ASSERT_EQ(it->second.op, u.op);
            ASSERT_EQ(it->second.dst, u.dst);
            ASSERT_EQ(it->second.src[0], u.src[0]);
            ASSERT_EQ(it->second.src[1], u.src[1]);
        } else {
            seen[u.pc] = u;
        }
    }
    EXPECT_GT(recurrences, 10000);
}

TEST(Synthetic, StoresExpandToTwoMicroOps)
{
    SyntheticSource s(profileFor("vortex"));
    MicroOp u;
    int stores = 0;
    for (int i = 0; i < 20000; ++i) {
        s.next(u);
        if (u.op == OpClass::StoreAddr) {
            ++stores;
            MicroOp d;
            ASSERT_TRUE(s.next(d));
            ASSERT_EQ(d.op, OpClass::StoreData);
            ASSERT_FALSE(d.firstUop);
            ASSERT_EQ(d.pc, u.pc);
            ASSERT_EQ(d.memAddr, u.memAddr);
            ASSERT_NE(d.src[0], mop::isa::kNoReg);
        }
    }
    EXPECT_GT(stores, 1000);
}

TEST(Synthetic, ControlTargetsAreBlockStarts)
{
    SyntheticSource s(profileFor("perl"));
    std::set<uint64_t> starts;
    for (int b : s.program().blockStart)
        starts.insert(s.program().pcOf(b));
    MicroOp u;
    for (int i = 0; i < 20000; ++i) {
        s.next(u);
        if (u.isControl() && u.taken) {
            ASSERT_TRUE(starts.count(u.target)) << std::hex << u.target;
        }
    }
}

TEST(Synthetic, TakenBranchesRedirectTheStream)
{
    SyntheticSource s(profileFor("twolf"));
    MicroOp prev, u;
    ASSERT_TRUE(s.next(prev));
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(s.next(u));
        if (prev.isControl() && prev.taken) {
            ASSERT_EQ(u.pc, prev.target);
        } else {
            ASSERT_TRUE(u.pc == prev.pc + 4 || u.pc == prev.pc ||
                        u.pc == StaticProgram::kCodeBase)
                << std::hex << u.pc << " after " << prev.pc;
        }
        prev = u;
    }
}

TEST(Synthetic, ZeroRegistersNeverUsed)
{
    SyntheticSource s(profileFor("mcf"));
    MicroOp u;
    for (int i = 0; i < 20000; ++i) {
        s.next(u);
        EXPECT_NE(u.dst, mop::isa::kZeroReg);
        EXPECT_NE(u.src[0], mop::isa::kZeroReg);
        EXPECT_NE(u.src[1], mop::isa::kZeroReg);
    }
}

class ProfileTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProfileTest, DynamicMixCalibratedToPaperLabel)
{
    // The builder self-calibrates the static sampling mix so that the
    // *dynamic* fraction of value-generating candidates matches the
    // paper's Figure 6 label, despite hot loops skewing the walk.
    WorkloadProfile p = profileFor(GetParam());
    ASSERT_GT(p.valueGenTarget, 0.0);
    SyntheticSource s(p);
    MicroOp u;
    uint64_t insts = 0, vgen = 0, loads = 0, stores = 0, ctrl = 0;
    // Same horizon the generator's self-calibration uses: the walk is
    // mildly non-stationary, so short windows drift from the target.
    for (int i = 0; i < 120000; ++i) {
        s.next(u);
        if (!u.firstUop)
            continue;
        ++insts;
        vgen += u.isValueGenCandidate();
        loads += u.op == OpClass::Load;
        stores += u.op == OpClass::StoreAddr;
        ctrl += u.isControl();
    }
    EXPECT_NEAR(double(vgen) / double(insts), p.valueGenTarget, 0.05);
    // Sanity bounds on the rest of the mix.
    EXPECT_GT(double(loads) / double(insts), 0.02);
    EXPECT_LT(double(loads) / double(insts), 0.55);
    EXPECT_GT(double(stores) / double(insts), 0.005);
    EXPECT_GT(double(ctrl) / double(insts), 0.04);
    EXPECT_LT(double(ctrl) / double(insts), 0.30);
}

TEST_P(ProfileTest, MemoryAddressesWithinFootprint)
{
    WorkloadProfile p = profileFor(GetParam());
    SyntheticSource s(p);
    MicroOp u;
    for (int i = 0; i < 30000; ++i) {
        s.next(u);
        if (u.op == OpClass::Load || u.op == OpClass::StoreAddr) {
            ASSERT_GE(u.memAddr, StaticProgram::kDataBase);
            ASSERT_LT(u.memAddr, StaticProgram::kDataBase + 0x100000 +
                                     uint64_t(p.memFootprintKB) * 1024);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileTest,
                         ::testing::ValuesIn(specCint2000()));

TEST(Profiles, TwelveBenchmarks)
{
    EXPECT_EQ(specCint2000().size(), 12u);
    for (const auto &n : specCint2000())
        EXPECT_EQ(profileFor(n).name, n);
    EXPECT_THROW(profileFor("nosuch"), std::invalid_argument);
}

TEST(Profiles, DistancePmfNormalized)
{
    auto pmf = makeDistancePmf(0.5, 0.1);
    double sum = 0;
    for (double v : pmf)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(pmf[1], pmf[5]);  // geometric head decays
}

TEST(VectorSourceTest, LimitAndReset)
{
    std::vector<MicroOp> v(10);
    VectorSource vs(v);
    LimitSource ls(vs, 4);
    MicroOp u;
    int n = 0;
    while (ls.next(u))
        ++n;
    EXPECT_EQ(n, 4);
    ls.reset();
    n = 0;
    while (ls.next(u))
        ++n;
    EXPECT_EQ(n, 4);
}

} // namespace
