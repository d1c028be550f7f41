/**
 * @file
 * Shared test harness for driving the Scheduler cycle by cycle, plus
 * the per-policy conformance machinery: fixtures parameterized over
 * sched::registeredPolicies() so one test body runs once per
 * registered behaviour policy (paper / load-delay / static-fuse).
 */

#ifndef MOP_TESTS_SCHED_HARNESS_HH
#define MOP_TESTS_SCHED_HARNESS_HH

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sched/policy.hh"
#include "sched/scheduler.hh"

namespace mop::test
{

using sched::Cycle;
using sched::ExecEvent;
using sched::PolicyId;
using sched::SchedOp;
using sched::SchedParams;
using sched::LoopPolicy;
using sched::Tag;

struct Harness
{
    sched::Scheduler s;
    Cycle now = 0;
    std::map<uint64_t, ExecEvent> done;
    std::vector<sched::MopIssue> mops;
    std::vector<ExecEvent> scratch;

    explicit Harness(const SchedParams &p) : s(p) {}

    static SchedParams
    params(LoopPolicy pol, int entries = 64)
    {
        SchedParams p;
        p.policy = pol;
        p.numEntries = entries;
        p.watchdogCycles = 50000;
        if (pol == LoopPolicy::TwoCycle)
            p.mopEnabled = true;
        return p;
    }

    static SchedParams
    params(LoopPolicy pol, PolicyId pid, int entries = 64)
    {
        SchedParams p = params(pol, entries);
        p.policyId = pid;
        return p;
    }

    static SchedOp
    op(uint64_t seq, isa::OpClass cls, Tag dst, Tag s0 = sched::kNoTag,
       Tag s1 = sched::kNoTag)
    {
        SchedOp o;
        o.seq = seq;
        o.op = cls;
        o.dst = dst;
        o.src = {s0, s1};
        return o;
    }

    static SchedOp
    alu(uint64_t seq, Tag dst, Tag s0 = sched::kNoTag,
        Tag s1 = sched::kNoTag)
    {
        return op(seq, isa::OpClass::IntAlu, dst, s0, s1);
    }

    void
    tick()
    {
        scratch.clear();
        s.tick(now, scratch, &mops);
        for (const auto &ev : scratch)
            done[ev.seq] = ev;
        ++now;
    }

    /** Tick until the queue drains (or the cycle budget runs out). */
    void
    runUntilIdle(int max_cycles = 5000)
    {
        int spent = 0;
        while (s.occupancy() > 0 && spent++ < max_cycles)
            tick();
        ASSERT_EQ(s.occupancy(), 0) << "queue failed to drain";
    }

    Cycle issuedAt(uint64_t seq) const { return done.at(seq).issued; }
    Cycle completeAt(uint64_t seq) const { return done.at(seq).complete; }
    Cycle execAt(uint64_t seq) const { return done.at(seq).execStart; }

    /** Assert every (producer, consumer) pair respects dataflow. */
    void
    assertDataflow(
        const std::vector<std::pair<uint64_t, uint64_t>> &edges) const
    {
        for (auto [p, c] : edges) {
            ASSERT_TRUE(done.count(p)) << "producer " << p;
            ASSERT_TRUE(done.count(c)) << "consumer " << c;
            EXPECT_LE(done.at(p).complete, done.at(c).execStart)
                << "edge " << p << " -> " << c;
        }
    }
};

/**
 * Base fixture for the per-policy conformance battery: derive, write
 * policy-agnostic TEST_P bodies against policyId()/params(), and
 * instantiate with MOP_INSTANTIATE_PER_POLICY so the suite runs once
 * per registered behaviour policy with gtest-safe names
 * (paper / loaddelay / staticfuse).
 */
class PerPolicyTest : public ::testing::TestWithParam<PolicyId>
{
  protected:
    PolicyId policyId() const { return GetParam(); }

    SchedParams
    params(LoopPolicy pol, int entries = 64) const
    {
        return Harness::params(pol, GetParam(), entries);
    }

    /** Skip-or-substitute helper: the loop organization this policy
     *  actually runs for a requested @p pol (an organization
     *  sched::configError rejects for it is folded onto a
     *  non-select-free base). */
    LoopPolicy
    effectiveLoop(LoopPolicy pol) const
    {
        if (sched::configError(params(pol)).empty())
            return pol;
        return pol == LoopPolicy::SelectFreeSquashDep
                   ? LoopPolicy::Atomic
                   : LoopPolicy::TwoCycle;
    }
};

/** Skip the running test when the scheduler refuses @p p; the skip
 *  message is sched::configError's reason. */
#define MOP_SKIP_IF_REJECTED(p)                                          \
    do {                                                                 \
        if (std::string why_ = mop::sched::configError(p); !why_.empty()) \
            GTEST_SKIP() << why_;                                        \
    } while (0)

inline std::string
policyParamName(const ::testing::TestParamInfo<PolicyId> &info)
{
    return sched::policyIdToken(info.param);
}

#define MOP_INSTANTIATE_PER_POLICY(fixture)                              \
    INSTANTIATE_TEST_SUITE_P(                                            \
        Policies, fixture,                                               \
        ::testing::ValuesIn(mop::sched::registeredPolicies()),           \
        mop::test::policyParamName)

} // namespace mop::test

#endif // MOP_TESTS_SCHED_HARNESS_HH
