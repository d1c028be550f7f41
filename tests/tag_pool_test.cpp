/**
 * @file
 * Long-run tag recycling: every machine, wrong-path mode and behaviour
 * policy keeps its tag planes at the pool bound however long it runs,
 * and the pool itself survives more allocations than a 32-bit tag
 * counter could number.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <tuple>

#include "pipeline/ooo_core.hh"
#include "sched/policy.hh"
#include "sched/scheduler.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace mop;
using sim::Machine;
using sched::PolicyId;

constexpr Machine kMachines[] = {
    Machine::Base,       Machine::TwoCycle,
    Machine::MopCam,     Machine::MopWiredOr,
    Machine::SelectFreeSquashDep, Machine::SelectFreeScoreboard,
};

class TagPlanes
    : public ::testing::TestWithParam<std::tuple<Machine, bool, PolicyId>>
{
};

TEST_P(TagPlanes, CapacityAfter2MInstsEqualsCapacityAfter200k)
{
    sim::RunConfig cfg;
    std::tie(cfg.machine, cfg.wrongPath, cfg.policy) = GetParam();
    cfg.iqEntries = 32;
    try {
        sim::validateRunConfig(cfg);
    } catch (const std::invalid_argument &) {
        GTEST_SKIP() << "rejected configuration";
    }
    trace::WorkloadProfile prof = trace::profileFor("mcf");
    trace::SyntheticSource src(prof);
    pipeline::CoreParams params = sim::makeCoreParams(cfg);
    params.wrongPathSeed = trace::wrongPathSeed(prof.seed);
    pipeline::OooCore core(params, src);
    const sched::Scheduler &s = core.scheduler();
    const size_t bound = sched::Scheduler::tagBoundFor(32);
    ASSERT_EQ(s.tagPool().bound(), bound);

    core.run(200'000);
    const size_t cap_200k = s.tagCapacity();
    core.run(1'800'000);
    EXPECT_GE(core.result().insts, 2'000'000u);
    EXPECT_EQ(s.tagCapacity(), cap_200k);
    EXPECT_EQ(s.tagCapacity(), bound);
    EXPECT_LE(s.tagPool().peakLive(), bound);
    EXPECT_GT(s.tagPool().peakLive(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, TagPlanes,
    ::testing::Combine(::testing::ValuesIn(kMachines), ::testing::Bool(),
                       ::testing::ValuesIn(sched::registeredPolicies())),
    [](const auto &info) {
        std::string n = sim::machineName(std::get<0>(info.param));
        n += std::get<1>(info.param) ? "_wp_" : "_";
        n += sched::policyIdToken(std::get<2>(info.param));
        for (auto &c : n)
            if (!std::isalnum(uint8_t(c)))
                c = '_';
        return n;
    });

TEST(TagRecycling, WrapsPastTwoTo31Allocations)
{
    // A 32-bit signed counter would overflow after 2^31 tags; the pool
    // hands out and takes back more than that while every tag stays
    // below the bound. Three tags stay live and each replacement is
    // allocated before its predecessor is released, so four rotate.
    sched::SchedParams p;
    p.numEntries = 32;
    sched::Scheduler s(p);
    const size_t bound = s.tagPool().bound();
    sched::Tag held[3];
    for (sched::Tag &t : held) {
        t = s.allocTag();
        s.retainTag(t);
    }
    const uint64_t cycles = (uint64_t(1) << 31) + 1000;
    uint64_t above = 0;
    size_t k = 0;
    for (uint64_t i = 0; i < cycles; ++i) {
        sched::Tag next = s.allocTag();
        s.retainTag(next);
        s.releaseTag(held[k]);
        held[k] = next;
        k = k == 2 ? 0 : k + 1;
        above += size_t(next) >= bound;
    }
    EXPECT_EQ(above, 0u);
    EXPECT_EQ(s.tagPool().live(), 3u);
    EXPECT_EQ(s.tagPool().peakLive(), 4u);
    EXPECT_EQ(s.tagCapacity(), bound);
}

} // namespace
