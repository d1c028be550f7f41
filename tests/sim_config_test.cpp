/**
 * @file
 * Tests for the configuration presets (Table 1 machine, Section 6.2
 * scheduler configurations) and paper reference data.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/config.hh"
#include "trace/profiles.hh"

namespace
{

using namespace mop;
using sim::Machine;
using sim::RunConfig;

TEST(Config, Table1MachineParameters)
{
    RunConfig cfg;
    pipeline::CoreParams p = sim::makeCoreParams(cfg);
    EXPECT_EQ(p.fetchWidth, 4);
    EXPECT_EQ(p.commitWidth, 4);
    EXPECT_EQ(p.robSize, 128);
    EXPECT_EQ(p.sched.issueWidth, 4);
    EXPECT_EQ(p.sched.replayPenalty, 2);
    EXPECT_EQ(p.sched.fuCounts[size_t(isa::FuKind::IntAluFu)], 4);
    EXPECT_EQ(p.sched.fuCounts[size_t(isa::FuKind::MemPort)], 2);
    EXPECT_EQ(p.mem.il1.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.mem.dl1.assoc, 4u);
    EXPECT_EQ(p.mem.l2.hitLatency, 8);
    EXPECT_EQ(p.mem.memLatency, 100);
    EXPECT_EQ(p.bpred.bimodalEntries, 4096u);
    EXPECT_EQ(p.bpred.rasEntries, 16u);
}

TEST(Config, MachineVariantsMapToPolicies)
{
    RunConfig cfg;
    cfg.machine = Machine::Base;
    EXPECT_EQ(sim::makeCoreParams(cfg).sched.policy,
              sched::LoopPolicy::Atomic);
    EXPECT_FALSE(sim::makeCoreParams(cfg).mopEnabled);

    cfg.machine = Machine::TwoCycle;
    EXPECT_EQ(sim::makeCoreParams(cfg).sched.policy,
              sched::LoopPolicy::TwoCycle);
    EXPECT_FALSE(sim::makeCoreParams(cfg).mopEnabled);

    cfg.machine = Machine::MopCam;
    auto p = sim::makeCoreParams(cfg);
    EXPECT_TRUE(p.mopEnabled);
    EXPECT_EQ(p.sched.style, sched::WakeupStyle::Cam2);
    EXPECT_TRUE(p.detector.camRestrict);

    cfg.machine = Machine::MopWiredOr;
    p = sim::makeCoreParams(cfg);
    EXPECT_TRUE(p.mopEnabled);
    EXPECT_FALSE(p.detector.camRestrict);

    cfg.machine = Machine::SelectFreeScoreboard;
    EXPECT_EQ(sim::makeCoreParams(cfg).sched.policy,
              sched::LoopPolicy::SelectFreeScoreboard);
}

TEST(Config, ExtraStagesOnlyApplyToMopMachines)
{
    RunConfig cfg;
    cfg.extraStages = 2;
    cfg.machine = Machine::Base;
    EXPECT_EQ(sim::makeCoreParams(cfg).extraFormationStages, 0);
    cfg.machine = Machine::MopWiredOr;
    EXPECT_EQ(sim::makeCoreParams(cfg).extraFormationStages, 2);
}

TEST(Config, UnrestrictedQueueConfig)
{
    RunConfig cfg;
    cfg.iqEntries = 0;
    pipeline::CoreParams p = sim::makeCoreParams(cfg);
    EXPECT_EQ(p.sched.numEntries, 0);
    // The scheduler sizes itself generously for "unrestricted".
    sched::Scheduler s(p.sched);
    EXPECT_GE(s.capacity(), 2 * p.robSize);
}

TEST(Config, MachineNamesUnique)
{
    std::set<std::string> names;
    for (Machine m :
         {Machine::Base, Machine::TwoCycle, Machine::MopCam,
          Machine::MopWiredOr, Machine::SelectFreeSquashDep,
          Machine::SelectFreeScoreboard}) {
        names.insert(sim::machineName(m));
    }
    EXPECT_EQ(names.size(), 6u);
}

TEST(Config, PaperRefTable2Values)
{
    EXPECT_DOUBLE_EQ(sim::paperRef("mcf").baseIpc32, 0.34);
    EXPECT_DOUBLE_EQ(sim::paperRef("eon").baseIpcUnrestricted, 2.13);
    EXPECT_DOUBLE_EQ(sim::paperRef("gzip").valueGenPct, 0.563);
    EXPECT_THROW(sim::paperRef("bogus"), std::invalid_argument);
    for (const auto &b : trace::specCint2000()) {
        sim::PaperRef r = sim::paperRef(b);
        EXPECT_GT(r.baseIpcUnrestricted, r.baseIpc32 - 1e-9) << b;
        EXPECT_GT(r.valueGenPct, 0.2) << b;
    }
}

TEST(Config, BenchInstsReadsEnvironment)
{
    unsetenv("MOP_INSTS");
    EXPECT_EQ(sim::benchInsts(1234), 1234u);
    setenv("MOP_INSTS", "777", 1);
    EXPECT_EQ(sim::benchInsts(1234), 777u);
    setenv("MOP_INSTS", "", 1);  // empty counts as unset
    EXPECT_EQ(sim::benchInsts(1234), 1234u);
    setenv("MOP_INSTS", "1099511627776", 1);  // 2^40, the --insts cap
    EXPECT_EQ(sim::benchInsts(1234), uint64_t(1) << 40);
    // strtoull would read these as 1, 0 (the fallback) and 2^64-1.
    for (const char *bad :
         {"1e6", "abc", "-1", "0", "1099511627777", "5x"}) {
        setenv("MOP_INSTS", bad, 1);
        try {
            sim::benchInsts(1234);
            ADD_FAILURE() << "MOP_INSTS=" << bad << " must throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("MOP_INSTS"),
                      std::string::npos)
                << e.what();
        }
    }
    unsetenv("MOP_INSTS");
}

} // namespace
