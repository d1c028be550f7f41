/**
 * @file
 * End-to-end reproduction guards: the paper's headline results must
 * keep holding as the code evolves. Uses a benchmark subset and short
 * runs with generous margins — these pin *shapes*, not exact numbers
 * (EXPERIMENTS.md records the full-suite values).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>

#include "obs/critpath.hh"
#include "obs/stall.hh"
#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace mop;
using sim::Machine;

constexpr uint64_t kInsts = 50000;

const std::vector<std::string> kSubset = {"gap",    "gzip", "vortex",
                                          "parser", "bzip", "eon"};

double
ipcOf(const std::string &b, Machine m, int iq, int extra = 0)
{
    sim::RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = iq;
    cfg.extraStages = extra;
    return sim::runBenchmark(b, cfg, kInsts).ipc;
}

TEST(Reproduction, Figure14TwoCycleLosesMopRecovers)
{
    double sum2 = 0, summ = 0;
    double worst2 = 1.0;
    for (const auto &b : kSubset) {
        double base = ipcOf(b, Machine::Base, 0);
        double two = ipcOf(b, Machine::TwoCycle, 0) / base;
        double mop = ipcOf(b, Machine::MopWiredOr, 0) / base;
        // MOP must never be meaningfully worse than 2-cycle.
        EXPECT_GT(mop, two - 0.01) << b;
        sum2 += two;
        summ += mop;
        worst2 = std::min(worst2, two);
    }
    // The pipelined loop costs real IPC somewhere (paper: up to 19%).
    EXPECT_LT(worst2, 0.90);
    // Macro-op scheduling recovers most of the average loss.
    EXPECT_GT(summ / double(kSubset.size()),
              sum2 / double(kSubset.size()) + 0.03);
    EXPECT_GT(summ / double(kSubset.size()), 0.93);
}

TEST(Reproduction, Figure15ContentionMakesMopCompetitive)
{
    double summ = 0;
    int above_base = 0;
    for (const auto &b : kSubset) {
        double base = ipcOf(b, Machine::Base, 32);
        double mop = ipcOf(b, Machine::MopWiredOr, 32, 1) / base;
        summ += mop;
        above_base += mop > 1.0;
    }
    // Paper: average within ~0.5% of base; several benchmarks win.
    EXPECT_GT(summ / double(kSubset.size()), 0.95);
    EXPECT_GE(above_base, 1);
}

TEST(Reproduction, Figure16SelectFreeOrdering)
{
    double squash = 0, board = 0;
    for (const auto &b : kSubset) {
        double base = ipcOf(b, Machine::Base, 32);
        squash += ipcOf(b, Machine::SelectFreeSquashDep, 32) / base;
        board += ipcOf(b, Machine::SelectFreeScoreboard, 32) / base;
    }
    squash /= double(kSubset.size());
    board /= double(kSubset.size());
    // Scoreboard pileups cost distinctly more than ideal squash-dep;
    // select-free cannot outperform the baseline (paper Section 6.5).
    EXPECT_LT(board, squash - 0.02);
    EXPECT_LE(squash, 1.01);
}

TEST(Reproduction, Section63EntryReduction)
{
    // Paper: grouping removes ~16% of scheduler insertions on average.
    double sum = 0;
    for (const auto &b : kSubset) {
        sim::RunConfig cfg;
        cfg.machine = Machine::MopWiredOr;
        cfg.iqEntries = 0;
        auto r = sim::runBenchmark(b, cfg, kInsts);
        sum += 1.0 - double(r.iqEntriesInserted) /
                         double(std::max<uint64_t>(r.uopsInserted, 1));
    }
    double avg = sum / double(kSubset.size());
    EXPECT_GT(avg, 0.10);
    EXPECT_LT(avg, 0.30);
}

TEST(Reproduction, Figure13GroupedFractionBand)
{
    // Paper: 28-46% of committed instructions grouped; vortex/eon low,
    // gzip high.
    std::map<std::string, double> grouped;
    for (const auto &b : kSubset) {
        sim::RunConfig cfg;
        cfg.machine = Machine::MopWiredOr;
        cfg.iqEntries = 0;
        grouped[b] = sim::runBenchmark(b, cfg, kInsts).groupedFrac();
        EXPECT_GT(grouped[b], 0.15) << b;
        EXPECT_LT(grouped[b], 0.60) << b;
    }
    EXPECT_GT(grouped["gzip"], grouped["vortex"]);
    EXPECT_GT(grouped["gap"], grouped["eon"]);
}

// ---------------------------------------------------------------------
// Golden-run regression pins. Unlike the shape tests above, these pin
// *exact* values: the simulator is deterministic, so any drift in
// cycles, committed counts or the stall-attribution vector is a real
// behaviour change and must be acknowledged by re-pinning. The stall
// vector is indexed by obs::StallCause (useful, frontend, iq-full,
// rob-full, wakeup-wait, select-loss, replay, dcache-miss, drain,
// wrong-path).
// Regenerate a row with:
//   build/src/sim/mopsim --bench <b> --machine <m> --iq 32 \
//       --insts 20000 --report breakdown
// ---------------------------------------------------------------------

struct GoldenRun
{
    const char *bench;
    sim::Machine machine;
    uint64_t cycles;
    uint64_t insts;
    uint64_t uops;
    std::array<uint64_t, obs::kNumStallCauses> stall;
    /** Behaviour policy of the pinned run (the non-paper policies get
     *  their own pins so a refactor cannot silently retime them). */
    sched::PolicyId policy = sched::PolicyId::Paper;
    /** True wrong-path execution (its own pins: the wrong-path rows
     *  pin the competition cost, and the plain rows double as the
     *  off-mode identity guard — wrong-path-off timing must not move
     *  when the feature evolves). */
    bool wrongPath = false;
};

constexpr uint64_t kGoldenInsts = 20000;

// clang-format off
const GoldenRun kGolden[] = {
    {"gzip", Machine::MopWiredOr, 15244, 20000, 21719,
     {22316, 26161, 0, 6218, 5277, 97, 0, 907, 0}},
    {"gap",  Machine::MopWiredOr, 15794, 20001, 22987,
     {23094, 21759, 0, 2074, 11875, 113, 0, 4261, 0}},
    {"mcf",  Machine::Base,       65237, 20000, 22371,
     {25650, 10575, 0, 167, 8725, 1203, 1109, 213519, 0}},
    {"gzip", Machine::MopWiredOr, 15218, 20000, 21719,
     {21822, 26098, 0, 6229, 5224, 95, 0, 1404, 0},
     sched::PolicyId::LoadDelay},
    {"gzip", Machine::MopWiredOr, 15175, 20000, 21719,
     {22314, 26600, 0, 6263, 4478, 246, 0, 799, 0},
     sched::PolicyId::StaticFuse},
    {"gzip", Machine::MopWiredOr, 15449, 20000, 21719,
     {22382, 24930, 0, 6515, 4536, 96, 0, 693, 0, 2644},
     sched::PolicyId::Paper, true},
    {"gap",  Machine::MopWiredOr, 16130, 20001, 22987,
     {23148, 17870, 0, 2190, 10233, 76, 0, 4264, 0, 6739},
     sched::PolicyId::Paper, true},
    {"mcf",  Machine::Base,       65369, 20000, 22371,
     {25639, 8700, 0, 167, 7873, 1179, 1099, 207412, 0, 9407},
     sched::PolicyId::Paper, true},
};
// clang-format on

std::string
goldenRow(const GoldenRun &g, const pipeline::SimResult &r)
{
    std::ostringstream os;
    os << "{\"" << g.bench << "\", Machine::"
       << (g.machine == Machine::Base ? "Base" : "MopWiredOr") << ", "
       << r.cycles << ", " << r.insts << ", " << r.uops << ", {";
    for (size_t i = 0; i < obs::kNumStallCauses; ++i)
        os << (i ? ", " : "") << r.stallSlots[i];
    os << "}";
    if (g.policy != sched::PolicyId::Paper || g.wrongPath)
        os << ", sched::PolicyId::"
           << (g.policy == sched::PolicyId::LoadDelay    ? "LoadDelay"
               : g.policy == sched::PolicyId::StaticFuse ? "StaticFuse"
                                                         : "Paper");
    if (g.wrongPath)
        os << ", true";
    os << "},";
    return os.str();
}

TEST(Golden, PinnedIpcAndStallAttribution)
{
    for (const GoldenRun &g : kGolden) {
        sim::RunConfig cfg;
        cfg.machine = g.machine;
        cfg.iqEntries = 32;
        cfg.obs.enabled = true;
        cfg.policy = g.policy;
        cfg.wrongPath = g.wrongPath;
        auto r = sim::runBenchmark(g.bench, cfg, kGoldenInsts);

        bool match = r.cycles == g.cycles && r.insts == g.insts &&
                     r.uops == g.uops && r.stallSlots == g.stall;
        if (match)
            continue;

        std::ostringstream diff;
        diff << g.bench << "/" << sim::machineName(g.machine)
             << " drifted from the pinned golden run:\n";
        auto field = [&](const char *name, uint64_t want, uint64_t got) {
            if (want != got)
                diff << "  " << name << ": pinned " << want << ", got "
                     << got << "\n";
        };
        field("cycles", g.cycles, r.cycles);
        field("insts", g.insts, r.insts);
        field("uops", g.uops, r.uops);
        for (size_t i = 0; i < obs::kNumStallCauses; ++i)
            field(obs::stallCauseName(obs::StallCause(i)), g.stall[i],
                  r.stallSlots[i]);
        diff << "if the change is intended, re-pin with:\n  "
             << goldenRow(g, r);
        ADD_FAILURE() << diff.str();
    }
}

TEST(Golden, PinnedIpcIsConsistent)
{
    // IPC is derived (insts / cycles); check the derivation so the pin
    // above also pins the reported IPC bit for bit.
    for (const GoldenRun &g : kGolden) {
        sim::RunConfig cfg;
        cfg.machine = g.machine;
        cfg.iqEntries = 32;
        cfg.obs.enabled = true;
        cfg.policy = g.policy;
        cfg.wrongPath = g.wrongPath;
        auto r = sim::runBenchmark(g.bench, cfg, kGoldenInsts);
        EXPECT_EQ(r.ipc, double(r.insts) / double(r.cycles)) << g.bench;
    }
}

// ---------------------------------------------------------------------
// Critical-path composition pins and cross-checks. The critpath pass
// (obs/critpath) is a second, independent decomposition of the same
// pinned runs: its golden vector is pinned next to the stall vectors
// above, its dominant stall cause must agree with the slot-based
// attribution, and its what-if 2-cycle estimate must track the
// cycle-accurate ablation on the assembly kernels.
// ---------------------------------------------------------------------

std::string
tmpPath(const std::string &name)
{
    // PID-unique: ctest runs each case as its own process in
    // parallel, and cases sharing a literal path race on
    // write/read/remove.
    return std::string(::testing::TempDir()) +
           std::to_string(::getpid()) + "_" + name;
}

/** Re-run a pinned configuration with the event trace on and analyze
 *  it. Tracing is pure observability, so this is the same simulation
 *  the golden pins above check. */
obs::CritPathReport
critPathOf(const GoldenRun &g)
{
    std::string path =
        tmpPath(std::string("critpin_") + g.bench + ".evt");
    sim::RunConfig cfg;
    cfg.machine = g.machine;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.policy = g.policy;
    cfg.obs.traceOut = path;
    sim::runBenchmark(g.bench, cfg, kGoldenInsts);
    auto events = trace::readEventTrace(path);
    std::remove(path.c_str());
    return obs::analyzeCritPath(events);
}

/** Pinned critical-path composition for the gzip golden run. The
 *  cause vector is indexed by obs::CritCause (frontend, capacity,
 *  wakeup-wait, chain-latency, dcache-miss, select-loss, replay,
 *  dispatch, commit-wait). Regenerate with:
 *    build/src/sim/mopsim --bench gzip --machine mop-wiredor --iq 32 \
 *        --insts 20000 --trace-out t.evt && build/src/obs/moptrace \
 *        critpath t.evt */
struct GoldenCritPath
{
    uint64_t cycles;
    uint64_t uops;
    uint64_t insts;
    std::array<uint64_t, obs::kNumCritCauses> cause;
    uint64_t depEdges;
    uint64_t tightEdges;
    uint64_t whatIfTwoCycle;
};

// clang-format off
const GoldenCritPath kGoldenCritGzip = {
    15133, 21719, 20000,
    {4827, 0, 134, 1278, 3216, 0, 0, 840, 4838},
    22428, 3793, 17975};
// clang-format on

TEST(Golden, PinnedCritPathComposition)
{
    auto r = critPathOf(kGolden[0]);  // the gzip pin
    const GoldenCritPath &g = kGoldenCritGzip;

    // The composition is a complete decomposition whatever the pin
    // says: every cycle of the span charged to exactly one cause.
    EXPECT_EQ(std::accumulate(r.causeCycles.begin(), r.causeCycles.end(),
                              uint64_t(0)),
              r.cycles);

    bool match = r.cycles == g.cycles && r.uops == g.uops &&
                 r.insts == g.insts && r.causeCycles == g.cause &&
                 r.depEdges == g.depEdges &&
                 r.tightEdges == g.tightEdges &&
                 r.whatIfTwoCycleCycles == g.whatIfTwoCycle;
    if (match)
        return;

    std::ostringstream diff;
    diff << "gzip critical-path composition drifted from the pin:\n";
    auto field = [&](const char *name, uint64_t want, uint64_t got) {
        if (want != got)
            diff << "  " << name << ": pinned " << want << ", got "
                 << got << "\n";
    };
    field("cycles", g.cycles, r.cycles);
    field("uops", g.uops, r.uops);
    field("insts", g.insts, r.insts);
    for (size_t i = 0; i < obs::kNumCritCauses; ++i)
        field(obs::critCauseName(obs::CritCause(i)), g.cause[i],
              r.causeCycles[i]);
    field("depEdges", g.depEdges, r.depEdges);
    field("tightEdges", g.tightEdges, r.tightEdges);
    field("whatIfTwoCycle", g.whatIfTwoCycle, r.whatIfTwoCycleCycles);
    diff << "if the change is intended, re-pin with:\n  {" << r.cycles
         << ", " << r.uops << ", " << r.insts << ",\n   {";
    for (size_t i = 0; i < obs::kNumCritCauses; ++i)
        diff << (i ? ", " : "") << r.causeCycles[i];
    diff << "},\n   " << r.depEdges << ", " << r.tightEdges << ", "
         << r.whatIfTwoCycleCycles << "};";
    ADD_FAILURE() << diff.str();
}

TEST(Golden, CritPathDominantAgreesWithStallAttribution)
{
    // Two independent decompositions of the same pinned runs — the
    // slot-based stall attribution and the critical-path composition —
    // must name the same dominant bottleneck. The models answer
    // slightly different questions (the slot model multiplies
    // partial-width frontend starvation by the issue width; the time
    // model does not), so when the critpath's top two stall causes are
    // within 5% of the span of each other the slot winner only has to
    // appear among them.
    auto slotToCrit = [](obs::StallCause c) {
        switch (c) {
          case obs::StallCause::Frontend:
            return obs::CritCause::Frontend;
          case obs::StallCause::IqFull:
          case obs::StallCause::RobFull:
            return obs::CritCause::Capacity;
          case obs::StallCause::WakeupWait:
            return obs::CritCause::WakeupWait;
          case obs::StallCause::SelectLoss:
            return obs::CritCause::SelectLoss;
          case obs::StallCause::Replay:
            return obs::CritCause::Replay;
          case obs::StallCause::DcacheMiss:
            return obs::CritCause::DcacheMiss;
          default:
            return obs::CritCause::kCount;
        }
    };
    for (const GoldenRun &g : kGolden) {
        // Dominant stall of the pinned slot vector (the pin itself, so
        // no re-simulation needed), excluding useful work and drain.
        size_t slotBest = size_t(obs::StallCause::Frontend);
        for (size_t i = 0; i < obs::kNumStallCauses; ++i) {
            auto c = obs::StallCause(i);
            if (c == obs::StallCause::Useful || c == obs::StallCause::Drain)
                continue;
            if (g.stall[i] > g.stall[slotBest])
                slotBest = i;
        }
        obs::CritCause want = slotToCrit(obs::StallCause(slotBest));

        auto r = critPathOf(g);
        static constexpr obs::CritCause kStallish[] = {
            obs::CritCause::Frontend,   obs::CritCause::Capacity,
            obs::CritCause::WakeupWait, obs::CritCause::DcacheMiss,
            obs::CritCause::SelectLoss, obs::CritCause::Replay,
        };
        obs::CritCause top1 = kStallish[0], top2 = kStallish[1];
        for (obs::CritCause c : kStallish) {
            if (r.causeCycles[size_t(c)] >= r.causeCycles[size_t(top1)]) {
                top2 = top1;
                top1 = c;
            } else if (r.causeCycles[size_t(c)] >
                       r.causeCycles[size_t(top2)]) {
                top2 = c;
            }
        }
        EXPECT_EQ(top1, r.dominantStall()) << g.bench;
        uint64_t margin = r.causeCycles[size_t(top1)] -
                          r.causeCycles[size_t(top2)];
        if (margin > r.cycles / 20) {
            EXPECT_EQ(top1, want)
                << g.bench << ": critpath says "
                << obs::critCauseName(top1) << ", stall vector says "
                << obs::critCauseName(want);
        } else {
            EXPECT_TRUE(want == top1 || want == top2)
                << g.bench << ": stall-vector dominant "
                << obs::critCauseName(want)
                << " not among critpath near-tie {"
                << obs::critCauseName(top1) << ", "
                << obs::critCauseName(top2) << "}";
        }
    }
}

TEST(Golden, WhatIfTwoCycleTracksAblationOnKernels)
{
    // Acceptance criterion for the what-if estimator: the statically
    // estimated slowdown of the pipelined 2-cycle loop must land
    // within 10% of the cycle-accurate ablation (aggregated over the
    // kernels; individual kernels with second-order select/capacity
    // effects may miss in either direction).
    uint64_t estTotal = 0, measTotal = 0;
    for (const auto &k : prog::kernelNames()) {
        auto runKernel = [&](Machine m, const std::string &trace) {
            prog::Program p = prog::assemble(prog::kernelSource(k));
            prog::Interpreter src(p);
            sim::RunConfig cfg;
            cfg.machine = m;
            cfg.iqEntries = 32;
            if (!trace.empty()) {
                cfg.obs.enabled = true;
                cfg.obs.traceOut = trace;
            }
            pipeline::OooCore core(sim::makeCoreParams(cfg), src);
            return core.run(10'000'000);
        };
        std::string path = tmpPath("whatif_" + k + ".evt");
        auto base = runKernel(Machine::Base, path);
        auto two = runKernel(Machine::TwoCycle, "");
        auto events = trace::readEventTrace(path);
        std::remove(path.c_str());
        auto r = obs::analyzeCritPath(events);

        ASSERT_GE(two.cycles, base.cycles) << k;
        ASSERT_GE(r.whatIfTwoCycleCycles, r.cycles) << k;
        uint64_t est = r.whatIfTwoCycleCycles - r.cycles;
        uint64_t meas = two.cycles - base.cycles;
        estTotal += est;
        measTotal += meas;
        // Spot checks on the kernels dominated by tight dependence
        // chains, where the static model should be accurate.
        if (k == "hash" || k == "crc") {
            EXPECT_NEAR(double(est), double(meas), 0.10 * double(meas))
                << k;
        }
    }
    ASSERT_GT(measTotal, 0u);
    double err = (double(estTotal) - double(measTotal)) /
                 double(measTotal);
    EXPECT_LT(std::abs(err), 0.10)
        << "estimated " << estTotal << " vs measured " << measTotal;
}

TEST(Reproduction, Section62DetectionDelayInsensitive)
{
    for (const auto &b : {"gzip", "parser"}) {
        sim::RunConfig cfg;
        cfg.machine = Machine::MopWiredOr;
        cfg.iqEntries = 32;
        cfg.detectLatency = 3;
        double fast = sim::runBenchmark(b, cfg, kInsts).ipc;
        cfg.detectLatency = 100;
        double slow = sim::runBenchmark(b, cfg, kInsts).ipc;
        EXPECT_GT(slow, fast * 0.98) << b;  // paper: <1% loss
    }
}

} // namespace
