/**
 * @file
 * Wrong-path execution tests: deterministic synthesis, trace-format
 * v3 round-trips, the mispredict/wrong-path flag separation (a branch
 * squash-dropped by an earlier mispredict must not read as its own
 * redirect), skip-idle equivalence under wrong-path squashes, the
 * stall-slot sum invariant with the WrongPath cause live, and the
 * critpath/render classification of squashed rows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hh"
#include "obs/render.hh"
#include "obs/stall.hh"
#include "pipeline/ooo_core.hh"
#include "sim/config.hh"
#include "stats/stats.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "trace/wrong_path.hh"

namespace
{

using namespace mop;
using trace::CycleEvent;
using trace::WrongPathSynth;

std::string
tmpPath(const std::string &name)
{
    // PID-unique: ctest runs each case as its own process in
    // parallel, and cases sharing a literal path race on
    // write/read/remove.
    return std::string(::testing::TempDir()) +
           std::to_string(::getpid()) + "_" + name;
}

/** Drain one full episode into a vector of copies. */
std::vector<isa::MicroOp>
drainEpisode(WrongPathSynth &s, uint64_t seq, uint64_t pc, int depth)
{
    s.begin(seq, pc, depth);
    std::vector<isa::MicroOp> out;
    while (s.hasMore()) {
        const isa::MicroOp *u = s.peek();
        if (!u)
            break;
        out.push_back(*u);
        s.pop();
    }
    return out;
}

// ---------------------------------------------------------------------
// Synthesis determinism.
// ---------------------------------------------------------------------

TEST(WrongPathSynth, EpisodeIsAPureFunctionOfSeedBranchAndPc)
{
    WrongPathSynth a(0x1234), b(0x1234);
    auto ea = drainEpisode(a, 77, 0x4000, 48);
    auto eb = drainEpisode(b, 77, 0x4000, 48);
    ASSERT_EQ(ea.size(), eb.size());
    ASSERT_EQ(ea.size(), 48u);
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].pc, eb[i].pc) << i;
        EXPECT_EQ(int(ea[i].op), int(eb[i].op)) << i;
        EXPECT_EQ(ea[i].dst, eb[i].dst) << i;
        EXPECT_EQ(ea[i].src[0], eb[i].src[0]) << i;
        EXPECT_EQ(ea[i].src[1], eb[i].src[1]) << i;
    }
}

TEST(WrongPathSynth, EpisodesDifferAcrossBranchesAndSeeds)
{
    // Different branch seq, branch pc, or calibration seed must each
    // produce a different shadow stream (the episode seed folds in all
    // three), or every mispredict would fetch the same code.
    WrongPathSynth base(0x1234);
    auto ref = drainEpisode(base, 77, 0x4000, 32);

    WrongPathSynth s1(0x1234);
    auto otherSeq = drainEpisode(s1, 78, 0x4000, 32);
    WrongPathSynth s2(0x1234);
    auto otherPc = drainEpisode(s2, 77, 0x4004, 32);
    WrongPathSynth s3(0x9999);
    auto otherSeed = drainEpisode(s3, 77, 0x4000, 32);

    auto differs = [&](const std::vector<isa::MicroOp> &v) {
        for (size_t i = 0; i < std::min(ref.size(), v.size()); ++i)
            if (ref[i].op != v[i].op || ref[i].src[0] != v[i].src[0] ||
                ref[i].dst != v[i].dst)
                return true;
        return ref.size() != v.size();
    };
    EXPECT_TRUE(differs(otherSeq));
    EXPECT_TRUE(differs(otherPc));
    EXPECT_TRUE(differs(otherSeed));
}

TEST(WrongPathSynth, PcsStayInsideTheReservedRegion)
{
    // No wrong-path PC may alias a real static instruction: the MOP
    // pointer cache and the detector key on PCs.
    WrongPathSynth s(42);
    auto ep = drainEpisode(s, 1, 0x1000, 64);
    for (const isa::MicroOp &u : ep)
        EXPECT_GE(u.pc, WrongPathSynth::kPcBase);
}

TEST(WrongPathSynth, EndAbandonsTheEpisode)
{
    WrongPathSynth s(42);
    s.begin(1, 0x1000, 64);
    ASSERT_TRUE(s.hasMore());
    s.peek();
    s.end();
    EXPECT_FALSE(s.hasMore());
    EXPECT_EQ(s.peek(), nullptr);
}

TEST(WrongPathSynth, SeedDerivationsStayDistinct)
{
    // The four per-profile stream seeds must never collide (the
    // determinism contract in trace/profiles.hh).
    uint64_t seed = trace::profileFor("gzip").seed;
    uint64_t b = trace::buildSeed(seed);
    uint64_t w = trace::walkSeed(seed);
    uint64_t c = trace::calibrationSeed(seed);
    uint64_t p = trace::wrongPathSeed(seed);
    EXPECT_NE(p, b);
    EXPECT_NE(p, w);
    EXPECT_NE(p, c);
    EXPECT_NE(p, seed);
}

// ---------------------------------------------------------------------
// Trace format: v3 round-trip, off-mode files stay v2.
// ---------------------------------------------------------------------

TEST(WrongPathTrace, V3RoundTripPreservesTheWrongPathFlag)
{
    std::string path = tmpPath("wp_v3.evt");
    {
        trace::EventTraceWriter wr(path, 3);
        CycleEvent ev;
        ev.kind = CycleEvent::Kind::Uop;
        ev.seq = 7;
        ev.pc = WrongPathSynth::kPcBase + 16;
        ev.flags = CycleEvent::kFlagWrongPath | CycleEvent::kFlagLoad;
        ev.fetch = 10;
        ev.insert = 12;
        ev.commit = 30;  // squash cycle, not a commit
        wr.write(&ev, 1, 0);
        wr.close();
    }
    trace::EventTraceReader rd(path);
    EXPECT_EQ(rd.version(), 3u);
    CycleEvent got;
    ASSERT_TRUE(rd.next(got));
    EXPECT_TRUE(got.flags & CycleEvent::kFlagWrongPath);
    EXPECT_TRUE(got.flags & CycleEvent::kFlagLoad);
    EXPECT_EQ(got.commit, 30u);
    std::remove(path.c_str());
}

TEST(WrongPathTrace, OffModeRunsStillWriteVersion2)
{
    // Wrong-path-off traces must stay byte-compatible v2 files so
    // older readers keep working.
    std::string path = tmpPath("wp_off.evt");
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.obs.traceOut = path;
    sim::runBenchmark("gzip", cfg, 3000);

    trace::EventTraceReader rd(path);
    EXPECT_EQ(rd.version(), 2u);
    CycleEvent ev;
    while (rd.next(ev))
        EXPECT_FALSE(ev.flags & CycleEvent::kFlagWrongPath);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end: flag separation, stall invariant, critpath, render.
// ---------------------------------------------------------------------

struct WpRun
{
    pipeline::SimResult result;
    std::vector<CycleEvent> events;
};

WpRun
runWrongPathTraced(const std::string &bench, uint64_t insts)
{
    std::string path = tmpPath("wp_" + bench + ".evt");
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.obs.traceOut = path;
    cfg.wrongPath = true;
    WpRun out;
    out.result = sim::runBenchmark(bench, cfg, insts);
    out.events = trace::readEventTrace(path);
    std::remove(path.c_str());
    return out;
}

TEST(WrongPathEndToEnd, MispredictAndWrongPathFlagsAreExclusive)
{
    // The two-mispredict regression: wrong-path bursts contain
    // synthesized branches, and a branch squash-dropped by an earlier
    // mispredict is not a redirect of its own — it must carry
    // kFlagWrongPath and never kFlagMispredict. Only committed
    // right-path branches may carry the mispredict flag.
    WpRun r = runWrongPathTraced("gzip", 20000);
    ASSERT_GT(r.result.mispredicts, 0u);

    uint64_t wpRows = 0, wpBranches = 0, mispredictRows = 0;
    for (const CycleEvent &ev : r.events) {
        if (ev.kind != CycleEvent::Kind::Uop)
            continue;
        bool wp = ev.flags & CycleEvent::kFlagWrongPath;
        bool mis = ev.flags & CycleEvent::kFlagMispredict;
        ASSERT_FALSE(wp && mis)
            << "seq " << ev.seq << " carries both flags";
        if (wp) {
            ++wpRows;
            EXPECT_GE(ev.pc, WrongPathSynth::kPcBase) << ev.seq;
            // commit records the squash cycle; the row still has a
            // coherent lifecycle prefix.
            EXPECT_GE(ev.commit, ev.fetch) << ev.seq;
            if (isa::OpClass(ev.op) == isa::OpClass::Branch)
                ++wpBranches;
        }
        if (mis)
            ++mispredictRows;
    }
    EXPECT_GT(wpRows, 0u) << "no wrong-path rows in a 119-mispredict run";
    EXPECT_GT(wpBranches, 0u)
        << "synthesized bursts include branches; none were squashed";
    EXPECT_EQ(mispredictRows, r.result.mispredicts)
        << "every detected mispredict tags exactly its resolving branch";
}

TEST(WrongPathEndToEnd, StallSlotsStillSumToWidthTimesCycles)
{
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.wrongPath = true;
    auto r = sim::runBenchmark("gzip", cfg, 20000);

    ASSERT_GT(r.stallWidth, 0u);
    uint64_t sum = 0;
    for (uint64_t v : r.stallSlots)
        sum += v;
    EXPECT_EQ(sum, r.cycles * r.stallWidth);
    EXPECT_GT(r.stallSlots[size_t(obs::StallCause::WrongPath)], 0u)
        << "wrong-path entries never charged a slot";
}

TEST(WrongPathEndToEnd, CritPathChargesEpisodesAndBlameStillSums)
{
    WpRun r = runWrongPathTraced("gzip", 20000);

    obs::TraceSummary sum = obs::summarizeTrace(r.events);
    EXPECT_GT(sum.wrongPathUops, 0u);
    // Squashed rows are not committed work.
    uint64_t committedUops = 0;
    for (const CycleEvent &ev : r.events)
        if (ev.kind == CycleEvent::Kind::Uop &&
            !(ev.flags & CycleEvent::kFlagWrongPath))
            ++committedUops;
    EXPECT_EQ(sum.uops, committedUops);

    std::vector<obs::UopBlame> blame;
    obs::CritPathReport rep = obs::analyzeCritPath(r.events, &blame);
    EXPECT_GT(rep.causeCycles[size_t(obs::CritCause::WrongPath)], 0u)
        << "frontend-supply cycles inside squash episodes not recharged";

    // Per-row blame must reproduce the whole-trace composition exactly
    // (the render integrity gate relies on this).
    std::array<uint64_t, obs::kNumCritCauses> acc{};
    for (const obs::UopBlame &b : blame)
        for (size_t i = 0; i < obs::kNumCritCauses; ++i)
            acc[i] += b.causeCycles[i];
    EXPECT_EQ(acc, rep.causeCycles);
    EXPECT_EQ(blame.size(), committedUops);
}

TEST(WrongPathEndToEnd, RenderModelClassifiesSquashedRows)
{
    WpRun r = runWrongPathTraced("gzip", 20000);
    // buildRenderModel enforces the blame-sum integrity check
    // internally (throws std::logic_error on a mismatch).
    obs::RenderOptions opts;
    opts.critpath = true;
    opts.traceVersion = 3;
    obs::RenderModel m = obs::buildRenderModel(r.events, opts);

    size_t wpRows = 0;
    for (const obs::RenderRow &row : m.rows) {
        if (!(row.flags & CycleEvent::kFlagWrongPath))
            continue;
        ++wpRows;
        EXPECT_TRUE(row.blame.empty()) << "squashed rows carry no blame";
        ASSERT_EQ(row.segments.size(), 1u);
        EXPECT_TRUE(row.segments[0].cause == obs::CritCause::WrongPath);
    }
    EXPECT_GT(wpRows, 0u);
    EXPECT_EQ(m.summary.wrongPathUops, wpRows);

    std::string json = obs::renderModelJson(m);
    EXPECT_NE(json.find("\"wrongPath\": 128"), std::string::npos);
    EXPECT_NE(json.find("\"wrongPathUops\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Cycle skipping under wrong-path squashes.
// ---------------------------------------------------------------------

/** Full stats report minus the one line that legitimately differs. */
std::string
stripSkipCounter(const std::string &stats)
{
    std::istringstream in(stats);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.find("skippedCycles") == std::string::npos)
            out << line << '\n';
    return out.str();
}

TEST(WrongPathCycleSkip, SkippingRunMatchesSteppedRunExactly)
{
    // A wrong-path squash re-schedules broadcasts and forces sources
    // ready — exactly the event class a stale skip window would hide.
    // The skipping run must still be invisible.
    for (auto machine : {sim::Machine::Base, sim::Machine::MopWiredOr}) {
        pipeline::SimResult res[2];
        std::string stats[2];
        for (int skip = 0; skip < 2; ++skip) {
            trace::WorkloadProfile prof = trace::profileFor("gcc");
            trace::SyntheticSource src(prof);
            sim::RunConfig cfg;
            cfg.machine = machine;
            cfg.iqEntries = 32;
            cfg.wrongPath = true;
            pipeline::CoreParams params = sim::makeCoreParams(cfg);
            params.cycleSkip = (skip == 1);
            params.wrongPathSeed = trace::wrongPathSeed(prof.seed);
            pipeline::OooCore core(params, src);
            res[skip] = core.run(15000);

            stats::StatGroup g("sim");
            core.addStats(g);
            std::ostringstream os;
            g.print(os);
            stats[skip] = os.str();
        }
        EXPECT_EQ(res[0].cycles, res[1].cycles) << int(machine);
        EXPECT_EQ(res[0].insts, res[1].insts) << int(machine);
        EXPECT_EQ(res[0].replays, res[1].replays) << int(machine);
        EXPECT_EQ(res[0].mispredicts, res[1].mispredicts)
            << int(machine);
        EXPECT_EQ(stripSkipCounter(stats[0]), stripSkipCounter(stats[1]))
            << int(machine);
        EXPECT_GT(res[1].skippedCycles, 0u)
            << "the skip gate never fired with wrong-path on";
    }
}

} // namespace
