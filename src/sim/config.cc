#include "sim/config.hh"

#include <cstdlib>
#include <stdexcept>

#include "sim/cli_opts.hh"
#include "trace/profiles.hh"

namespace mop::sim
{

namespace
{

using LP = sched::LoopPolicy;
using WS = sched::WakeupStyle;

struct MachineTraits
{
    Machine machine;
    const char *name;   ///< figure / report spelling
    const char *token;  ///< --machine spelling
    LP loop;
    WS style;
    bool mop;           ///< macro-op scheduling (SchedParams::mopEnabled)
};

/** One row per Machine, in enum order (traits() indexes it). */
constexpr MachineTraits kMachineTable[] = {
    {Machine::Base, "base", "base", LP::Atomic, WS::Cam2, false},
    {Machine::TwoCycle, "2-cycle", "2-cycle", LP::TwoCycle, WS::Cam2, false},
    {Machine::MopCam, "MOP-2src", "mop-2src", LP::TwoCycle, WS::Cam2, true},
    {Machine::MopWiredOr, "MOP-wiredOR", "mop-wiredor", LP::TwoCycle,
     WS::WiredOr, true},
    {Machine::SelectFreeSquashDep, "select-free-squash-dep", "sf-squash-dep",
     LP::SelectFreeSquashDep, WS::Cam2, false},
    {Machine::SelectFreeScoreboard, "select-free-scoreboard",
     "sf-scoreboard", LP::SelectFreeScoreboard, WS::Cam2, false},
};

const MachineTraits &
traits(Machine m)
{
    return kMachineTable[size_t(m)];
}

} // namespace

const std::vector<Machine> &
allMachines()
{
    static const std::vector<Machine> kAll = [] {
        std::vector<Machine> ms;
        for (const MachineTraits &t : kMachineTable)
            ms.push_back(t.machine);
        return ms;
    }();
    return kAll;
}

const char *
machineName(Machine m)
{
    return traits(m).name;
}

const char *
machineToken(Machine m)
{
    return traits(m).token;
}

bool
parseMachine(std::string_view token, Machine &out)
{
    for (const MachineTraits &t : kMachineTable) {
        if (token == t.token) {
            out = t.machine;
            return true;
        }
    }
    return false;
}

pipeline::CoreParams
makeCoreParams(const RunConfig &cfg)
{
    pipeline::CoreParams p;

    // Table 1: 4-wide fetch/issue/commit, 128-entry ROB.
    p.fetchWidth = 4;
    p.renameWidth = 4;
    p.commitWidth = 4;
    p.robSize = 128;
    p.faults = cfg.faults;
    p.obs = cfg.obs;
    p.wrongPath = cfg.wrongPath;
    p.wrongPathDepth = cfg.wrongPathDepth;

    p.sched.policyId = cfg.policy;
    p.sched.numEntries = cfg.iqEntries;
    p.sched.issueWidth = 4;
    p.sched.dispatchDepth = 4;   // Disp Disp RF RF (Figure 2)
    p.sched.dl1HitLatency = p.mem.dl1.hitLatency;
    p.sched.replayPenalty = 2;   // Table 1 selective-replay penalty
    p.sched.fuCounts = {4, 2, 2, 2, 2};  // Table 1 functional units

    const MachineTraits &m = traits(cfg.machine);
    p.sched.policy = m.loop;
    p.sched.style = m.style;
    p.sched.mopEnabled = m.mop;

    p.extraFormationStages = p.sched.mopEnabled ? cfg.extraStages : 0;
    p.lastArrivalFilter = cfg.lastArrivalFilter;

    p.sched.maxMopSize = cfg.mopSize;
    p.sched.schedDepth = cfg.schedDepth;
    p.detector.maxMopSize = cfg.mopSize;
    p.detector.groupWidth = 4;          // 2-cycle scope on 4-wide
    p.detector.camRestrict = p.sched.style == sched::WakeupStyle::Cam2;
    p.detector.independentMops = cfg.independentMops;
    p.detector.cycleHeuristic = cfg.cycleHeuristic;
    p.detector.detectLatency = cfg.detectLatency;

    return p;
}

pipeline::SimResult
runBenchmark(const std::string &bench, const RunConfig &cfg,
             uint64_t insts)
{
    trace::WorkloadProfile prof = trace::profileFor(bench);
    trace::SyntheticSource src(prof);
    pipeline::CoreParams params = makeCoreParams(cfg);
    // Wrong-path synthesis reuses the workload's calibration seed so
    // the squashed stream is a deterministic function of (bench,
    // branch seq, branch pc) -- reruns and difftest repros see the
    // same wrong-path µops.
    params.wrongPathSeed = trace::wrongPathSeed(prof.seed);
    pipeline::OooCore core(params, src);
    return core.run(insts);
}

uint64_t
benchInsts(uint64_t fallback)
{
    const char *env = std::getenv("MOP_INSTS");
    if (!env || !*env)
        return fallback;
    return parseUintOption("MOP_INSTS", env, 1, uint64_t(1) << 40);
}

PaperRef
paperRef(const std::string &bench)
{
    // Table 2 base IPCs and the Figure 6/7 characterization labels.
    if (bench == "bzip") return {1.40, 1.53, 0.492, 2.2};
    if (bench == "crafty") return {1.45, 1.55, 0.509, 2.2};
    if (bench == "eon") return {1.86, 2.13, 0.278, 2.3};
    if (bench == "gap") return {1.73, 2.10, 0.487, 2.4};
    if (bench == "gcc") return {1.24, 1.29, 0.374, 2.2};
    if (bench == "gzip") return {1.79, 1.99, 0.563, 3.0};
    if (bench == "mcf") return {0.34, 0.38, 0.402, 2.4};
    if (bench == "parser") return {1.06, 1.12, 0.475, 2.5};
    if (bench == "perl") return {1.22, 1.33, 0.427, 2.5};
    if (bench == "twolf") return {1.36, 1.50, 0.477, 2.6};
    if (bench == "vortex") return {1.60, 1.75, 0.376, 2.7};
    if (bench == "vpr") return {1.48, 1.64, 0.447, 2.4};
    throw std::invalid_argument("unknown benchmark: " + bench);
}

} // namespace mop::sim
