#include "sim/config.hh"

#include <cstdlib>
#include <stdexcept>

#include "sim/cli_opts.hh"
#include "trace/profiles.hh"

namespace mop::sim
{

const char *
machineName(Machine m)
{
    switch (m) {
      case Machine::Base: return "base";
      case Machine::TwoCycle: return "2-cycle";
      case Machine::MopCam: return "MOP-2src";
      case Machine::MopWiredOr: return "MOP-wiredOR";
      case Machine::SelectFreeSquashDep: return "select-free-squash-dep";
      case Machine::SelectFreeScoreboard: return "select-free-scoreboard";
    }
    return "?";
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

    switch (cfg.machine) {
      case Machine::Base:
        p.sched.policy = sched::LoopPolicy::Atomic;
        break;
      case Machine::TwoCycle:
        p.sched.policy = sched::LoopPolicy::TwoCycle;
        break;
      case Machine::MopCam:
        p.sched.policy = sched::LoopPolicy::TwoCycle;
        p.sched.style = sched::WakeupStyle::Cam2;
        p.sched.mopEnabled = true;
        break;
      case Machine::MopWiredOr:
        p.sched.policy = sched::LoopPolicy::TwoCycle;
        p.sched.style = sched::WakeupStyle::WiredOr;
        p.sched.mopEnabled = true;
        break;
      case Machine::SelectFreeSquashDep:
        p.sched.policy = sched::LoopPolicy::SelectFreeSquashDep;
        break;
      case Machine::SelectFreeScoreboard:
        p.sched.policy = sched::LoopPolicy::SelectFreeScoreboard;
        break;
    }

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

void
validateRunConfig(const RunConfig &cfg)
{
    bool mop = cfg.machine == Machine::MopCam ||
               cfg.machine == Machine::MopWiredOr;
    if (mop && cfg.iqEntries == 1) {
        throw std::invalid_argument(
            std::string("--iq 1 deadlocks on ") + machineName(cfg.machine) +
            ": a pending MOP head fills the queue and its tail can never "
            "be admitted; use --iq 2 or more (or 0, unrestricted)");
    }
    bool select_free = cfg.machine == Machine::SelectFreeSquashDep ||
                       cfg.machine == Machine::SelectFreeScoreboard;
    if (select_free && cfg.policy == sched::PolicyId::LoadDelay) {
        throw std::invalid_argument(
            std::string("--policy loaddelay cannot run on ") +
            machineName(cfg.machine) +
            ": select-free machines broadcast before selection, when a "
            "load's delay is not yet known");
    }
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
