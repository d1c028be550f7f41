/**
 * @file
 * Simulator configuration presets: the Table 1 machine and the
 * scheduler configurations of Section 6.2, plus a convenience runner
 * used by examples, tests and the per-figure benchmark harnesses.
 */

#ifndef MOP_SIM_CONFIG_HH
#define MOP_SIM_CONFIG_HH

#include <string>

#include "pipeline/ooo_core.hh"

namespace mop::sim
{

/** The scheduler configurations evaluated in Section 6. */
enum class Machine : uint8_t
{
    Base,                  ///< ideally pipelined (atomic) scheduling
    TwoCycle,              ///< pipelined 2-cycle scheduling
    MopCam,                ///< macro-op, CAM wakeup (2 comparators)
    MopWiredOr,            ///< macro-op, wired-OR wakeup (3 sources)
    SelectFreeSquashDep,   ///< Brown et al., squash-dep
    SelectFreeScoreboard,  ///< Brown et al., scoreboard
};

const char *machineName(Machine m);

struct RunConfig
{
    Machine machine = Machine::Base;
    /** Scheduler behaviour policy (sched/policy.hh). Paper is the
     *  default and leaves every result byte-identical to the
     *  pre-policy simulator; LoadDelay rejects the select-free
     *  machines (the Scheduler constructor throws); StaticFuse caps
     *  MOPs at decode-fused pairs and bypasses the detector. Folded
     *  into result fingerprints only when not Paper, so existing
     *  cached results keep their keys. */
    sched::PolicyId policy = sched::PolicyId::Paper;
    /** Issue-queue entries; 0 = unrestricted (Table 2 / Figure 14). */
    int iqEntries = 32;
    /** Extra MOP formation pipeline stages (Figure 15: 0, 1 or 2). */
    int extraStages = 0;
    /** MOP detection latency in cycles (Section 6.2 ablation). */
    int detectLatency = 3;
    bool lastArrivalFilter = true;   ///< Section 5.4.2
    bool independentMops = true;     ///< Section 5.4.1
    bool cycleHeuristic = true;      ///< false = precise (Section 5.1.1)
    /** Maximum instructions per MOP (Section 4.3 future work). */
    int mopSize = 2;
    /** Wakeup+select pipeline depth override (0 = policy default);
     *  e.g. 3-cycle scheduling with 3-op MOPs. */
    int schedDepth = 0;
    /** True wrong-path execution (--wrong-path): on a detected
     *  mispredict the core fetches, dispatches and issues a
     *  deterministic synthesized wrong-path stream that competes for
     *  IQ slots and FU grants until the branch resolves and squashes
     *  it. Off (the default) keeps the original fetch-stall model and
     *  every result byte-identical; folded into result fingerprints
     *  only when enabled, so existing cached results keep their
     *  keys. The synthesis seed derives from the benchmark's profile
     *  seed (runBenchmark), so runs stay reproducible per workload. */
    bool wrongPath = false;
    /** Max wrong-path µops fetched per mispredict episode. */
    int wrongPathDepth = 64;
    /** Observability: stall attribution, occupancy histograms and the
     *  cycle-event trace (--trace-out / --report breakdown). Folded
     *  into result fingerprints only when enabled, so existing cached
     *  results keep their keys. */
    obs::ObsConfig obs;
    /** Deterministic fault campaign (--inject/--seed); empty = off. */
    verify::FaultSpec faults;
    /** Dump a pipeline snapshot + event ring on fatal errors. */
    bool dumpOnError = false;
    /** Debug: trace one tag's lifecycle to stderr (-2 = off). Seeded
     *  from MOP_TRACE_TAG once at CLI startup, never read by workers;
     *  excluded from result fingerprints (pure observability). */
    sched::Tag traceTag = -2;
};

/** Build the Table 1 machine for one scheduler configuration. */
pipeline::CoreParams makeCoreParams(const RunConfig &cfg);

/**
 * Reject configurations that cannot run to completion, with
 * std::invalid_argument naming the options (mopsim exits 2):
 *  - a MOP machine with a 1-entry issue queue: a pending MOP head
 *    fills the queue and its tail is never admitted (tails need a
 *    free entry, as in every figure run), so the run deadlocks;
 *  - the load-delay policy on a select-free machine, which the
 *    scheduler refuses at construction.
 */
void validateRunConfig(const RunConfig &cfg);

/** Run @p insts instructions of a SPEC CINT2000-like workload. */
pipeline::SimResult runBenchmark(const std::string &bench,
                                 const RunConfig &cfg, uint64_t insts);

/** Per-run instruction budget for harnesses; reads MOP_INSTS from the
 *  environment (default @p fallback). */
uint64_t benchInsts(uint64_t fallback = 300000);

/** Reference values transcribed from the paper, used by harnesses and
 *  EXPERIMENTS.md to print paper-vs-measured columns. */
struct PaperRef
{
    double baseIpc32 = 0;         ///< Table 2, 32-entry issue queue
    double baseIpcUnrestricted = 0;  ///< Table 2, unrestricted
    double valueGenPct = 0;       ///< Figure 6 "% total insts" label
    double avgInsts8x = 0;        ///< Figure 7 "avg # insts in 8x MOP"
};

PaperRef paperRef(const std::string &bench);

} // namespace mop::sim

#endif // MOP_SIM_CONFIG_HH
