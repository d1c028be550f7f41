/**
 * @file
 * Differential testing of sched::Scheduler against verify::RefScheduler.
 *
 * A ScheduleScript is a seed-reproducible program for the scheduler's
 * public API: a list of items (op inserts, MOP tails, squashes, idle
 * bubbles, pending-window closures) with producer references expressed
 * as *script indices*, not tags. The lockstep driver assigns tags and
 * sequence numbers while feeding the identical call stream to both
 * models, ticking them in lockstep and comparing every observable:
 * completed ExecEvents (all fields), MOP issue reports, occupancy,
 * insert/append admission decisions, and final counters.
 *
 * On divergence the script is shrunk with ddmin to a minimal item set
 * and formatted as a paste-ready C++ test body (see formatRepro).
 */

#ifndef MOP_VERIFY_DIFFTEST_HH
#define MOP_VERIFY_DIFFTEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sched/types.hh"
#include "verify/oracle.hh"

namespace mop::verify
{

/** One step of a scheduler-API program. */
struct ScriptItem
{
    enum class Kind : uint8_t
    {
        Op,            ///< insert (or appendTail when head >= 0)
        Squash,        ///< squashAfter(seq of item `ref`)
        Bubble,        ///< tick `cycles` idle cycles
        ClearPending,  ///< close the pending window of head `ref`
    };

    Kind kind = Kind::Op;

    // Kind::Op
    isa::OpClass op = isa::OpClass::IntAlu;
    /** Script indices of producer items (-1 = no source). Tails may
     *  reference their own head (an internal MOP edge). */
    int src0 = -1;
    int src1 = -1;
    /** Script index of the pending MOP head this op joins; -1 = solo
     *  insert (or a new head when expectTail is set). */
    int head = -1;
    bool expectTail = false;   ///< open a pending MOP window
    bool moreComing = false;   ///< tail keeps the window open
    /** Loads only: memory latency handed to both models through the
     *  shared LoadLatencyFn; > dl1HitLatency means a miss. */
    int memLat = 0;
    /** Wrong-path op (SchedOp::wrongPath): part of a mispredict
     *  episode the generator always terminates with a Squash at the
     *  episode's branch anchor. Observational in both models -- the
     *  flag must never change timing, which is exactly what running
     *  these scripts through the lockstep comparator proves. */
    bool wrongPath = false;

    // Kind::Squash / Kind::ClearPending
    int ref = -1;

    // Kind::Bubble
    int cycles = 1;
};

/** A complete difftest input: scheduler configuration plus program. */
struct ScheduleScript
{
    sched::SchedParams params;
    std::vector<ScriptItem> items;
};

/** Knobs for makeRandomScript. */
struct ScriptConfig
{
    int numOps = 60;          ///< target op count
    bool faults = true;       ///< load misses, squashes, abandoned heads
    /** Rotate loop policy/style/mopSize/queue-shape from the seed. */
    bool sweepParams = true;
    /** Behaviour policy every generated script runs under. A loop
     *  organization sched::configError rejects for it (load-delay on
     *  select-free) is folded onto Atomic/TwoCycle, and generated MOPs
     *  respect the policy's size cap (static-fuse: pairs). */
    sched::PolicyId policy = sched::PolicyId::Paper;
    /** Weave mispredict episodes through the script: a branch anchor,
     *  a wrong-path burst (missing loads whose replay windows the
     *  squash lands inside; pending MOP heads whose tails are never
     *  fetched), an optional bubble, then a Squash at the anchor.
     *  Mirrors what --wrong-path makes the core do to the scheduler. */
    bool wrongPath = false;
};

struct DivergenceReport
{
    bool diverged = false;
    /** The drain guard stopped an agreeing run that never emptied
     *  (both models stalled alike); diverged stays false. */
    bool stalled = false;
    sched::Cycle cycle = 0;
    std::string what;    ///< comparator channel, e.g. "completed.seq"
    std::string detail;  ///< human-readable production-vs-oracle values
};

/** Deterministically generate an adversarial script from @p seed. */
ScheduleScript makeRandomScript(uint64_t seed,
                                const ScriptConfig &cfg = ScriptConfig{});

/**
 * Feed @p script to a production Scheduler and a RefScheduler in
 * lockstep. Returns true when the models agree on every observable;
 * otherwise fills @p rep with the first divergence. @p quirks lets
 * tests re-enable a historical production bug inside the oracle to
 * prove the fuzzer catches it (mutation testing). With @p skip_idle the
 * production model follows the core's event-driven recipe — after each
 * tick it asks nextEventCycle() and, when the answer lies beyond the
 * next cycle, skips the gap (noteIdleCycles per skipped tick) while the
 * oracle keeps ticking every cycle; any oracle event inside a skipped
 * window then surfaces as a divergence, differentially verifying the
 * next-event invariant.
 */
bool runLockstep(const ScheduleScript &script,
                 const RefQuirks &quirks = RefQuirks{},
                 DivergenceReport *rep = nullptr,
                 bool skip_idle = false);

/**
 * ddmin over the script's item list: find a small sub-script that
 * still diverges under @p quirks. The result is canonicalized
 * (survivor items compacted, producer references re-indexed).
 */
ScheduleScript shrinkScript(const ScheduleScript &script,
                            const RefQuirks &quirks = RefQuirks{},
                            bool skip_idle = false);

/** Count Kind::Op items (the "<N-op repro" metric). */
int scriptOpCount(const ScheduleScript &script);

/** Render @p script as a paste-ready C++ test body. */
std::string formatRepro(const ScheduleScript &script,
                        const DivergenceReport &rep);

/**
 * Fuzzing campaign: run @p n scripts derived from @p baseSeed. Prints
 * one line per divergence (seed, first mismatch) plus the shrunken
 * repro; returns the number of diverging scripts. When @p reproPath is
 * non-empty the first shrunken repro is also written there.
 */
int runDifftestCampaign(int n, uint64_t baseSeed,
                        const std::string &reproPath = "",
                        bool skip_idle = false,
                        sched::PolicyId policy = sched::PolicyId::Paper,
                        bool wrong_path = false);

} // namespace mop::verify

#endif // MOP_VERIFY_DIFFTEST_HH
