/**
 * @file
 * Common types for the scheduling substrate.
 */

#ifndef MOP_SCHED_TYPES_HH
#define MOP_SCHED_TYPES_HH

#include <array>
#include <cstdint>
#include <limits>

#include "isa/uop.hh"

namespace mop::sched
{

using Cycle = uint64_t;
constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/**
 * Dependence-tracking tag. In conventional configurations this is a
 * physical-register-like identifier, one per destination; in macro-op
 * configurations it is a MOP ID (one per MOP, shared by both grouped
 * instructions; Section 5.2.2 of the paper).
 */
using Tag = int32_t;
constexpr Tag kNoTag = -1;

/** Scheduling-loop organization (Section 6.2 configurations). This is
 *  the loop-pipelining axis (how deep wakeup+select is pipelined and
 *  how collisions are repaired), orthogonal to the SchedPolicy
 *  behaviour interface (sched/policy.hh) which decides speculation,
 *  formation eligibility and replay semantics. */
enum class LoopPolicy : uint8_t
{
    /** "Base": ideally pipelined scheduling logic, conceptually atomic
     *  wakeup+select with one extra pipeline stage. Dependent
     *  single-cycle ops issue back-to-back. */
    Atomic,
    /** Pipelined wakeup and select: minimum scheduler-visible
     *  dependence-edge latency of two cycles. Macro-op scheduling is
     *  built on top of this policy. */
    TwoCycle,
    /** Select-free (Brown et al. [8]), squash-dep variant: collision
     *  victims' speculative wakeups are recalled ideally, so no pileup
     *  victims exist. */
    SelectFreeSquashDep,
    /** Select-free, scoreboard variant: mis-woken dependents issue and
     *  are caught by a register scoreboard in the RF stage, then
     *  selectively replayed. */
    SelectFreeScoreboard,
};

/**
 * Scheduler behaviour policies (see sched/policy.hh for the interface
 * and registry). Paper is the reproduction's native rule set; the two
 * alternatives reuse the same issue-queue machinery with different
 * speculation/formation decisions.
 */
enum class PolicyId : uint8_t
{
    /** Kim & Lipasti: dynamic MOP detection, speculative load wakeup
     *  with selective replay on a miss. */
    Paper,
    /** Load-delay tracking (Diavastos & Carlson): consumers of a load
     *  are woken non-speculatively from a per-load delay table, so a
     *  DL1 miss causes no recall and no replay. */
    LoadDelay,
    /** Static-pair fusion (Celio et al., RISC-V macro-op fusion):
     *  pairs are decided at decode from a fixed opcode-pattern table;
     *  the dynamic detector and pointer cache are bypassed and MOPs
     *  are capped at two ops. */
    StaticFuse,
};

constexpr int kNumPolicyIds = int(PolicyId::StaticFuse) + 1;

/** Wakeup-array flavour; constrains MOP source-operand counts. */
enum class WakeupStyle : uint8_t
{
    Cam2,     ///< CAM with two tag comparators per entry
    WiredOr,  ///< dependence bit-vectors; three sources per MOP entry
};

/** Maximum ops one issue-queue entry can hold (MOP size cap). The
 *  paper evaluates pairs and leaves larger MOPs as future work
 *  (Section 4.3); this implementation supports up to 4. */
constexpr int kMaxMopOps = 4;

/** Maximum source tags one issue-queue entry can track (wired-OR
 *  style; the CAM style is limited to 2 by its comparators). */
constexpr int kMaxEntrySrcs = 4;

/** One op slot inside an issue-queue entry (a MOP holds two). */
struct SchedOp
{
    uint64_t seq = 0;       ///< dynamic µop id, pipeline's handle
    isa::OpClass op = isa::OpClass::IntAlu;
    Tag dst = kNoTag;       ///< producing tag (shared for MOP pairs)
    std::array<Tag, 2> src = {kNoTag, kNoTag};
    /** Speculative wrong-path µop: competes for entries, grants and
     *  buses like any other op but is destined to be squashed when
     *  the mispredicted branch resolves. Purely observational in the
     *  scheduler — wakeup/select/replay timing rules are identical —
     *  so the differential oracle needs no wrong-path-specific
     *  behaviour. */
    bool wrongPath = false;
};

/** Per-µop execution report delivered by the scheduler each cycle. */
struct ExecEvent
{
    uint64_t seq = 0;
    Cycle ready = 0;       ///< entry last became fully ready (wakeup)
    Cycle issued = 0;      ///< select cycle
    Cycle execStart = 0;   ///< first execution cycle
    Cycle complete = 0;    ///< value available at start of this cycle
    bool isLoad = false;
    bool wasMiss = false;
    bool replayed = false; ///< entry was selectively replayed >= once
};

/**
 * Per-cycle scheduler introspection for the observability layer
 * (src/obs). Filled by Scheduler::collectStallSnapshot() after tick();
 * every non-issued entry falls into exactly one waiting bucket, so the
 * stall-attribution priority ladder can charge each issue slot to a
 * single cause.
 */
struct StallSnapshot
{
    int issuedSlots = 0;   ///< slots doing useful work (incl. MOP debt)
    int readyLosers = 0;   ///< ready entries that lost select (width/FU)
    int missWait = 0;      ///< waiting on an outstanding DL1-miss wakeup
    int replayWait = 0;    ///< replayed entries serving their penalty
    int wakeupWait = 0;    ///< waiting on any other source operand
    int pendingHeads = 0;  ///< MOP heads awaiting their tail
    /** Slots consumed by wrong-path entries this cycle: issued
     *  wrong-path entries plus one per waiting wrong-path entry.
     *  Wrong-path entries never appear in the other buckets. */
    int wrongPath = 0;
};

struct SchedParams
{
    LoopPolicy policy = LoopPolicy::Atomic;
    /** Behaviour policy (speculation / formation / replay rules). */
    PolicyId policyId = PolicyId::Paper;
    WakeupStyle style = WakeupStyle::Cam2;
    bool mopEnabled = false;

    /** Wakeup+select pipeline depth: the minimum scheduler-visible
     *  dependence-edge latency. 0 = derive from the policy (1 for
     *  Atomic/select-free, 2 for TwoCycle). A MOP of N ops covers an
     *  N-deep scheduling loop (Section 4.3's future work). */
    int schedDepth = 0;

    /** Maximum instructions per MOP entry (2..kMaxMopOps). */
    int maxMopSize = 2;

    int numEntries = 32;   ///< 0 = unrestricted (512 entries)
    int issueWidth = 4;
    /** Cycles from select to first execution cycle (Disp Disp RF RF). */
    int dispatchDepth = 4;
    /** Assumed (speculative) DL1 hit latency for load consumers. */
    int dl1HitLatency = 2;
    /** Extra issue delay applied to selectively replayed ops. */
    int replayPenalty = 2;

    /** Functional-unit counts, Table 1. */
    std::array<int, isa::kNumFuKinds> fuCounts = {4, 2, 2, 2, 2};

    /** Forward-progress watchdog (cycles without issue/commit). */
    uint64_t watchdogCycles = 100000;

    /** Debug: dump one tag's lifecycle to stderr. -2 disables (kNoTag
     *  destinations must never match). Hoisted from the MOP_TRACE_TAG
     *  environment read so sweep worker threads never touch the
     *  environment; mopsim seeds it from the env once at startup. */
    Tag traceTag = -2;
};

} // namespace mop::sched

#endif // MOP_SCHED_TYPES_HH
