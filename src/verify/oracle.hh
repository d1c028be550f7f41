/**
 * @file
 * Reference scheduler ("oracle") for differential testing.
 *
 * RefScheduler is a deliberately slow transcription of the paper's
 * wakeup/select/replay semantics, written from first principles:
 *
 *  - per-cycle O(n^2) scans over a flat entry list — no ready/valid
 *    bitmaps, no cached readiness invariants;
 *  - pending events (broadcast deliveries, load-miss discoveries,
 *    collision repairs, completions) live in plain lists that are
 *    re-scanned every cycle — no event rings;
 *  - entries are identified by a monotonically increasing uid and
 *    their queued events are erased when the entry dies — no
 *    generation counters.
 *
 * It consumes the same insert/appendTail/clearPending/squashAfter/tick
 * call stream as the production sched::Scheduler and must agree with
 * it cycle-for-cycle on every issue, wakeup, recall, replay and
 * completion (see verify/difftest.hh for the lockstep driver).
 *
 * Every rule is annotated with the paper section it transcribes:
 *
 *  - wakeup/select timing per policy ... Section 6.2 / Figure 5
 *  - MOP entries as non-pipelined N-cycle units sharing one tag,
 *    one source union and one select ....... Sections 3, 5.2.2, 5.3.1
 *  - pending-tail insertion window ................ Section 5.3 / Fig 11
 *  - squash splitting a MOP: surviving prefix stays, tail-contributed
 *    sources forced ready ........................... Section 5.3.2
 *  - select-free speculative wakeup, collision detection, dependent
 *    squashing / scoreboard pileup repair .... Section 6.2 (Brown [8])
 *  - speculative load scheduling with selective replay .... Section 2.2
 */

#ifndef MOP_VERIFY_ORACLE_HH
#define MOP_VERIFY_ORACLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sched/types.hh"

namespace mop::verify
{

/** Reported at select time for each issued MOP entry; mirrors
 *  sched::MopIssue field-for-field. */
struct RefMopIssue
{
    uint64_t headSeq = 0;
    uint64_t tailSeq = 0;
    int numOps = 2;
    bool tailLastArriving = false;
};

/**
 * Deliberately reintroduced historical bugs. A quirked oracle emulates
 * the pre-fix production behaviour, so the difftest fuzzer can
 * demonstrate that it finds and shrinks each bug (mutation testing of
 * the oracle/production pair without shipping a broken scheduler).
 */
struct RefQuirks
{
    /** Select checks FU availability only for ops[0]/ops[1], but issue
     *  reserves every op of the MOP (the FU overbooking bug). */
    bool fuHeadOnlyCheck = false;
    /** Select checks each MOP op's FU availability independently,
     *  ignoring the unit occupancy an earlier unpipelined op (divide)
     *  of the same entry commits, so a granted div+div pair can fail
     *  its reservation (the intra-entry FU double-booking bug fixed by
     *  FuPool::availableSeq). */
    bool fuIndependentCheck = false;
    /** squashAfter shrinks issued MOPs without re-checking completion
     *  or broadcast/value timing (the squashed-MOP entry-leak bug). */
    bool squashLeak = false;
    /** Entry completion is judged by a bare count of completion events
     *  instead of per-op truth, so a squash-dropped tail that
     *  completed before the squash stands in for a surviving op still
     *  in flight and the entry is reaped early (the premature-free
     *  bug). */
    bool countedCompletion = false;
    /** Load-delay policy: the delay-table entry is never invalidated
     *  between loads, so each load is scheduled with the *previous*
     *  load's latency (the stale-delay-table bug; the first load sees
     *  the hit latency). Only meaningful under PolicyId::LoadDelay. */
    bool staleLoadDelay = false;
    /** Static-fuse policy: squashAfter treats a decode-fused pair as
     *  indivisible, so a tail squashed out from under its head (the
     *  pair was fused across a taken branch) stays fused and still
     *  completes. Only meaningful under PolicyId::StaticFuse. */
    bool fusedPairSurvivesSquash = false;
    /** Unlike the others, this quirk mutates the *lockstep driver's*
     *  cycle-skip fold, not the oracle: squashAfter no longer
     *  invalidates the production side's provably-idle window (the
     *  core bug --wrong-path squashes would expose if maybeSkipIdle
     *  ignored them). A squash re-schedules broadcasts and forces
     *  sources ready, so entries can issue *inside* the stale window
     *  while the production model is not ticking; the oracle, ticking
     *  every cycle, sees them -- a completed.count divergence. Only
     *  meaningful with skip_idle. */
    bool skipFoldIgnoresSquash = false;
};

class RefScheduler
{
  public:
    using LoadLatencyFn = std::function<int(uint64_t seq)>;

    explicit RefScheduler(const sched::SchedParams &params,
                          const RefQuirks &quirks = RefQuirks{});

    void setLoadLatencyFn(LoadLatencyFn fn) { loadLatency_ = std::move(fn); }

    bool canInsert(int needed = 1) const;
    /** Returns an oracle-side handle (not comparable to the production
     *  entry index; the lockstep driver maps one to the other). */
    int insert(const sched::SchedOp &op, sched::Cycle now,
               bool expect_tail = false);
    bool appendTail(int handle, const sched::SchedOp &tail,
                    sched::Cycle now, bool more_coming = false);
    void clearPending(int handle);
    void tick(sched::Cycle now, std::vector<sched::ExecEvent> &completed,
              std::vector<RefMopIssue> *mop_issues = nullptr);
    void squashAfter(uint64_t seq, sched::Cycle now);

    int occupancy() const;
    int capacity() const { return capacity_; }

    uint64_t issuedOps() const { return issuedOps_; }
    uint64_t issuedEntries() const { return issuedEntries_; }
    uint64_t insertedOps() const { return insertedOps_; }
    uint64_t insertedEntries() const { return insertedEntries_; }
    uint64_t replayInvalidations() const { return replays_; }
    uint64_t collisions() const { return collisions_; }
    uint64_t pileupKills() const { return pileupKills_; }

  private:
    /** One issue-queue entry; uid identifies it for queued events. */
    struct REntry
    {
        uint64_t uid = 0;
        bool live = false;
        bool pending = false;
        bool issued = false;
        bool collided = false;
        bool replayed = false;
        int numOps = 0;
        std::array<sched::SchedOp, sched::kMaxMopOps> ops;
        sched::Tag dstTag = sched::kNoTag;

        int numSrcs = 0;
        std::array<sched::Tag, sched::kMaxEntrySrcs> srcTags{};
        std::array<bool, sched::kMaxEntrySrcs> srcReady{};
        std::array<bool, sched::kMaxEntrySrcs> srcFromTail{};
        std::array<sched::Cycle, sched::kMaxEntrySrcs> srcReadyAt{};

        uint64_t minSeq = 0;
        uint64_t maxSeq = 0;
        uint64_t age = 0;
        sched::Cycle minIssue = 0;
        sched::Cycle readyAt = sched::kNoCycle;
        sched::Cycle issueCycle = 0;
        /** Per-op completion truth (not a count): squashAfter can
         *  shrink numOps after later ops already completed. */
        std::array<bool, sched::kMaxMopOps> opDone{};
        std::array<sched::Cycle, sched::kMaxMopOps> opComplete{};
    };

    /** A scheduled tag broadcast (at most one outstanding per entry). */
    struct RBcast
    {
        uint64_t uid = 0;
        sched::Tag tag = sched::kNoTag;
        sched::Cycle fire = 0;
        bool speculative = false;
    };

    struct RCompletion
    {
        uint64_t uid = 0;
        int opIdx = 0;
        sched::Cycle at = 0;
        sched::ExecEvent ev;
    };

    struct RMiss
    {
        uint64_t uid = 0;
        sched::Cycle discover = 0;
        sched::Cycle correctedBcast = 0;
    };

    struct RRecall
    {
        uint64_t uid = 0;
        sched::Cycle at = 0;
    };

    struct TagState
    {
        bool ready = false;
        sched::Cycle readyAt = sched::kNoCycle;
        sched::Cycle valueReady = sched::kNoCycle;
    };

    int schedDepthVal() const;
    int schedLatency(const REntry &e) const;
    static int execLatency(const sched::SchedOp &op);
    bool fullyReady(const REntry &e) const;
    /** Completion truth for the entry: every surviving op done (or,
     *  under the countedCompletion quirk, the historical count test). */
    bool entryComplete(const REntry &e) const;

    REntry *byUid(uint64_t uid);
    REntry *byHandle(int handle);
    TagState &tag(sched::Tag t);
    bool tagIsReady(sched::Tag t) const;
    sched::Cycle tagReadyAt(sched::Tag t) const;

    void freeEntry(REntry &e);
    void eraseEvents(uint64_t uid);
    void scheduleBcast(REntry &e, sched::Cycle fire, bool speculative);
    void cancelBcast(uint64_t uid);
    bool hasBcast(uint64_t uid) const;
    void deliverTag(sched::Tag t, sched::Cycle now);
    void recallTag(sched::Tag t, sched::Cycle now);
    void invalidateEntry(REntry &e, sched::Cycle now);
    void becameReady(REntry &e, sched::Cycle now);
    bool fuAvailable(const sched::SchedOp &op, sched::Cycle c) const;
    /** Sequence-aware FU check mirroring FuPool::availableSeq: op k of
     *  the entry initiates at @p start + k, and the occupancy an
     *  earlier unpipelined op of the same entry commits is visible to
     *  the later checks. */
    bool fuAvailableSeq(const REntry &e, sched::Cycle start) const;
    void fuReserve(const sched::SchedOp &op, sched::Cycle c);
    /** Memoized per-load delay (load-delay policy); applies the
     *  staleLoadDelay quirk. */
    int loadDelayOf(uint64_t seq);
    int knownLoadDelay(uint64_t seq) const;
    void issueEntry(REntry &e, sched::Cycle now,
                    std::vector<RefMopIssue> *mop_issues);
    void doSelect(sched::Cycle now, std::vector<RefMopIssue> *mop_issues);
    /** Free an issued entry once its surviving ops completed and its
     *  broadcast has left the bus (completion, delivery and squash all
     *  call it, as in production). */
    void reapIfComplete(REntry &e);

    sched::SchedParams params_;
    RefQuirks quirks_;
    LoadLatencyFn loadLatency_;
    int capacity_ = 0;

    /** Policy answer resolved at construction (sched/policy.hh). */
    bool loadsSpeculate_ = true;
    /** Load-delay policy: seq -> delay the scheduler predicted. */
    std::map<uint64_t, int> loadDelay_;
    /** staleLoadDelay quirk: the latency the previous load sampled. */
    int lastLoadLat_ = 0;

    /** All entries ever allocated; dead ones stay with live=false and
     *  are scanned over anyway (this model favours simplicity). */
    std::vector<REntry> entries_;
    uint64_t nextUid_ = 1;
    uint64_t nextAge_ = 0;

    std::vector<RBcast> bcasts_;
    std::vector<RCompletion> completions_;
    std::vector<RMiss> misses_;
    std::vector<RRecall> recalls_;

    std::map<sched::Tag, TagState> tags_;

    /** Functional units, recomputed the slow way: per-kind initiation
     *  counts per cycle plus per-unit busy-until for unpipelined ops. */
    std::array<std::map<sched::Cycle, int>, isa::kNumFuKinds> fuInit_;
    std::array<std::vector<sched::Cycle>, isa::kNumFuKinds> fuBusy_;
    /** Issue slots consumed by MOP sequencing at a future cycle. */
    std::map<sched::Cycle, int> slotDebt_;

    uint64_t issuedOps_ = 0;
    uint64_t issuedEntries_ = 0;
    uint64_t insertedOps_ = 0;
    uint64_t insertedEntries_ = 0;
    uint64_t replays_ = 0;
    uint64_t collisions_ = 0;
    uint64_t pileupKills_ = 0;
};

} // namespace mop::verify

#endif // MOP_VERIFY_ORACLE_HH
