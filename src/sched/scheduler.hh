/**
 * @file
 * The out-of-order instruction scheduler: issue queue, wakeup, select,
 * speculative load scheduling with selective replay, and the four
 * scheduling-loop organizations the paper evaluates (Section 6.2):
 *
 *  - Atomic ("base"): ideally pipelined scheduling logic; dependent
 *    single-cycle operations issue in consecutive cycles.
 *  - TwoCycle: pipelined wakeup and select; the scheduler-visible
 *    latency of every dependence edge is at least two cycles.
 *  - SelectFreeSquashDep / SelectFreeScoreboard: Brown et al.'s
 *    select-free scheduling; wakeup is speculative (performed at
 *    ready time, before selection) and collisions are repaired by
 *    dependent-squashing or by a register scoreboard at RF.
 *
 * Macro-op support: an issue-queue entry can hold two single-cycle
 * operations that behave as one non-pipelined two-cycle unit: one
 * source-operand union, one tag broadcast, one select; the second op
 * executes one cycle after the first through the same issue slot
 * (Sections 3 and 5.3.1 of the paper). MOP entries require the
 * TwoCycle policy.
 *
 * Timing model. An entry selected at cycle s begins execution at
 * s + dispatchDepth (the Disp/Disp/RF/RF stages of Figure 2) and its
 * value is available at execStart + latency. Consumers woken by a
 * broadcast delivered at cycle w can be selected at w. The broadcast
 * for an entry issued at s is delivered at s + L where L is the
 * scheduler-visible latency of the policy; this reproduces exactly the
 * wakeup/select timings of Figure 5.
 *
 * Loads are scheduled speculatively assuming a DL1 hit. On a miss,
 * discovered when address generation completes, the speculative
 * broadcast is recalled: ready bits set by it are cleared transitively
 * and consumers that already issued inside the load shadow are
 * selectively invalidated and replayed with a penalty (Table 1's
 * "speculative scheduling with selective replay, 2-cycle penalty").
 *
 * Scheduler behaviour beyond the loop organization is factored into
 * the SchedPolicy interface (sched/policy.hh): speculative-wakeup
 * decision, MOP-formation eligibility, select priority and replay
 * semantics. SchedParams::policyId picks the implementation; its
 * answers are cached as plain bools at construction, so the Paper
 * policy is byte-identical to the pre-interface scheduler. Under
 * PolicyId::LoadDelay the load paragraph above is replaced: the
 * broadcast for a load entry fires when its value is really ready
 * (predicted from the load's delay, sampled at issue) and no recall or
 * replay ever happens.
 *
 * Tags come from a bounded pool the scheduler owns (sched/tag_pool.hh):
 * the queue-stage formation allocates them and every holder of a tag
 * keeps a reference, so a tag is recycled once nothing names it and
 * the per-tag state planes never outgrow the bound.
 */

#ifndef MOP_SCHED_SCHEDULER_HH
#define MOP_SCHED_SCHEDULER_HH

#include <functional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sched/event_calendar.hh"
#include "sched/fu_pool.hh"
#include "sched/tag_pool.hh"
#include "sched/types.hh"
#include "stats/stats.hh"
#include "verify/event_ring.hh"
#include "verify/fault_injector.hh"
#include "verify/integrity.hh"

namespace mop::sched
{

/** Thrown by the forward-progress watchdog (e.g. MOP-induced cycles). */
class DeadlockError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Reported at select time for each issued MOP entry (Section 5.4.2). */
struct MopIssue
{
    uint64_t headSeq = 0;
    uint64_t tailSeq = 0;  ///< last op of the MOP
    int numOps = 2;
    /** The operand that triggered issue belongs to the tail only:
     *  grouping delayed consumers of the head (Figure 12b). */
    bool tailLastArriving = false;
};

class Scheduler
{
  public:
    /** Returns the memory latency (beyond address generation) of the
     *  load with dynamic id @p seq; > dl1HitLatency means a miss. */
    using LoadLatencyFn = std::function<int(uint64_t seq)>;

    /** Buckets of the consumer index (a power of two): tags t and
     *  t + kConsumerBuckets share one bucket. */
    static constexpr unsigned kConsumerBuckets = 256;

    explicit Scheduler(const SchedParams &params);

    void setLoadLatencyFn(LoadLatencyFn fn) { loadLatency_ = std::move(fn); }

    // --- tag pool --------------------------------------------------------

    /** Pool size for a queue of @p entries: two rename maps (the table
     *  and its wrong-path checkpoint) of kNumLogicalRegs slots, plus a
     *  destination and kMaxEntrySrcs sources per entry -- every place
     *  a live tag can be named. 288 tags at 32 entries. */
    static size_t tagBoundFor(size_t entries);

    /**
     * Hand out a free tag with no references yet; its ready, value,
     * ready-at and miss-pending state is that of a never-used tag. An
     * empty pool is an integrity violation (TagLiveness): the bound
     * covers every name a live tag can have.
     */
    Tag
    allocTag()
    {
        Tag t = pool_.alloc();
        if (t == kNoTag || t == params_.traceTag) [[unlikely]]
            allocTagSlow(t);
        // A recycled tag starts over in the state of a never-used one,
        // so nothing of its previous life can leak into its next.
        const size_t i = size_t(t);
        const uint64_t keep = ~(uint64_t(1) << (i & 63));
        tagReadyBits_[i >> 6] &= keep;
        tagMissPending_[i >> 6] &= keep;
        tagValueReady_[i] = kNoCycle;
        tagReadyAt_[i] = kNoCycle;
        return t;
    }
    /** Count one more reference to pool tag @p t. Entries hold their
     *  own references; these are for holders outside the scheduler. */
    void retainTag(Tag t) { pool_.retain(t); }
    /** Drop one reference to @p t; the tag is recycled with its last. */
    void
    releaseTag(Tag t)
    {
        if (!pool_.release(t)) [[unlikely]]
            unbalancedRelease(t);
    }
    /** Register the holder whose references the audit recounts (not
     *  owned; one at a time). */
    void setTagHolder(const TagHolder *h) { tagHolder_ = h; }
    const TagPool &tagPool() const { return pool_; }
    /** Tags the state planes can track. Sized to the pool bound at
     *  construction; only caller-chosen tags above it grow it. */
    size_t tagCapacity() const { return tagCap_; }

    /** True if @p needed more entries can be inserted this cycle. */
    bool canInsert(int needed = 1) const;

    /**
     * Insert a single op (or a MOP head) during cycle @p now; it is
     * selectable from now+1. If @p expect_tail, the entry is marked
     * pending and will not request selection until the tail arrives
     * (Figure 11's insertion policy).
     * @return the entry index.
     */
    int insert(const SchedOp &op, Cycle now, bool expect_tail = false);

    /** Join the next MOP op to a pending entry. Sources are unioned;
     *  internal edges (sources naming the MOP's own tag) are elided.
     *  With @p more_coming the entry stays pending for a further link
     *  (MOP sizes > 2, Section 4.3). Returns false if the union
     *  exceeds the wakeup style's source budget or the entry is full
     *  (caller bug: detection must prevent this). */
    bool appendTail(int entry, const SchedOp &tail, Cycle now,
                    bool more_coming = false);

    /** The expected tail never arrived; the head becomes a plain op. */
    void clearPending(int entry);

    /**
     * Advance one cycle. Delivers wakeups, selects and issues, applies
     * recalls/replays, and reports per-op completions in @p completed
     * (entries are freed as their ops complete).
     */
    void tick(Cycle now, std::vector<ExecEvent> &completed,
              std::vector<MopIssue> *mop_issues = nullptr);

    /** Squash every op younger than @p seq (exclusive) during cycle
     *  @p now. MOP entries split by the squash point keep their head;
     *  tail-contributed source operands are forced ready
     *  (Section 5.3.2). Issued entries shrunken by the split get their
     *  value/broadcast timing recomputed from the surviving prefix. */
    void squashAfter(uint64_t seq, Cycle now);

    // --- introspection -------------------------------------------------
    int occupancy() const { return occupied_; }
    int capacity() const { return int(state_.size()); }
    bool tagIsReady(Tag t) const;
    /** True if entry @p idx is in the consumer-index bucket of tag
     *  @p t, i.e. a candidate the wakeup/recall walks for @p t visit. */
    bool consumerIndexed(Tag t, int idx) const;

    // --- event-driven cycle skipping -----------------------------------

    /**
     * Earliest cycle > @p now at which this scheduler's state could
     * change on its own: the next pending broadcast / completion /
     * miss-discovery / recall event, the earliest select request of a
     * ready entry, a queued injected-wakeup repair, or the forward-
     * progress watchdog deadline. Returns kNoCycle when it holds no
     * future work at all. A conservative lower bound: ticking every
     * cycle in (now, nextEventCycle(now)) is a no-op, so a core may
     * skip them outright (it must still account the skipped cycles
     * via noteIdleCycles to keep occupancy stats identical).
     */
    Cycle nextEventCycle(Cycle now);

    /** Account @p n externally skipped idle cycles; bit-identical to
     *  the per-cycle occupancy samples the skipped ticks would take. */
    void noteIdleCycles(uint64_t n) { occAvg_.sample(double(occupied_), n); }

    uint64_t issuedOps() const { return issuedOps_; }
    uint64_t issuedEntries() const { return issuedEntries_; }
    uint64_t insertedOps() const { return insertedOps_; }
    uint64_t insertedEntries() const { return insertedEntries_; }
    uint64_t replayInvalidations() const { return replays_; }
    uint64_t collisions() const { return collisions_; }
    uint64_t pileupKills() const { return pileupKills_; }
    const stats::Average &occupancyAvg() const { return occAvg_; }

    void addStats(stats::StatGroup &g) const;

    const SchedParams &params() const { return params_; }

    // --- integrity & fault injection -----------------------------------

    /** Attach a fault injector; the scheduler consults it at its
     *  opportunity sites (see verify/fault_injector.hh). Not owned. */
    void setFaultInjector(verify::FaultInjector *inj) { inj_ = inj; }

    /** Attach a diagnostic event ring (not owned); when set, every
     *  insert/issue/deliver/recall/... is recorded for post-mortems. */
    void setEventRing(verify::EventRing *ring) { ring_ = ring; }

    /** Always-on invariant checker; violation counters live here. */
    verify::IntegrityChecker &integrity() { return integrity_; }
    const verify::IntegrityChecker &integrity() const { return integrity_; }

    /**
     * Full structural audit of the issue queue and broadcast pool:
     * occupancy accounting, free-list consistency, MOP head/tail
     * pairing, outstanding-broadcast liveness, and (once the tag pool
     * is in use) tag lifetimes. Runs periodically from tick() and at
     * end of run; throws IntegrityError on any violated invariant.
     * Cheap enough to be always-on (cold path).
     */
    void auditStructures();

    /** Human-readable snapshot of the issue queue (for --dump-on-error). */
    void dumpState(std::ostream &os) const;

    // --- stall attribution probe (observability layer) -----------------

    /** Enable bookkeeping for collectStallSnapshot (miss-pending tag
     *  bits, the stall-class planes and the per-cycle issue-slot
     *  count). Off by default; the hot path then carries only dead
     *  branches. Switching it on rebuilds the planes from the queue. */
    void setStallProbe(bool on);
    bool stallProbe() const { return stallProbe_; }

    /**
     * Classify every occupied entry for cycle @p now, after tick(now)
     * has run. issuedSlots counts select slots spent on useful work
     * this cycle (including MOP slot debt); every non-issued entry is
     * charged to exactly one waiting cause. Reads the stall-class
     * planes word by word, so it costs O(bitmap words) plus one
     * minIssue test per fully ready entry. Requires setStallProbe
     * (throws std::logic_error otherwise).
     *
     * Returns the previous snapshot unrecomputed while nothing it
     * reads has moved: the stall epoch (bumped by refreshStall and
     * setStallProbe, which follow every change of a bitmap, plane or
     * minIssue the walk reads), both issue-slot counts, and no ready
     * entry's minIssue reached since (the walk records the earliest).
     * auditStructures checks that a reusable snapshot equals a fresh
     * walk.
     */
    void collectStallSnapshot(Cycle now, StallSnapshot &snap) const;

  private:
    struct Broadcast
    {
        Tag tag = kNoTag;
        int entry = -1;
        uint32_t gen = 0;
        bool canceled = false;
        bool speculative = false;  ///< select-free pre-issue broadcast
    };

    // --- SoA entry planes ----------------------------------------------
    // The issue-queue entry is split structure-of-arrays style: the
    // per-cycle wakeup and select walks touch only small packed hot
    // planes (4-16 bytes per entry each), while everything touched at
    // event frequency — op payloads, sequence numbers, completion
    // bookkeeping, diagnostics — lives in a parallel cold plane. With
    // the old ~250-byte aggregate Entry a 64-entry wakeup walk
    // streamed 16 KB per broadcast; the tag-compare plane alone is
    // now 1 KB.

    /** Per-entry source-wait and lifecycle state; wakeup hot plane. */
    struct EntryState
    {
        uint8_t wait = 0;      ///< bit s set: source s not yet ready
        uint8_t fromTail = 0;  ///< bit s set: source added by a MOP tail
        uint8_t numSrcs = 0;
        uint8_t flags = 0;     ///< kFValid | kFPending | ...
    };

    static constexpr uint8_t kFValid = 1;
    static constexpr uint8_t kFPending = 2;   ///< awaiting MOP tail
    static constexpr uint8_t kFIssued = 4;
    static constexpr uint8_t kFCollided = 8;  ///< lost a select once
    static constexpr uint8_t kFReplayed = 16; ///< invalidated (replay)
    /** Entry holds wrong-path ops (SchedOp::wrongPath on its head).
     *  Observational only: timing rules are identical, but stall
     *  attribution charges these slots to the WrongPath cause. */
    static constexpr uint8_t kFWrongPath = 32;

    /** Per-entry op classes; select-time FU grant plane. */
    struct EntryOps
    {
        std::array<isa::OpClass, kMaxMopOps> cls{};
        uint8_t numOps = 0;
    };

    /** Event-frequency and diagnostic fields (cold plane). */
    struct EntryCold
    {
        std::array<SchedOp, kMaxMopOps> ops;
        Tag dstTag = kNoTag;
        std::array<Cycle, kMaxEntrySrcs> srcReadyAt{};
        uint64_t minSeq = 0;
        uint64_t maxSeq = 0;
        uint32_t gen = 0;       ///< cancels stale events on bump
        Cycle readyAt = kNoCycle;
        int outBcast = -1;      ///< outstanding broadcast node id
        Cycle issueCycle = 0;
        /** Bit o set iff ops[o]'s completion has been reported. A
         *  bitmask, not a count: squashAfter can shrink numOps after
         *  later ops already completed, and a dropped tail's
         *  completion must not stand in for a surviving op still in
         *  flight. */
        uint32_t opDone = 0;
        std::array<Cycle, kMaxMopOps> opComplete{};  ///< value-ready per op
    };

    /** Per-entry sampled load delays (load-delay policy): bit o of
     *  sampled is set iff lat[o] holds ops[o]'s memory latency, from
     *  the issue prologue until the op's timing is computed. */
    struct EntryDelays
    {
        uint8_t sampled = 0;
        std::array<int, kMaxMopOps> lat{};
    };

    struct CompletionEv
    {
        int entry;
        uint32_t gen;
        int opIdx;
        ExecEvent ev;
    };

    struct MissDiscoveryEv
    {
        int entry;
        uint32_t gen;
        Cycle correctedBcast;  ///< when the corrected wakeup fires
    };

    struct RecallEv
    {
        int entry;
        uint32_t gen;
    };

    static constexpr size_t kRing = 512;

    /** Every surviving op ([0, numOps)) has reported its completion. */
    bool
    prefixDone(int idx) const
    {
        uint32_t want = (1u << unsigned(opcls_[size_t(idx)].numOps)) - 1u;
        return (cold_[size_t(idx)].opDone & want) == want;
    }

    bool
    entryFullyReady(int idx) const
    {
        return state_[size_t(idx)].wait == 0;
    }

    /** Effective wakeup+select pipeline depth. */
    int schedDepthVal() const;
    /** Scheduler-visible latency of an entry (Figure 5 timings). */
    int schedLatency(int idx) const;
    /** Execution latency of one op (loads: addr-gen only). */
    static int execLatency(const SchedOp &op);
    bool isSelectFree() const;

    /** Op @p o of entry @p idx's sampled load delay (load-delay
     *  policy); dl1HitLatency if none is sampled. */
    int sampledLoadDelay(int idx, int o) const;

    int allocEntry();
    void freeEntry(int idx);
    void scheduleBcast(int entry, Cycle fire, bool speculative);
    void cancelBcast(int entry);
    void deliverBcasts(Cycle now);
    /** Set tag ready and wake waiting entries (one wakeup delivery). */
    void deliverTag(Tag tag, Cycle now);
    /** Apply corrective recalls queued by earlier injected wakeups. */
    void applyInjectedRecalls(Cycle now);
    /** Consult the fault injector's per-cycle opportunity sites. */
    void injectFaults(Cycle now);
    void dumpEntries(std::ostream &os) const;

    void
    record(Cycle cycle, verify::SchedEvent::Kind kind, uint64_t seq = 0,
           Tag tag = kNoTag, int entry = -1, const char *note = "")
    {
        if (ring_)
            ring_->push(cycle, kind, seq, tag, entry, note);
    }
    void onEntryBecameReady(int idx, Cycle now);
    /** Transitively undo wakeups caused by @p tag; invalidate issued
     *  consumers (selective replay). */
    void recallTag(Tag tag, Cycle now);
    void invalidateEntry(int idx, Cycle now);
    void doSelect(Cycle now, std::vector<MopIssue> *mop_issues);
    void issueEntry(int idx, Cycle now, std::vector<MopIssue> *mop_issues);
    /** Grow the tag planes to cover caller-chosen tag @p t. */
    void ensureTag(Tag t);
    void resizeTags(size_t n);
    /** Tag-lifetime part of auditStructures (see tag_pool.hh). */
    void auditTags();
    /** allocTag's cold paths: an exhausted pool, or the traced tag. */
    [[gnu::cold]] void allocTagSlow(Tag t);
    [[gnu::cold, noreturn]] void unbalancedRelease(Tag t);
    int &slotDebt(Cycle c);

    SchedParams params_;
    FuPool fu_;
    LoadLatencyFn loadLatency_;

    /** Policy answer cached at construction (sched/policy.hh); the
     *  hot paths branch on a plain bool, never a virtual call. */
    bool loadsSpeculate_ = true;

    // Entry planes (see the EntryState/EntryOps/EntryCold comment).
    std::vector<std::array<Tag, kMaxEntrySrcs>> srcTag_;
    std::vector<EntryState> state_;
    std::vector<Cycle> minIssue_;   ///< earliest select-request cycle
    std::vector<uint64_t> age_;     ///< allocation order (select priority)
    std::vector<EntryOps> opcls_;
    std::vector<EntryCold> cold_;
    std::vector<EntryDelays> delays_;

    std::vector<int> freeList_;
    int occupied_ = 0;
    uint64_t nextAge_ = 0;

    // Hot-path bitmaps (64 entries per word). The wakeup broadcast and
    // select loops walk only set bits instead of scanning the whole
    // entry array; with a 32-entry queue that is one word per cycle.
    /** Bit i set iff entry i is valid. */
    std::vector<uint64_t> validBits_;
    /** Bit i set iff entry i is a select candidate: valid, not
     *  pending, not issued, all sources ready (minIssue is checked at
     *  select time). Kept in sync by refreshReady(). */
    std::vector<uint64_t> readyBits_;
    /** Bit i set iff entry i is valid with at least one unready
     *  source: the only entries a wakeup broadcast can affect, and
     *  the only ones deliverTag compares tags against. */
    std::vector<uint64_t> watchBits_;
    /** Recompute entry @p idx's readyBits_/watchBits_ bits, and its
     *  stall-class bits under the stall probe. */
    void refreshReady(int idx);

    /**
     * Stall-class planes, one bitmap over the entries each, kept only
     * under the stall probe (empty otherwise). Bit i of the first four
     * mirrors valid entry i's kFIssued / kFPending / kFWrongPath /
     * kFReplayed flag; kPlaneMissWait has bit i set iff entry i waits
     * on a source whose tagMissPending_ bit is set. An entry's bits
     * are rewritten by refreshStall wherever its flags or wait mask
     * change: from refreshReady (insert, appendTail, clearPending,
     * wakeup, recall, invalidate, squash), issueEntry and freeEntry.
     * Setting a tag's miss bit refreshes its waiting consumers
     * (markMissPending); the bit is cleared only by the delivery that
     * wakes, and so refreshes, every consumer of the tag.
     */
    enum StallPlane : unsigned
    {
        kPlaneIssued,
        kPlanePending,
        kPlaneWrongPath,
        kPlaneReplayed,
        kPlaneMissWait,
        kNumStallPlanes,
    };
    std::array<std::vector<uint64_t>, kNumStallPlanes> stallBits_;
    /** Entry @p idx's plane bits as its state dictates: bit p set iff
     *  plane p should hold the entry (0 for a free entry). */
    uint8_t stallClassOf(int idx) const;
    /** Rewrite entry @p idx's bit in every stall-class plane and bump
     *  the stall epoch. Kept out of line so the probe-off refreshReady
     *  stays a leaf. */
    [[gnu::noinline]] void refreshStall(int idx);
    /** collectStallSnapshot's walk, without the cache. Returns the
     *  earliest minIssue after @p now of a ready entry that has not
     *  requested selection yet (kNoCycle if none). */
    Cycle computeStallSnapshot(Cycle now, StallSnapshot &snap) const;
    /** The cached snapshot may stand for cycle @p now. */
    bool stallSnapshotReusable(Cycle now) const;
    /** True if tag @p t has an uncorrected DL1-miss wakeup pending. */
    bool tagMissPending(Tag t) const;
    /** Set tag @p t's miss-pending bit and refresh the entries waiting
     *  on it (found through its consumer-index bucket). */
    void markMissPending(Tag t);

    /**
     * Consumer index: kConsumerBuckets bitmaps over the entries, each
     * validBits_.size() words, flattened; sized once at construction.
     * Bucket tag & (kConsumerBuckets - 1) has bit i set iff valid
     * entry i names a tag of that bucket as a source. Bits are set by
     * insert/appendTail as sources are added and cleared by freeEntry,
     * so a bucket is a superset of a tag's consumers: the wakeup and
     * recall walks visit only its entries (in ascending order, as
     * before) and keep the exact tag compare.
     */
    std::vector<uint64_t> consumers_;
    /** Bit of entry @p idx in tag @p t's bucket, indexing consumers_
     *  as one flat bitmap. */
    size_t
    consumerBit(Tag t, int idx) const
    {
        return (unsigned(t) & (kConsumerBuckets - 1)) * validBits_.size() *
                   64 +
               size_t(idx);
    }
    /** Append source tag @p t to entry @p idx: its slot, wait bit,
     *  ready time and consumer-index bit. Returns the slot. */
    int addSource(int idx, Tag t);
    /** Free a squash-shrunken issued entry whose surviving ops have
     *  all completed once its broadcast has left the bus; no
     *  completion event remains to free it through the normal path. */
    void maybeReapShrunken(int idx);

    TagPool pool_;
    const TagHolder *tagHolder_ = nullptr;  ///< not owned
    std::vector<uint32_t> auditRefs_;       ///< auditTags scratch

    /** tag -> architecturally-ready bit (may be unset by recalls). */
    std::vector<uint64_t> tagReadyBits_;
    size_t tagCap_ = 0;  ///< number of tags tracked
    /** tag -> cycle the value is really available (scoreboard check). */
    std::vector<Cycle> tagValueReady_;
    /** tag -> cycle readiness was (re)asserted. */
    std::vector<Cycle> tagReadyAt_;
    /** tag -> an uncorrected DL1-miss wakeup is outstanding (stall
     *  probe only; consumers waiting on such a tag are charged to the
     *  dcache-miss cause instead of generic wakeup wait). */
    std::vector<uint64_t> tagMissPending_;

    // Pooled event calendars (flat arenas; nothing cleared per tick).
    EventCalendar<Broadcast, kRing> bcastCal_;
    EventCalendar<CompletionEv, kRing> compCal_;
    EventCalendar<MissDiscoveryEv, kRing> missCal_;
    EventCalendar<RecallEv, kRing> recallCal_;
    std::array<std::pair<Cycle, int>, kRing> slotDebt_{};

    Cycle lastProgress_ = 0;

    // Stats.
    uint64_t issuedOps_ = 0;
    uint64_t issuedEntries_ = 0;
    uint64_t replays_ = 0;
    uint64_t collisions_ = 0;
    uint64_t pileupKills_ = 0;
    uint64_t insertedOps_ = 0;
    uint64_t insertedEntries_ = 0;
    stats::Average occAvg_;

    // Scratch (avoid per-tick allocation).
    std::vector<int> readyScratch_;

    // Integrity & fault injection (see verify/).
    verify::IntegrityChecker integrity_;
    verify::FaultInjector *inj_ = nullptr;  ///< not owned
    verify::EventRing *ring_ = nullptr;     ///< not owned
    /** (apply-at cycle, tag) recalls repairing injected wakeups; each
     *  holds a reference to its tag. */
    std::vector<std::pair<Cycle, Tag>> injRecalls_;

    // Stall-attribution probe state (see collectStallSnapshot).
    bool stallProbe_ = false;
    int lastIssueSlots_ = 0;  ///< useful select slots last doSelect
    int lastIssueSlotsWp_ = 0; ///< of those, wrong-path entry issues
    /** Bumped wherever a stall plane is rewritten (see refreshStall). */
    uint64_t stallEpoch_ = 0;
    /** The last computed snapshot and the inputs it was computed from. */
    struct StallCache
    {
        StallSnapshot snap;
        uint64_t epoch = ~uint64_t(0);  ///< matches nothing at first
        int issueSlots = 0;
        int issueSlotsWp = 0;
        Cycle from = 0;      ///< cycle it was computed for
        Cycle until = 0;     ///< first cycle a ready entry requests anew
        Cycle last = 0;      ///< cycle of the latest collect
    };
    mutable StallCache stallCache_;
};

} // namespace mop::sched

#endif // MOP_SCHED_SCHEDULER_HH
