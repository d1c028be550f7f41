/**
 * @file
 * The out-of-order processor core of Figure 2: a 4-wide, 13-stage
 * pipeline (Fetch Decode Rename Rename Queue Sched Disp Disp RF RF Exe
 * WB Commit) with a 128-entry ROB, speculative scheduling with
 * selective replay, and optional macro-op scheduling.
 *
 * The core is trace-driven: a TraceSource supplies the executed
 * micro-op stream (synthetic workload or functional interpreter), so
 * there is no real wrong path to fetch after a branch mispredict.
 * Two models close that gap:
 *
 *  - Default (CoreParams::wrongPath off): fetch stalls from the
 *    mispredicted branch until it resolves plus a redirect penalty
 *    matching Table 1's >= 14-cycle recovery. Wrong-path µops never
 *    occupy the IQ, FU ports or broadcast buses.
 *  - `--wrong-path`: fetch continues into a deterministic synthesized
 *    wrong-path stream (trace/wrong_path.hh), which dispatches,
 *    issues and completes like real work; the branch's resolution
 *    squashes everything younger through Scheduler::squashAfter —
 *    the Section 5.3.2 machinery, now exercised on every mispredict
 *    — and restores the formation table, last-writer map and dyn-id
 *    allocator from a checkpoint taken at the branch's dispatch.
 *    The right-path refetch time is the same expression as the stall
 *    model; only the competition the wrong path inflicted differs.
 *    See DESIGN.md "Wrong-path execution" for the determinism and
 *    fingerprint rules.
 *
 * Frontend model: fetch applies instruction-cache latency, branch
 * prediction (combined bimodal/gshare + BTB + RAS) and the
 * stop-at-first-taken-branch rule, then micro-ops travel through a
 * fixed frontend delay (5 stages, plus 0-2 extra MOP formation
 * stages) to the queue stage. The queue stage performs MOP formation
 * (dependence translation into the MOP-ID name space, pending-bit
 * insertion) and inserts into the scheduler; the MOP detector observes
 * the same in-order stream and writes pointers into the IL1-coupled
 * pointer cache after its detection latency.
 *
 * A dataflow-order invariant is checked at every completion (always
 * on, see verify/integrity.hh): each micro-op must begin execution no
 * earlier than all of its true register producers complete — i.e. the
 * MOP dependence abstraction never violates the original dataflow
 * (Section 3.1).
 */

#ifndef MOP_PIPELINE_OOO_CORE_HH
#define MOP_PIPELINE_OOO_CORE_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/mop_detector.hh"
#include "obs/observer.hh"
#include "core/mop_formation.hh"
#include "core/mop_pointer.hh"
#include "mem/cache.hh"
#include "sched/scheduler.hh"
#include "trace/source.hh"
#include "trace/wrong_path.hh"
#include "verify/event_ring.hh"
#include "verify/fault_injector.hh"
#include "verify/golden.hh"
#include "verify/integrity.hh"

namespace mop::pipeline
{

struct CoreParams
{
    int fetchWidth = 4;
    int renameWidth = 4;   ///< queue-insert width
    int commitWidth = 4;
    int robSize = 128;

    /** Fetch-to-queue depth: Fetch Decode Rename Rename Queue. */
    int frontendDepth = 5;
    /** Extra MOP formation stages (0, 1 or 2; Section 6.2). */
    int extraFormationStages = 0;
    /** Cycles from branch resolution to first refetched instruction. */
    int mispredictRedirect = 3;
    /** Frontend bubble for decode-resolved misfetches (BTB misses). */
    int btbMissPenalty = 3;

    /** True wrong-path execution (see the file comment): fetch a
     *  synthesized wrong-path stream after every detected mispredict
     *  and squash it at resolution, instead of stalling fetch. */
    bool wrongPath = false;
    /** Maximum wrong-path µops fetched per misprediction episode. */
    int wrongPathDepth = 64;
    /** Calibration seed for the wrong-path synthesizer; runs from the
     *  same workload profile reproduce every wrong path bit-for-bit. */
    uint64_t wrongPathSeed = 0;

    /** Scheduler parameters; sched.mopEnabled also switches on the
     *  core's MOP formation. */
    sched::SchedParams sched;
    core::DetectorParams detector;
    bool lastArrivalFilter = true;

    mem::HierarchyParams mem;
    bpred::BpredParams bpred;

    /** Observability layer (stall attribution, occupancy histograms,
     *  cycle-event trace); off by default and free when off. */
    obs::ObsConfig obs;

    /** Fault campaign for the deterministic injector; empty = off. */
    verify::FaultSpec faults;
    /** Commit-progress watchdog: a non-empty ROB that commits nothing
     *  for this many cycles is a livelock (DeadlockError). */
    uint64_t commitWatchdogCycles = 1'000'000ULL;
    uint64_t maxCycles = 2'000'000'000ULL;

    /**
     * Event-driven cycle skipping: when no ring event, frontend
     * delivery, fetch, commit or watchdog deadline lies in a cycle
     * range, advance time over it in one step. Bit-identical to the
     * stepped run by construction (see DESIGN.md); automatically
     * disabled under fault injection and the observability layer,
     * whose hooks run every cycle.
     */
    bool cycleSkip = true;
};

/**
 * Why a core cannot run @p p, or "" when it can: sched::configError's
 * rules plus the core's own. The OooCore constructor throws
 * std::invalid_argument with the reason; mopsim asks first and exits 2.
 */
std::string configError(const CoreParams &p);

/** Figure 13 commit-time classification. */
enum class GroupClass : uint8_t
{
    NotCandidate,
    CandidateNotGrouped,
    IndependentMop,
    MopNonValueGen,
    MopValueGen,
    kCount,
};

struct SimResult
{
    uint64_t cycles = 0;
    uint64_t insts = 0;       ///< committed instructions (first µops)
    uint64_t uops = 0;        ///< committed micro-ops
    double ipc = 0;

    /** Committed-instruction counts per Figure 13 class. */
    std::array<uint64_t, size_t(GroupClass::kCount)> groupCounts{};
    uint64_t iqEntriesInserted = 0;  ///< scheduler entries consumed
    uint64_t uopsInserted = 0;
    uint64_t replays = 0;
    uint64_t mispredicts = 0;
    uint64_t filterDeletions = 0;
    double avgIqOccupancy = 0;
    /** Idle cycles advanced without execution (cycle-skip metric; a
     *  wall-clock statistic, not an architectural one). */
    uint64_t skippedCycles = 0;

    /** Stall attribution (observability runs only; stallWidth == 0
     *  otherwise). Indexed by obs::StallCause. */
    std::array<uint64_t, obs::kNumStallCauses> stallSlots{};
    uint32_t stallWidth = 0;

    double groupedFrac() const;
};

class OooCore
{
  public:
    /** @throws std::invalid_argument with configError's reason when
     *  @p params cannot run. */
    OooCore(const CoreParams &params, trace::TraceSource &source);
    ~OooCore();

    /** Run until @p max_insts instructions commit (or trace end /
     *  cycle guard), then drain the pipeline. */
    SimResult run(uint64_t max_insts);

    /** Single-cycle step; returns false when fully drained. */
    bool step();

    const SimResult &result() const { return res_; }
    const sched::Scheduler &scheduler() const { return *sched_; }
    const core::Formation &formation() const { return *formation_; }
    const core::MopDetector &detector() const { return *detector_; }
    const core::MopPointerCache &pointerCache() const { return ptrCache_; }
    const mem::MemoryHierarchy &memory() const { return mem_; }
    const bpred::BranchPredictor &predictor() const { return bpred_; }
    /** Null unless CoreParams::obs.enabled. */
    const obs::Observer *observer() const { return obs_.get(); }
    obs::Observer *observer() { return obs_.get(); }
    uint64_t cycles() const { return now_; }

    void addStats(stats::StatGroup &g) const;

    // --- integrity & fault injection -----------------------------------

    /** Attach a golden model compared against at commit (not owned). */
    void setGoldenModel(verify::GoldenModel *g) { golden_ = g; }

    /** Core-side invariant checker (ROB order, dataflow). */
    verify::IntegrityChecker &integrity() { return integrity_; }
    const verify::IntegrityChecker &integrity() const { return integrity_; }

    /** The injector driving this core's campaign (null when off). */
    const verify::FaultInjector *injector() const { return inj_.get(); }

    /** The recent scheduler events; empty unless recordEvents() or
     *  echoTag() turned recording on. */
    const verify::EventRing &events() const { return ring_; }
    /** Record scheduler events from now on. Off by default: only a
     *  post-mortem (dumpState) or an echo reads them. */
    void
    recordEvents()
    {
        recording_ = true;
        sched_->setEventRing(&ring_);
    }
    /** Record events and write tag @p tag's to @p os as they are
     *  recorded, in the event dump's line format (see
     *  verify::EventRing::echoTag); a null @p os turns the echo off. */
    void
    echoTag(sched::Tag tag, std::ostream *os)
    {
        ring_.echoTag(tag, os);
        if (os)
            recordEvents();
    }

    /** Pipeline snapshot (ROB, IQ, frontend) + recent scheduler
     *  events (recordEvents()); written on DeadlockError /
     *  IntegrityError post-mortems. */
    void dumpState(std::ostream &os) const;

  private:
    struct InFlight
    {
        isa::MicroOp u;
        uint64_t dynId = 0;
        sched::Cycle fetchCycle = 0;
        sched::Cycle queueReadyAt = 0;
        bool mispredict = false;  ///< this µop will redirect fetch
        bool wrongPath = false;   ///< synthesized wrong-path µop
    };

    /** Cold ROB record: everything commit and diagnostics read.
     *  The completed flag, polled every cycle by doCommit(), lives in
     *  RobRing's separate hot byte plane instead. */
    struct RobEntry
    {
        isa::MicroOp u;
        uint64_t dynId = 0;
        sched::Cycle completeCycle = 0;
        sched::Cycle execStart = 0;
        sched::Cycle fetchCycle = 0;   ///< fetch cycle
        sched::Cycle queueReadyAt = 0; ///< eligible for queue insert
        sched::Cycle insertCycle = 0;  ///< queue-insert cycle
        sched::Cycle readyCycle = 0;   ///< last became fully ready
        sched::Cycle issueCycle = 0;   ///< last (re)issue cycle
        std::array<int64_t, 2> srcProducer = {-1, -1};  ///< dyn ids
        int64_t mopHeadId = -1;        ///< pairing id (head dyn id)
        bool grouped = false;
        bool independent = false;
        bool isHead = false;
        bool replayed = false;
        bool wasMiss = false;
        bool mispredicted = false;
        bool wrongPath = false;  ///< flushed, never commits
    };

    /**
     * Power-of-two ROB ring, split structure-of-arrays style: the
     * per-cycle commit poll touches only the packed completed_ byte
     * plane, while the wide cold records are read once per entry (at
     * completion and commit). Capacity is fixed at construction, so
     * references stay valid for the entry's residency.
     */
    class RobRing
    {
      public:
        void
        init(int capacity)
        {
            size_t cap = 1;
            while (cap < size_t(capacity))
                cap <<= 1;
            mask_ = cap - 1;
            cold_.resize(cap);
            completed_.assign(cap, 0);
        }

        bool empty() const { return size_ == 0; }
        size_t size() const { return size_; }

        RobEntry &front() { return cold_[head_]; }
        const RobEntry &front() const { return cold_[head_]; }
        bool frontCompleted() const { return completed_[head_] != 0; }

        /** @p i counts from the head (program order). */
        RobEntry &at(size_t i) { return cold_[(head_ + i) & mask_]; }
        const RobEntry &
        at(size_t i) const
        {
            return cold_[(head_ + i) & mask_];
        }
        bool
        completedAt(size_t i) const
        {
            return completed_[(head_ + i) & mask_] != 0;
        }
        void markCompleted(size_t i) { completed_[(head_ + i) & mask_] = 1; }

        /** Append a default-initialized entry; fill it in place. */
        RobEntry &
        pushBack()
        {
            size_t slot = (head_ + size_) & mask_;
            completed_[slot] = 0;
            cold_[slot] = RobEntry{};
            ++size_;
            return cold_[slot];
        }

        void
        popFront()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }

        RobEntry &back() { return cold_[(head_ + size_ - 1) & mask_]; }

        /** Drop the youngest entry (wrong-path squash). */
        void popBack() { --size_; }

      private:
        std::vector<RobEntry> cold_;
        std::vector<uint8_t> completed_;  ///< hot plane (commit poll)
        size_t mask_ = 0;
        size_t head_ = 0;
        size_t size_ = 0;
    };

    /**
     * Fixed-capacity power-of-two FIFO of fetched µops awaiting the
     * queue stage. Fetch stops adding at frontendLimit_ entries and then
     * adds at most one fetch group, which bounds the capacity; a push
     * beyond it is a pipeline bug and throws.
     */
    class FrontendRing
    {
      public:
        void
        init(size_t capacity)
        {
            size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            mask_ = cap - 1;
            slots_.resize(cap);
        }

        bool empty() const { return size_ == 0; }
        size_t size() const { return size_; }

        InFlight &front() { return slots_[head_]; }
        const InFlight &front() const { return slots_[head_]; }
        InFlight &back() { return slots_[(head_ + size_ - 1) & mask_]; }

        void
        pushBack(const InFlight &f)
        {
            if (size_ > mask_)
                throw std::logic_error("frontend FIFO overflow");
            slots_[(head_ + size_) & mask_] = f;
            ++size_;
        }

        void
        popFront()
        {
            head_ = (head_ + 1) & mask_;
            --size_;
        }

        /** Drop the youngest µop (wrong-path squash). */
        void popBack() { --size_; }

      private:
        std::vector<InFlight> slots_;
        size_t mask_ = 0;
        size_t head_ = 0;
        size_t size_ = 0;
    };

    void doFetch();
    /** Fetch from the wrong-path synthesizer while the mispredicted
     *  branch is unresolved (CoreParams::wrongPath). */
    void doWrongPathFetch();
    /** Flush everything younger than @p boundary (the resolved
     *  mispredicted branch): ROB suffix, frontend, scheduler entries,
     *  formation/last-writer checkpoints and the dyn-id allocator. */
    void squashWrongPath(uint64_t boundary);
    /** Returns how many ops entered the scheduler this cycle. */
    int doQueueInsert();
    void doCommit();
    void handleCompletion(const sched::ExecEvent &ev);
    void checkInvariant(const RobEntry &rob, const sched::ExecEvent &ev);
    /** Head-relative ROB index of @p dyn_id, or -1 if not resident. */
    int64_t robIndex(uint64_t dyn_id) const;
    RobEntry *robByDynId(uint64_t dyn_id);
    /** Advance now_ over a provably idle region (see CoreParams::
     *  cycleSkip); called with now_ = the cycle just executed. */
    void maybeSkipIdle();
    /** End-of-run Little's-law checks: the scheduler sampled its
     *  occupancy once per cycle, and with obs on the obs.occ.iq and
     *  obs.occ.rob histograms agree with the IQ and ROB ledgers. */
    void auditOccupancy();

    CoreParams params_;
    trace::TraceSource &src_;

    mem::MemoryHierarchy mem_;
    bpred::BranchPredictor bpred_;
    core::MopPointerCache ptrCache_;
    std::unique_ptr<core::MopDetector> detector_;
    std::unique_ptr<core::Formation> formation_;
    /** Dynamic MOPs: grouping is on and the policy forms MOPs through
     *  the detector and pointer cache (MopFormation). False under a
     *  decode-time StaticFuser or with grouping off: both bypassed. */
    bool dynMops_ = false;
    std::unique_ptr<sched::Scheduler> sched_;
    std::unique_ptr<obs::Observer> obs_;

    sched::Cycle now_ = 0;
    uint64_t nextDynId_ = 0;
    bool traceDone_ = false;

    // Fetch state.
    sched::Cycle fetchStallUntil_ = 0;
    bool waitingBranch_ = false;
    uint64_t waitingBranchDynId_ = 0;
    uint64_t lastFetchLine_ = ~0ULL;
    bool havePending_ = false;
    isa::MicroOp pendingFetch_;

    // Wrong-path execution state (CoreParams::wrongPath).
    trace::WrongPathSynth wpSynth_;
    bool wpActive_ = false;    ///< unresolved mispredict, wp mode on
    /** Dispatch-time checkpoint of the last-writer map, taken at the
     *  mispredicted branch's queue insert (the formation keeps its
     *  own; see Formation::checkpoint). */
    std::array<int64_t, isa::kNumLogicalRegs> ckptLastWriter_{};
    bool haveCkpt_ = false;
    /** Squash boundary of a squash performed *this cycle*: already
     *  extracted completions for younger (squashed) µops must be
     *  dropped, not delivered. ~0 = no squash this cycle. */
    uint64_t wpSquashBoundary_ = ~0ULL;
    uint64_t wpEpisodes_ = 0;
    uint64_t wpFetched_ = 0;        ///< wp µops that entered the frontend
    uint64_t wpSquashedUops_ = 0;   ///< wp µops flushed from the ROB

    FrontendRing frontend_;
    /** Fetch adds nothing while the frontend holds this many µops
     *  (fetchWidth x (frontendDepth + 4)): the queue stage stalled. */
    size_t frontendLimit_ = 0;
    RobRing rob_;
    /** ROB arrivals and departures in cycles (auditOccupancy). */
    verify::OccupancyLedger robLedger_;
    bool skipEnabled_ = false;  ///< cycleSkip && !obs && !faults

    /** Last completed-cycle ring for dataflow invariant checks. */
    static constexpr size_t kProdRing = 8192;
    std::vector<std::pair<uint64_t, sched::Cycle>> prodComplete_;
    /** Last-writer dyn id per logical register (queue order). */
    std::array<int64_t, isa::kNumLogicalRegs> lastWriter_;

    std::vector<sched::ExecEvent> completedScratch_;
    std::vector<sched::MopIssue> mopScratch_;

    // Integrity & fault injection (see verify/).
    verify::IntegrityChecker integrity_;
    verify::EventRing ring_{256};
    bool recording_ = false;  ///< ring_ is attached (recordEvents())
    std::unique_ptr<verify::FaultInjector> inj_;
    verify::GoldenModel *golden_ = nullptr;  ///< not owned
    uint64_t nextCommitDynId_ = 0;
    sched::Cycle lastCommit_ = 0;

    /** Which backpressure cause stopped this cycle's queue insert
     *  (consumed by the observability hook in step()). */
    bool insertStallRob_ = false;
    bool insertStallIq_ = false;

    SimResult res_;
    uint64_t targetInsts_ = 0;
};

} // namespace mop::pipeline

#endif // MOP_PIPELINE_OOO_CORE_HH
