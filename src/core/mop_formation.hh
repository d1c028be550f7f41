/**
 * @file
 * Queue-stage formation: deciding, for each in-order µop, whether it
 * enters the scheduler alone or fused into a multi-op entry, and
 * translating register dependences into the grouping name space.
 *
 * Formation is the abstract stage; which concrete formation runs is a
 * column of the policy table (sched/policy.hh, dynamicFormation):
 *
 *  - MopFormation (this file): the paper's MOP formation (Section 5.2)
 *    — pairs located via the IL1-coupled pointer cache, the pending-bit
 *    insertion window of Figure 11, and chain extension up to the
 *    configured MOP size.
 *  - StaticFuser (core/static_fuse.hh): decode-time pair fusion from a
 *    fixed pattern table, no pointer cache or detector involved.
 *
 * The MOP translation table mirrors the register rename table but maps
 * logical registers to MOP IDs; a single MOP ID is allocated to the
 * two instructions named by a MOP pointer, so any consumer of either
 * becomes a child of the MOP in the scheduler (Figure 10). Register
 * renaming still proceeds in parallel and register values are accessed
 * based on the original data dependences — in this simulator that
 * half is represented by the per-µop producer tracking the pipeline
 * uses for its dataflow-order invariant checks. The table, tag
 * allocator and formation counters are shared by every concrete
 * formation and live in the base class.
 *
 * Tags come from the scheduler's bounded pool (sched/tag_pool.hh) once
 * setTagPool() is called. Each table slot, checkpoint slot and pending
 * window then holds a reference to the tag it names. A destination
 * mapping does not drop the reference to the tag it displaces until
 * releaseDisplaced(): the displaced tag may be one of the µop's own
 * sources, which must not be recycled before its issue-queue entry
 * names it.
 *
 * With grouping disabled every formation degenerates into a plain
 * dependence renamer that assigns a fresh tag to each destination.
 */

#ifndef MOP_CORE_MOP_FORMATION_HH
#define MOP_CORE_MOP_FORMATION_HH

#include <array>
#include <functional>
#include <vector>

#include "core/mop_pointer.hh"
#include "isa/uop.hh"
#include "sched/scheduler.hh"
#include "sched/types.hh"
#include "verify/fault_injector.hh"

namespace mop::core
{

/** Decision for one µop at the queue stage. */
struct FormOutcome
{
    enum class Role : uint8_t
    {
        Single,  ///< own issue-queue entry
        Head,    ///< MOP head: insert with the pending bit if the tail
                 ///< is not in this insert group yet
        Tail,    ///< joins the head's entry
    };

    Role role = Role::Single;
    sched::Tag dst = sched::kNoTag;  ///< entry/broadcast tag
    std::array<sched::Tag, 2> src = {sched::kNoTag, sched::kNoTag};
    int headEntry = -1;      ///< Tail: issue-queue entry of the head
    uint64_t headDynId = 0;  ///< Tail: dyn id of the head µop
    bool independent = false;///< pair came from an independent pointer
    /** Tail only: this link's own pointer extends the chain; the
     *  entry must stay pending for the next link (MOP size > 2). */
    bool moreExpected = false;
    /** A pending head whose pairing was abandoned this µop (control
     *  flow diverged); the caller must clearPending() this entry. */
    int clearPendingEntry = -1;
};

/**
 * Abstract queue-stage formation. Owns the logical-register → tag
 * translation table, the tag allocator and the formation counters;
 * concrete formations implement the grouping decision itself.
 */
class Formation : public sched::TagHolder
{
  public:
    virtual ~Formation() = default;

    /** Allocate tags from @p pool (not owned) and register with it as
     *  a holder of references. Without a pool, tags are numbered in
     *  order and never recycled (standalone use). */
    void setTagPool(sched::Scheduler *pool);

    /** Drop the references displaced by destination mappings since the
     *  last call. Call once the µop's outcome is in the scheduler. */
    void
    releaseDisplaced()
    {
        if (displaced_[0] == sched::kNoTag)
            return;  // nothing displaced, or no pool
        pool_->releaseTag(displaced_[0]);
        pool_->releaseTag(displaced_[1]);
        displaced_ = {sched::kNoTag, sched::kNoTag};
    }

    /** Every tag reference this formation holds: table slots, the
     *  live checkpoint's slots, displaced tags not yet released, and
     *  (in subclasses) pending windows. */
    void forEachTagRef(
        const std::function<void(sched::Tag)> &fn) const override;

    /** Translate and classify one µop, in program order. */
    virtual FormOutcome process(const isa::MicroOp &u,
                                uint64_t dyn_id) = 0;

    /** The pipeline reports the issue-queue entry of an inserted head
     *  (identified by the head µop's dyn id). */
    virtual void setHeadEntry(uint64_t head_dyn_id, int entry) = 0;

    /**
     * A tail failed to join (source-budget overflow or IQ state): give
     * it a fresh tag instead and forget the pairing, including any
     * chain links still expected on the same entry.
     * @return the replacement destination tag (kNoTag if no dst).
     */
    virtual sched::Tag demoteTail(const isa::MicroOp &u,
                                  int entry = -1) = 0;

    /**
     * Advance one insert-group boundary. Pending heads whose tail did
     * not arrive within the next group are abandoned (Figure 11);
     * their issue-queue entries, returned here, must get
     * clearPending() from the caller.
     */
    virtual std::vector<int> groupBoundary() = 0;

    /** Heads currently awaiting their tail (grouping-pending count). */
    virtual int pendingCount() const = 0;

    /**
     * Snapshot the translation table at a mispredicted branch's
     * dispatch (wrong-path execution). Only the table is saved: tags
     * are never rewound (wrong-path tags are recycled once the squash
     * drops their last reference), and pending windows are dropped
     * wholesale at restore — any right-path pending head has either
     * resolved or expired by the time the branch resolves, and a stale
     * window matching a *recycled* dyn id would silently corrupt
     * pairing. One checkpoint is live at a time (the core enters
     * wrong-path mode on the oldest unresolved mispredict only); its
     * slots hold references until the restore hands them back to the
     * table.
     */
    void checkpoint();

    /** Restore the checkpointed table and drop all pending windows
     *  (the wrong path dispatched after the checkpoint is being
     *  squashed). Requires a live checkpoint. */
    void restoreToCheckpoint();

    /** Fresh tag in the grouping name space. */
    sched::Tag
    freshTag()
    {
        return pool_ ? pool_->allocTag() : nextStandaloneTag();
    }

    uint64_t groupsFormed() const { return groupsFormed_; }
    uint64_t independentFormed() const { return independentFormed_; }
    uint64_t pendingExpired() const { return pendingExpired_; }
    uint64_t verifyFails() const { return verifyFails_; }
    uint64_t demotions() const { return demotions_; }

    bool groupingEnabled() const { return enabled_; }

    /** Attach a fault injector (corrupt-mop opportunity site; see
     *  verify/fault_injector.hh). Not owned. */
    void setFaultInjector(verify::FaultInjector *inj) { inj_ = inj; }

  protected:
    explicit Formation(bool grouping_enabled)
        : enabled_(grouping_enabled)
    {
        table_.fill(sched::kNoTag);
    }

    sched::Tag translateSrc(int16_t reg) const;
    /** Map logical register @p reg to @p t (see releaseDisplaced). */
    void
    mapDst(int16_t reg, sched::Tag t)
    {
        sched::Tag old = table_[size_t(reg)];
        table_[size_t(reg)] = t;
        if (!pool_)
            return;
        pool_->retainTag(t);
        if (old == sched::kNoTag)
            return;
        // Held until releaseDisplaced: a µop maps at most one
        // destination in process() and one more in demoteTail().
        if (displaced_[1] != sched::kNoTag) [[unlikely]]
            tooManyDisplaced();
        displaced_[displaced_[0] != sched::kNoTag] = old;
    }
    [[noreturn]] static void tooManyDisplaced();
    sched::Tag nextStandaloneTag();
    /** A pending window starts / stops naming @p t. */
    void
    retainTag(sched::Tag t)
    {
        if (pool_)
            pool_->retainTag(t);
    }
    void
    releaseTag(sched::Tag t)
    {
        if (pool_)
            pool_->releaseTag(t);
    }
    /** Drop every pending window (checkpoint restore). */
    virtual void dropWindows() = 0;

    bool enabled_;
    verify::FaultInjector *inj_ = nullptr;  ///< not owned
    sched::Scheduler *pool_ = nullptr;      ///< not owned
    sched::Tag next_ = 0;  ///< standalone numbering (no pool)
    std::array<sched::Tag, isa::kNumLogicalRegs> table_;
    std::array<sched::Tag, 2> displaced_{sched::kNoTag, sched::kNoTag};

    std::array<sched::Tag, isa::kNumLogicalRegs> ckptTable_{};
    bool ckptLive_ = false;

    uint64_t groupsFormed_ = 0;
    uint64_t independentFormed_ = 0;
    uint64_t pendingExpired_ = 0;
    uint64_t verifyFails_ = 0;
    uint64_t demotions_ = 0;
};

/** The paper's pointer-driven MOP formation (Section 5.2). */
class MopFormation : public Formation
{
  public:
    MopFormation(bool grouping_enabled, MopPointerCache &cache,
                 int max_mop_size = 2);

    FormOutcome process(const isa::MicroOp &u, uint64_t dyn_id) override;
    void setHeadEntry(uint64_t head_dyn_id, int entry) override;
    sched::Tag demoteTail(const isa::MicroOp &u, int entry = -1) override;
    std::vector<int> groupBoundary() override;
    int pendingCount() const override { return int(pending_.size()); }
    void forEachTagRef(
        const std::function<void(sched::Tag)> &fn) const override;

  private:
    struct PendingHead
    {
        uint64_t headDynId = 0;
        uint64_t tailDynId = 0;
        uint64_t tailPc = 0;
        sched::Tag mopTag = sched::kNoTag;
        int entry = -1;
        int groupAge = 0;
        bool independent = false;
        int sizeSoFar = 1;  ///< ops already in the entry
    };

    void dropWindows() override;
    void openWindow(const PendingHead &p);
    /** Close the window at @p it; returns the next one. */
    std::vector<PendingHead>::iterator
    closeWindow(std::vector<PendingHead>::iterator it);

    MopPointerCache &cache_;
    int maxMopSize_;
    std::vector<PendingHead> pending_;
};

} // namespace mop::core

#endif // MOP_CORE_MOP_FORMATION_HH
