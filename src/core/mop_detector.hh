/**
 * @file
 * MOP detection logic (Section 5.1).
 *
 * The detector sits outside the processor's critical path and watches
 * the decoded micro-op stream in rename-width groups. It keeps a
 * two-group window (8 micro-ops on the 4-wide machine) represented as
 * the triangular dependence matrix of Figure 9: for each potential MOP
 * head (a value-generating single-cycle candidate) it scans the
 * column of dependence marks below it and selects the first admissible
 * consumer as the MOP tail, emitting a MOP pointer.
 *
 * A dependence mark carries the consumer's source-operand count ("1"
 * or "2"). The conservative cycle heuristic of Figure 8(c) is encoded
 * exactly as in the paper: a "2" mark may only be selected when it is
 * the first mark in the column — i.e. the head must not have an
 * earlier outgoing edge when the candidate tail has another incoming
 * edge. For the ablation study the heuristic can be replaced by
 * precise cycle detection over the window's merged-node graph.
 *
 * After the dependent pass, unclaimed candidate pairs with identical
 * (producer-aware) source operands are grouped as independent MOPs
 * (Section 5.4.1).
 *
 * Pointers become visible in the pointer cache only after the
 * configurable detection latency (3 cycles by default; Section 6.2
 * shows even 100 cycles barely matters because pointers are reused).
 *
 * The window is one contiguous array of compact items plus per-window
 * bitmasks (bit k = window position k): MOP candidates, value
 * generators, heads, tails, taken and indirect control, covered heads,
 * and each producer's in-window readers. Source identities are found
 * once per µop, when it is observed, and adjusted when the window
 * slides. The matrix scans walk only set bits, in program order, so
 * their cost follows the dependence marks present rather than the
 * window's area. Each candidate's pointer-cache probe is kept and
 * re-taken only after MopPointerCache::version() moves. DESIGN.md
 * "Formation layer" explains why this is exact.
 */

#ifndef MOP_CORE_MOP_DETECTOR_HH
#define MOP_CORE_MOP_DETECTOR_HH

#include <array>
#include <cstdint>
#include <deque>

#include "core/mop_pointer.hh"
#include "isa/uop.hh"
#include "sched/types.hh"

namespace mop::core
{

struct DetectorParams
{
    int groupWidth = 4;        ///< rename width (group size)
    /** CAM-style wakeup: the grouped pair's source union must fit two
     *  tag comparators. Wired-OR allows three (Section 3.1). */
    bool camRestrict = true;
    bool independentMops = true;
    bool cycleHeuristic = true; ///< false = precise detection (ablation)
    /// Maximum MOP size formation may build (Section 4.3). Above 2,
    /// detection lets a MOP tail carry its own pointer to the next
    /// chain link (one pointer per instruction, Section 5.1.3).
    int maxMopSize = 2;
    int detectLatency = 3;      ///< cycles until the pointer is visible
    int maxOffset = 7;          ///< 3-bit pointer offset (1..7)
};

class MopDetector
{
  public:
    /** Widest two-group window the per-window bitmasks hold. */
    static constexpr int kMaxWindow = 32;

    /** @throws std::invalid_argument if @p params.maxOffset is outside
     *  1..7 (3-bit offsets; exclusions are kept per offset bit) or two
     *  groups of @p params.groupWidth exceed kMaxWindow. */
    MopDetector(const DetectorParams &params, MopPointerCache &cache);

    /** Feed one decoded micro-op (dense post-decode id @p dyn_id). */
    void observe(const isa::MicroOp &u, uint64_t dyn_id);

    /** Close the current group (one rename cycle) at @p now and run a
     *  detection step over the two-group window. */
    void endGroup(sched::Cycle now);

    /** Write out pointers whose detection latency has elapsed. */
    void drain(sched::Cycle now);

    uint64_t dependentPairs() const { return dependentPairs_; }
    uint64_t independentPairs() const { return independentPairs_; }
    uint64_t cycleRejects() const { return cycleRejects_; }
    uint64_t budgetRejects() const { return budgetRejects_; }
    uint64_t ctrlRejects() const { return ctrlRejects_; }

  private:
    using Mask = uint32_t;

    /** One window µop, reduced to what detection reads. */
    struct Item
    {
        uint64_t pc = 0;
        uint64_t dynId = 0;
        std::array<int16_t, 2> src = {isa::kNoReg, isa::kNoReg};
        uint8_t excluded = 0;  ///< filter exclusions of pc (bit = offset)

        int
        numSrcs() const
        {
            return int(src[0] != isa::kNoReg) + int(src[1] != isa::kNoReg);
        }
    };

    /** Producer-aware operand identity: within-window producer index,
     *  or the register name for external values. */
    struct SrcId
    {
        int8_t prod = -1;   ///< window index of producer, -1 if external
        int8_t reg = int8_t(isa::kNoReg);

        bool
        operator==(const SrcId &o) const
        {
            return prod == o.prod && reg == o.reg;
        }
    };

    void detectStep(sched::Cycle now);
    /** Bring every candidate's pointer-cache probe (covered_, and
     *  Item::excluded) up to date with the cache version. */
    void refreshProbes();
    bool controlPathOk(int i, int j, bool &ctrl) const;
    bool sourceBudgetOk(int i, int j) const;
    bool preciseCycleFree(int i, int j) const;
    /** Order-normalized source pair of @p k, packed for equality. */
    uint32_t canonKey(int k) const;
    void emitPointer(int i, int j, bool independent, bool ctrl,
                     sched::Cycle now);

    DetectorParams params_;
    MopPointerCache &cache_;
    sched::Cycle lastNow_ = 0;

    /** Previous group at [0, prevCount_), current group after it. */
    std::array<Item, kMaxWindow> items_;
    int prevCount_ = 0;
    int curCount_ = 0;

    // Window bitmasks; bits at and above prevCount_ + curCount_ are 0.
    Mask cand_ = 0;       ///< MOP candidates
    Mask valueGen_ = 0;   ///< candidates with a destination (heads)
    Mask takenCtrl_ = 0;  ///< taken control transfers
    Mask indirect_ = 0;   ///< indirect control transfers
    Mask head_ = 0;       ///< already a MOP head
    Mask tail_ = 0;       ///< already a MOP tail
    Mask probed_ = 0;     ///< probe taken at cache version probeVersion_
    Mask covered_ = 0;    ///< probe found a resident pointer
    uint64_t probeVersion_ = 0;

    // Dependences, set by observe() and moved by the slide.
    std::array<std::array<SrcId, 2>, kMaxWindow> srcIds_;
    std::array<Mask, kMaxWindow> readers_;  ///< in-window consumers
    /** Per register (slot reg + 1): how many µops had been observed
     *  up to and including its latest writer, 0 if none. Slot 0
     *  (kNoReg) stays 0; µops without a destination write kNoDstSlot. */
    static constexpr size_t kNoDstSlot = isa::kNumLogicalRegs + 1;
    std::array<uint64_t, isa::kNumLogicalRegs + 2> lastWriter_{};
    uint64_t observed_ = 0;  ///< µops observed so far

    // Per-step scratch, indexed by window position.
    std::array<uint32_t, kMaxWindow> keys_; ///< canonKey(), candidates
    std::array<int8_t, kMaxWindow> pairOf_; ///< partner or -1

    struct PendingWrite
    {
        sched::Cycle visible;
        uint64_t pc;
        MopPointer ptr;
    };
    std::deque<PendingWrite> pending_;

    uint64_t dependentPairs_ = 0;
    uint64_t independentPairs_ = 0;
    uint64_t cycleRejects_ = 0;
    uint64_t budgetRejects_ = 0;
    uint64_t ctrlRejects_ = 0;
};

} // namespace mop::core

#endif // MOP_CORE_MOP_DETECTOR_HH
