/**
 * @file
 * Issue-slot stall attribution.
 *
 * Every cycle, each of the machine's issue slots is charged to exactly
 * one cause: slots that issued an operation (or sequenced the second
 * op of a macro-op through its shared slot) count as Useful; every
 * remaining slot is charged down a fixed priority ladder built from
 * the scheduler's waiting-entry classification, falling back to the
 * pipeline-level cause (frontend bubble, IQ/ROB backpressure, drain)
 * when the issue queue has nothing waiting at all. By construction
 * the per-cycle charges sum to the issue width, so
 *
 *     sum over causes of slots == issueWidth * cycles
 *
 * holds as a checkable invariant (IntegrityChecker::Check::
 * StallAccounting validates it on every charge and again at finish()).
 */

#ifndef MOP_OBS_STALL_HH
#define MOP_OBS_STALL_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "sched/types.hh"
#include "stats/stats.hh"
#include "verify/integrity.hh"

namespace mop::obs
{

/** The one cause each issue slot is charged to each cycle. */
enum class StallCause : uint8_t
{
    Useful,      ///< slot issued an op (or sequenced a MOP's 2nd op)
    Frontend,    ///< fetch/decode could not supply work (mispredict,
                 ///< icache miss, taken-branch break)
    IqFull,      ///< queue-stage insert blocked on issue-queue entries
    RobFull,     ///< queue-stage insert blocked on ROB entries
    WakeupWait,  ///< entries waiting on a source-operand wakeup
    SelectLoss,  ///< ready entries lost selection (width or FU)
    Replay,      ///< replayed entries serving the replay penalty
    DcacheMiss,  ///< entries waiting on an outstanding DL1-miss wakeup
    Drain,       ///< trace exhausted; pipeline draining
    /** Slots consumed by wrong-path entries (issued or occupying the
     *  queue) under --wrong-path; appended last so wrong-path-off
     *  result arrays keep their historical layout. */
    WrongPath,
    kCount,
};

constexpr size_t kNumStallCauses = size_t(StallCause::kCount);

const char *stallCauseName(StallCause c);

/**
 * Accumulates the per-cause slot counts. charge() distributes exactly
 * `width` slots per call; the invariant is enforced on every call.
 */
class StallAccounting
{
  public:
    explicit StallAccounting(int width) : width_(width) {}

    /**
     * Charge one cycle's issue slots. Useful slots come first, then
     * waiting entries by ladder priority (select-loss, dcache-miss,
     * replay, wakeup-wait); slots left over when the queue has nothing
     * to blame go to @p upstream (frontend / IQ-full / ROB-full /
     * drain, decided by the pipeline). With @p cycles > 1 the same
     * charge stands for that many identical cycles; the counts are
     * integers, so it equals @p cycles single charges exactly.
     */
    void charge(const sched::StallSnapshot &snap, StallCause upstream,
                uint64_t cycles = 1);

    int width() const { return width_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t slots(StallCause c) const { return slots_[size_t(c)]; }
    const std::array<uint64_t, kNumStallCauses> &slots() const
    {
        return slots_;
    }
    uint64_t totalSlots() const;

    /** Validate sum(causes) == width * cycles (throws on violation). */
    void verifyInvariant();

    verify::IntegrityChecker &integrity() { return integrity_; }

    void addStats(stats::StatGroup &g) const;

  private:
    int width_;
    uint64_t cycles_ = 0;
    std::array<uint64_t, kNumStallCauses> slots_{};
    verify::IntegrityChecker integrity_;
};

/**
 * Render a per-cause breakdown (raw slot counts and % of
 * width * cycles). Operates on plain data so both mopsim
 * (--report breakdown) and the mopsuite figure can use it against a
 * live run or a cached SimResult.
 */
void printBreakdown(std::ostream &os,
                    const std::array<uint64_t, kNumStallCauses> &slots,
                    int width, uint64_t cycles);

} // namespace mop::obs

#endif // MOP_OBS_STALL_HH
