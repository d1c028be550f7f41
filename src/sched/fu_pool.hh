/**
 * @file
 * Functional-unit pool: tracks per-kind unit availability per cycle.
 *
 * Pipelined units accept a new op every cycle (initiation interval 1);
 * unpipelined units (divides) stay busy for their full latency.
 * Reservations are made at select time, possibly for a future cycle
 * (the second op of a macro-op executes one cycle after the first).
 * Because every op traverses a fixed dispatch depth, FU contention at
 * select time is equivalent to contention at execute.
 */

#ifndef MOP_SCHED_FU_POOL_HH
#define MOP_SCHED_FU_POOL_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/types.hh"
#include "stats/stats.hh"

namespace mop::sched
{

class FuPool
{
  public:
    explicit FuPool(const std::array<int, isa::kNumFuKinds> &counts);

    /** Can an op of this class be accepted at cycle @p c? */
    bool available(isa::OpClass op, Cycle c) const;

    /**
     * Can a whole entry's op sequence be accepted, op k initiating at
     * cycle @p start + k? Per-op available() checks are not enough: an
     * unpipelined op at slot j occupies its unit for the op's full
     * latency, so a later same-kind op of the same entry can pass an
     * independent check at start+k and then fail its reserve(). This
     * simulates the exact reservation sequence reserve() will perform,
     * so a granted entry's reservations succeed by construction.
     */
    bool availableSeq(const isa::OpClass *ops, int n, Cycle start) const;

    /** Reserve a unit for an op of this class starting at cycle @p c.
     *  Must be preceded by a successful available() check. */
    void reserve(isa::OpClass op, Cycle c);

    /** Cumulative reservations made against pool @p kind. */
    uint64_t reservations(isa::FuKind kind) const
    {
        return totalReserved_[size_t(kind)];
    }

    /** Register per-pool utilization counters as fu.<kind>. */
    void addStats(stats::StatGroup &g) const;

  private:
    static constexpr size_t kRing = 64;  ///< reservation horizon

    int freeUnits(size_t kind, Cycle c) const;
    int reservedAt(size_t kind, Cycle c) const;

    std::array<int, isa::kNumFuKinds> counts_;
    /** Per-unit busy-until (exclusive) for unpipelined occupancy. */
    std::array<std::vector<Cycle>, isa::kNumFuKinds> busyUntil_;
    /** Pools that execute an unpipelined class (IntMultDiv, FpMultDiv):
     *  the only ones whose busyUntil_ entries ever leave 0. */
    std::array<bool, isa::kNumFuKinds> servesUnpipelined_{};
    /** Stamped ring of initiation counts per cycle. */
    std::array<std::array<std::pair<Cycle, int>, kRing>,
               isa::kNumFuKinds> reserved_{};
    /** Lifetime reservations per pool (utilization reporting). */
    std::array<uint64_t, isa::kNumFuKinds> totalReserved_{};
    /** Reusable scratch for availableSeq's unpipelined slow path
     *  (capacity persists across calls, so no steady-state allocs). */
    mutable std::array<std::vector<Cycle>, isa::kNumFuKinds> seqScratch_;
};

} // namespace mop::sched

#endif // MOP_SCHED_FU_POOL_HH
