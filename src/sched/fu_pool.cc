#include "sched/fu_pool.hh"

#include <cassert>

namespace mop::sched
{

FuPool::FuPool(const std::array<int, isa::kNumFuKinds> &counts)
    : counts_(counts)
{
    for (size_t k = 0; k < isa::kNumFuKinds; ++k)
        busyUntil_[k].assign(size_t(counts[k]), 0);
    for (size_t c = 0; c < isa::kNumOpClasses; ++c) {
        auto op = isa::OpClass(c);
        auto kind = size_t(isa::opFuKind(op));
        if (isa::opUnpipelined(op) && kind < isa::kNumFuKinds)
            servesUnpipelined_[kind] = true;
    }
}

int
FuPool::freeUnits(size_t kind, Cycle c) const
{
    // Only reserve() of an unpipelined op moves a busy-until time, so
    // every other pool's units are all free at every cycle.
    if (!servesUnpipelined_[kind])
        return counts_[kind];
    int n = 0;
    for (Cycle b : busyUntil_[kind])
        if (b <= c)
            ++n;
    return n;
}

int
FuPool::reservedAt(size_t kind, Cycle c) const
{
    const auto &slot = reserved_[kind][c % kRing];
    return slot.first == c ? slot.second : 0;
}

bool
FuPool::available(isa::OpClass op, Cycle c) const
{
    auto kind = size_t(isa::opFuKind(op));
    if (kind >= isa::kNumFuKinds)
        return true;  // no FU needed
    return freeUnits(kind, c) - reservedAt(kind, c) > 0;
}

bool
FuPool::availableSeq(const isa::OpClass *ops, int n, Cycle start) const
{
    // Single ops — the overwhelming majority of entries — cannot
    // self-conflict at all.
    if (n == 1)
        return available(ops[0], start);

    // Fast path: with no unpipelined op in the sequence, intra-entry
    // occupancy cannot arise — pipelined ops initiate on distinct
    // cycles (start+k), so per-op checks are exact. This runs for
    // every ready candidate every select cycle; the scratch
    // simulation below runs only for divide-carrying entries.
    bool unpipelined = false;
    for (int k = 0; k < n; ++k)
        if (isa::opUnpipelined(ops[k])) {
            unpipelined = true;
            break;
        }
    if (!unpipelined) {
        for (int k = 0; k < n; ++k)
            if (!available(ops[k], start + Cycle(k)))
                return false;
        return true;
    }

    // Scratch busy-until copies, taken lazily per kind, absorb the
    // unit occupancy the sequence's own unpipelined ops would commit.
    // The members are reused across calls so steady state allocates
    // nothing. Pipelined ops initiate on distinct cycles (start+k),
    // so their ring counts cannot collide within the sequence and
    // only the real ring needs consulting.
    auto &scratch = seqScratch_;
    std::array<bool, isa::kNumFuKinds> copied{};
    for (int k = 0; k < n; ++k) {
        Cycle c = start + Cycle(k);
        auto kind = size_t(isa::opFuKind(ops[k]));
        if (kind >= isa::kNumFuKinds)
            continue;  // no FU needed
        if (!copied[kind]) {
            scratch[kind] = busyUntil_[kind];
            copied[kind] = true;
        }
        int free_units = 0;
        for (Cycle b : scratch[kind])
            if (b <= c)
                ++free_units;
        if (free_units - reservedAt(kind, c) <= 0)
            return false;
        if (isa::opUnpipelined(ops[k])) {
            for (Cycle &b : scratch[kind]) {
                if (b <= c) {
                    b = c + Cycle(isa::opLatency(ops[k]));
                    break;
                }
            }
        }
    }
    return true;
}

void
FuPool::reserve(isa::OpClass op, Cycle c)
{
    auto kind = size_t(isa::opFuKind(op));
    if (kind >= isa::kNumFuKinds)
        return;
    assert(available(op, c));
    ++totalReserved_[kind];
    auto &slot = reserved_[kind][c % kRing];
    if (slot.first != c)
        slot = {c, 0};
    ++slot.second;
    if (isa::opUnpipelined(op)) {
        for (auto &b : busyUntil_[kind]) {
            if (b <= c) {
                b = c + Cycle(isa::opLatency(op));
                return;
            }
        }
        assert(false && "unpipelined reserve with no free unit");
    }
}

void
FuPool::addStats(stats::StatGroup &g) const
{
    static const char *kKindName[isa::kNumFuKinds] = {
        "intAlu", "intMultDiv", "fpAlu", "fpMultDiv", "memPort",
    };
    for (size_t k = 0; k < isa::kNumFuKinds; ++k) {
        const uint64_t *n = &totalReserved_[k];
        g.addFormula(std::string("fu.") + kKindName[k] + ".reservations",
                     [n] { return double(*n); },
                     "ops initiated on this pool");
    }
}

} // namespace mop::sched
