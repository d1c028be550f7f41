#include "core/mop_detector.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace mop::core
{

namespace
{

/** Window positions strictly above @p i. */
constexpr uint32_t
above(int i)
{
    return ~((uint32_t(2) << i) - 1);
}

/** Window positions strictly between @p i and @p j (i < j). */
constexpr uint32_t
between(int i, int j)
{
    return ((uint32_t(1) << j) - 1) & above(i);
}

} // namespace

MopDetector::MopDetector(const DetectorParams &params,
                         MopPointerCache &cache)
    : params_(params), cache_(cache)
{
    std::ostringstream err;
    if (params_.maxOffset < 1 || params_.maxOffset > 7)
        err << "maxOffset " << params_.maxOffset
            << " is outside the 3-bit pointer range 1..7";
    else if (params_.groupWidth < 1 || params_.groupWidth > kMaxWindow / 2)
        err << "groupWidth " << params_.groupWidth << " is outside 1.."
            << kMaxWindow / 2 << " (two groups fill a " << kMaxWindow
            << "-bit window mask)";
    if (!err.str().empty())
        throw std::invalid_argument("MOP detector: " + err.str());
}

void
MopDetector::observe(const isa::MicroOp &u, uint64_t dyn_id)
{
    // Defensive: if a caller feeds more than a group width without an
    // endGroup() call, split the group at the last known cycle.
    if (curCount_ >= params_.groupWidth)
        endGroup(lastNow_);
    int k = prevCount_ + curCount_++;
    Item &it = items_[size_t(k)];
    it.pc = u.pc;
    it.dynId = dyn_id;
    it.src = u.src;
    Mask bit = Mask(1) << k;

    // Producer-aware source identities (rename semantics: a source
    // names its most recent in-window writer) and the producers'
    // columns of dependence marks. kNoReg reads slot 0, which is never
    // written, so it comes out as the empty identity.
    uint64_t base = observed_ - uint64_t(k);  // position 0's index
    readers_[size_t(k)] = 0;
    for (size_t s = 0; s < 2; ++s) {
        uint64_t writer = lastWriter_[size_t(u.src[s] + 1)];
        SrcId &id = srcIds_[size_t(k)][s];
        if (writer > base) {
            id = SrcId{int8_t(writer - 1 - base), int8_t(isa::kNoReg)};
            readers_[size_t(id.prod)] |= bit;
        } else {
            id = SrcId{-1, int8_t(u.src[s])};
        }
    }
    lastWriter_[u.hasDst() ? size_t(u.dst + 1) : kNoDstSlot] = ++observed_;
    if (u.isMopCandidate()) {
        cand_ |= bit;
        if (u.hasDst())
            valueGen_ |= bit;
    }
    if (u.isControl() && u.taken)
        takenCtrl_ |= bit;
    if (isa::opIsIndirectControl(u.op))
        indirect_ |= bit;
}

void
MopDetector::endGroup(sched::Cycle now)
{
    lastNow_ = now;
    if (curCount_ == 0)
        return;
    detectStep(now);
    // Slide: the current group becomes the previous one. Sources whose
    // producer leaves the window become external register names.
    int shift = prevCount_;
    for (int k = 0; k < curCount_; ++k) {
        Item &it = items_[size_t(k)];
        it = items_[size_t(k + shift)];
        readers_[size_t(k)] = readers_[size_t(k + shift)] >> shift;
        for (size_t s = 0; s < 2; ++s) {
            SrcId &id = srcIds_[size_t(k)][s];
            id = srcIds_[size_t(k + shift)][s];
            if (id.prod >= shift)
                id.prod = int8_t(id.prod - shift);
            else if (id.prod >= 0)
                id = SrcId{-1, int8_t(it.src[s])};
        }
    }
    for (Mask *m : {&cand_, &valueGen_, &takenCtrl_, &indirect_, &head_,
                    &tail_, &probed_, &covered_})
        *m >>= shift;
    prevCount_ = curCount_;
    curCount_ = 0;
}

void
MopDetector::drain(sched::Cycle now)
{
    while (!pending_.empty() && pending_.front().visible <= now) {
        cache_.write(pending_.front().pc, pending_.front().ptr);
        pending_.pop_front();
    }
}

void
MopDetector::refreshProbes()
{
    if (cache_.version() != probeVersion_) {
        probeVersion_ = cache_.version();
        probed_ = 0;
    }
    for (Mask stale = cand_ & ~probed_; stale; stale &= stale - 1) {
        int k = std::countr_zero(stale);
        PointerProbe p = cache_.probe(items_[size_t(k)].pc);
        items_[size_t(k)].excluded = p.excluded;
        Mask bit = Mask(1) << k;
        covered_ = p.ptr.valid() ? covered_ | bit : covered_ & ~bit;
    }
    probed_ |= cand_;
}

bool
MopDetector::controlPathOk(int i, int j, bool &ctrl) const
{
    // At most one taken direct control transfer, and no indirect one,
    // strictly between head and tail (the pointer's control bit).
    Mask path = between(i, j);
    Mask taken = takenCtrl_ & path;
    if ((indirect_ & path) || (taken & (taken - 1)))
        return false;
    ctrl = taken != 0;
    return true;
}

bool
MopDetector::sourceBudgetOk(int i, int j) const
{
    // Union of both ops' source identities, eliding the internal
    // head->tail edge; must fit the two CAM tag comparators.
    std::array<SrcId, 4> u{};
    int n = 0;
    auto add = [&](const SrcId &s) {
        if (s.prod < 0 && s.reg == isa::kNoReg)
            return;
        for (int k = 0; k < n; ++k)
            if (u[size_t(k)] == s)
                return;
        u[size_t(n++)] = s;
    };
    for (const SrcId &s : srcIds_[size_t(i)])
        add(s);
    for (const SrcId &s : srcIds_[size_t(j)]) {
        if (s.prod == i)
            continue;  // elided internal edge
        add(s);
    }
    return n <= 2;
}

bool
MopDetector::preciseCycleFree(int i, int j) const
{
    // Merge already-formed pairs (partner links) into nodes, then ask
    // whether fusing node(i) and node(j) closes a directed cycle:
    // i.e. whether a path exists between them through an intermediate.
    // A node is the mask of the items merged into it; an edge runs
    // from a node to every reader of one of its items.
    int n = prevCount_ + curCount_;
    std::array<int8_t, kMaxWindow> node;
    std::array<Mask, kMaxWindow> members{};
    for (int k = 0; k < n; ++k) {
        int partner = pairOf_[size_t(k)];
        int p = partner >= 0 ? std::min(k, partner) : k;
        node[size_t(k)] = p == k ? int8_t(k) : node[size_t(p)];
        members[size_t(node[size_t(k)])] |= Mask(1) << k;
    }
    auto readersOf = [&](Mask items) {
        Mask r = 0;
        for (; items; items &= items - 1)
            r |= readers_[size_t(std::countr_zero(items))];
        return r;
    };
    auto nodesOf = [&](Mask items) {
        Mask m = 0;
        for (; items; items &= items - 1)
            m |= members[size_t(node[size_t(std::countr_zero(items))])];
        return m;
    };
    auto reaches = [&](int from, int to, bool need_intermediate) {
        Mask from_m = members[size_t(from)];
        Mask to_m = members[size_t(to)];
        Mask seen = readersOf(from_m) & ~from_m;
        if (!need_intermediate && (seen & to_m))
            return true;
        seen &= ~to_m;
        for (;;) {
            Mask reach = readersOf(nodesOf(seen));
            if (reach & to_m)
                return true;
            Mask grown = seen | reach;
            if (grown == seen)
                return false;
            seen = grown;
        }
    };
    int a = node[size_t(i)], b = node[size_t(j)];
    if (reaches(a, b, /*need_intermediate=*/true))
        return false;
    if (reaches(b, a, /*need_intermediate=*/false))
        return false;
    return true;
}

uint32_t
MopDetector::canonKey(int k) const
{
    // The two sources are swapped when (prod, reg) of the first sorts
    // before the second's by prod ascending, then reg descending, and
    // the second names a source. Encoding a SrcId as
    // (prod + 1) << 8 | (127 - reg) turns that order into an integer
    // compare, so the key needs no branch.
    auto code = [](const SrcId &s) {
        return uint32_t(s.prod + 1) << 8 | uint32_t(127 - s.reg);
    };
    constexpr uint32_t kNone = code(SrcId{});
    uint32_t c0 = code(srcIds_[size_t(k)][0]);
    uint32_t c1 = code(srcIds_[size_t(k)][1]);
    bool swap = c1 != kNone && c0 < c1;
    return swap ? c1 << 16 | c0 : c0 << 16 | c1;
}

void
MopDetector::emitPointer(int i, int j, bool independent, bool ctrl,
                         sched::Cycle now)
{
    const Item &h = items_[size_t(i)];
    const Item &t = items_[size_t(j)];
    head_ |= Mask(1) << i;
    tail_ |= Mask(1) << j;
    pairOf_[size_t(i)] = int8_t(j);
    pairOf_[size_t(j)] = int8_t(i);
    MopPointer p;
    p.offset = uint8_t(t.dynId - h.dynId);
    p.ctrl = ctrl;
    p.independent = independent;
    // Adjacent single-source links add no external incoming edge, so
    // they may extend a larger MOP without risking a merged-chain
    // cycle (see MopPointer::chainSafe).
    p.chainSafe = !independent && p.offset == 1 && t.numSrcs() == 1;
    p.tailPc = t.pc;
    pending_.push_back(
        PendingWrite{now + sched::Cycle(params_.detectLatency), h.pc, p});
    if (independent)
        ++independentPairs_;
    else
        ++dependentPairs_;
}

void
MopDetector::detectStep(sched::Cycle now)
{
    // Two-group window: previous group in the top-left of the matrix,
    // current group in the bottom-right (Figure 9).
    int n = prevCount_ + curCount_;
    const uint64_t max_off = uint64_t(params_.maxOffset);

    // Pairs formed in this step, for precise cycle detection.
    for (int k = 0; k < n; ++k)
        pairOf_[size_t(k)] = -1;

    // A covered head (its static instruction already has a pointer) is
    // never scanned.
    refreshProbes();

    // Dependent pass: scan each head's column for the first admissible
    // dependence mark (Figure 9's priority decoder).
    for (Mask heads = valueGen_ & ~covered_; heads; heads &= heads - 1) {
        int i = std::countr_zero(heads);
        Mask hb = Mask(1) << i;
        // With MOP sizes above 2, a tail may head the next chain link
        // through its own pointer (Section 4.3 future work).
        bool chainable = params_.maxMopSize > 2 && (tail_ & hb) &&
                         !(head_ & hb);
        if (((head_ | tail_) & hb) && !chainable)
            continue;
        const Item &hi = items_[size_t(i)];
        // Only unclaimed candidate marks can be selected, so only they
        // are visited; every earlier mark in the column, selectable or
        // not, counts for the heuristic's first-mark test.
        Mask column = readers_[size_t(i)];
        for (Mask marks = column & cand_ & ~(head_ | tail_); marks;
             marks &= marks - 1) {
            int j = std::countr_zero(marks);
            const Item &tj = items_[size_t(j)];
            uint64_t off = tj.dynId - hi.dynId;
            if (off < 1 || off > max_off || ((hi.excluded >> (off & 7)) & 1))
                continue;
            bool saw_mark = column & ((Mask(1) << j) - 1);
            if (params_.cycleHeuristic && tj.numSrcs() == 2 && saw_mark) {
                ++cycleRejects_;
                continue;
            }
            if (!params_.cycleHeuristic && !preciseCycleFree(i, j)) {
                ++cycleRejects_;
                continue;
            }
            if (params_.camRestrict && !sourceBudgetOk(i, j)) {
                ++budgetRejects_;
                continue;
            }
            bool ctrl = false;
            if (!controlPathOk(i, j, ctrl)) {
                ++ctrlRejects_;
                continue;
            }
            emitPointer(i, j, false, ctrl, now);
            break;
        }
    }

    // Independent pass: unclaimed candidate pairs with identical
    // producer-aware sources (or none) are grouped too (Section 5.4.1).
    if (!params_.independentMops)
        return;
    for (Mask m = cand_; m; m &= m - 1) {
        int k = std::countr_zero(m);
        keys_[size_t(k)] = canonKey(k);
    }
    for (Mask heads = cand_ & ~covered_; heads; heads &= heads - 1) {
        int i = std::countr_zero(heads);
        if ((head_ | tail_) & (Mask(1) << i))
            continue;
        const Item &hi = items_[size_t(i)];
        for (Mask tails = cand_ & ~(head_ | tail_) & above(i); tails;
             tails &= tails - 1) {
            int j = std::countr_zero(tails);
            if (keys_[size_t(j)] != keys_[size_t(i)])
                continue;
            uint64_t off = items_[size_t(j)].dynId - hi.dynId;
            if (off < 1 || off > max_off)
                continue;
            if ((hi.excluded >> (off & 7)) & 1)
                continue;
            bool ctrl = false;
            if (!controlPathOk(i, j, ctrl))
                continue;
            emitPointer(i, j, true, ctrl, now);
            break;
        }
    }
}

} // namespace mop::core
