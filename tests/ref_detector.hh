/**
 * @file
 * Test-only reference MOP detector and pointer cache: the per-pair
 * matrix scan over a copied window of full MicroOps and the two-map
 * pointer cache, kept verbatim (classes renamed, definitions inline)
 * as the oracle the production detector is checked against in
 * detector_diff_test.cpp. Not built into any library.
 */

#ifndef MOP_TESTS_REF_DETECTOR_HH
#define MOP_TESTS_REF_DETECTOR_HH

#include <algorithm>
#include <array>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/mop_detector.hh"
#include "core/mop_pointer.hh"
#include "isa/uop.hh"
#include "sched/types.hh"

namespace mop::test_ref
{

using core::DetectorParams;
using core::MopPointer;

class RefPointerCache
{
  public:
    /** Look up the pointer for the instruction at @p pc. */
    MopPointer lookup(uint64_t pc) const;

    /** Detection writes a pointer (after its detection latency). */
    void write(uint64_t pc, const MopPointer &p);

    /** Last-arriving filter: delete the pointer and remember the bad
     *  pairing so detection searches for an alternative. */
    void deleteAndExclude(uint64_t pc);

    /** Is (head @p pc, @p offset) excluded by the filter? */
    bool isExcluded(uint64_t pc, uint8_t offset) const;

    /** IL1 eviction: drop pointers of instructions in the line. */
    void evictLine(uint64_t line_addr, uint32_t line_bytes);

    size_t size() const { return map_.size(); }
    uint64_t writes() const { return writes_; }
    uint64_t filterDeletions() const { return filterDeletions_; }
    uint64_t lineEvictions() const { return lineEvictions_; }

  private:
    std::unordered_map<uint64_t, MopPointer> map_;
    /** head pc -> bitmask of excluded offsets (bit k = offset k). */
    std::unordered_map<uint64_t, uint8_t> excluded_;
    uint64_t writes_ = 0;
    uint64_t filterDeletions_ = 0;
    uint64_t lineEvictions_ = 0;
};

class RefDetector
{
  public:
    RefDetector(const DetectorParams &params, RefPointerCache &cache);

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
    struct Item
    {
        isa::MicroOp u;
        uint64_t dynId = 0;
        bool head = false;
        bool tail = false;
    };

    /** Producer-aware operand identity: within-window producer index,
     *  or the (negative-offset) register name for external values. */
    struct SrcId
    {
        int prod = -1;   ///< window index of producer, -1 if external
        int16_t reg = isa::kNoReg;

        bool
        operator==(const SrcId &o) const
        {
            return prod == o.prod && reg == o.reg;
        }
    };

    void detectStep(sched::Cycle now);
    bool controlPathOk(const std::vector<Item> &win, int i, int j,
                       bool &ctrl) const;
    bool sourceBudgetOk(int i, int j) const;
    bool preciseCycleFree(const std::vector<Item> &win, int i,
                          int j) const;
    void emitPointer(std::vector<Item> &win, int i, int j,
                     bool independent, bool ctrl, sched::Cycle now);

    DetectorParams params_;
    RefPointerCache &cache_;

    std::vector<Item> prev_;
    std::vector<Item> cur_;
    sched::Cycle lastNow_ = 0;

    // Per-step scratch, indexed by window position. Members (not
    // locals) so steady-state detection allocates nothing per group.
    std::vector<Item> win_;
    std::vector<std::array<SrcId, 2>> srcIds_;
    std::vector<int> pairOf_;  ///< window partner or -1 (precise mode)

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

inline MopPointer
RefPointerCache::lookup(uint64_t pc) const
{
    auto it = map_.find(pc);
    return it == map_.end() ? MopPointer{} : it->second;
}

inline void
RefPointerCache::write(uint64_t pc, const MopPointer &p)
{
    if (!p.valid())
        return;
    if (isExcluded(pc, p.offset))
        return;
    map_[pc] = p;
    ++writes_;
}

inline void
RefPointerCache::deleteAndExclude(uint64_t pc)
{
    auto it = map_.find(pc);
    if (it == map_.end())
        return;
    excluded_[pc] |= uint8_t(1u << (it->second.offset & 7));
    map_.erase(it);
    ++filterDeletions_;
}

inline bool
RefPointerCache::isExcluded(uint64_t pc, uint8_t offset) const
{
    auto it = excluded_.find(pc);
    return it != excluded_.end() && (it->second >> (offset & 7)) & 1;
}

inline void
RefPointerCache::evictLine(uint64_t line_addr, uint32_t line_bytes)
{
    bool any = false;
    for (uint64_t pc = line_addr; pc < line_addr + line_bytes; pc += 4)
        any = map_.erase(pc) > 0 || any;
    if (any)
        ++lineEvictions_;
}

inline
RefDetector::RefDetector(const DetectorParams &params,
                         RefPointerCache &cache)
    : params_(params), cache_(cache)
{
}

inline void
RefDetector::observe(const isa::MicroOp &u, uint64_t dyn_id)
{
    // Defensive: if a caller feeds more than a group width without an
    // endGroup() call, split the group at the last known cycle.
    if (int(cur_.size()) >= params_.groupWidth)
        endGroup(lastNow_);
    cur_.push_back(Item{u, dyn_id, false, false});
}

inline void
RefDetector::endGroup(sched::Cycle now)
{
    lastNow_ = now;
    if (cur_.empty())
        return;
    detectStep(now);
    std::swap(prev_, cur_);  // keep both buffers' capacity
    cur_.clear();
}

inline void
RefDetector::drain(sched::Cycle now)
{
    while (!pending_.empty() && pending_.front().visible <= now) {
        cache_.write(pending_.front().pc, pending_.front().ptr);
        pending_.pop_front();
    }
}

inline bool
RefDetector::controlPathOk(const std::vector<Item> &win, int i, int j,
                           bool &ctrl) const
{
    int taken = 0;
    for (int k = i; k < j; ++k) {
        const isa::MicroOp &u = win[size_t(k)].u;
        if (k > i && isa::opIsIndirectControl(u.op))
            return false;
        if (k > i && u.isControl() && u.taken)
            ++taken;
    }
    if (taken > 1)
        return false;
    ctrl = taken == 1;
    return true;
}

inline bool
RefDetector::sourceBudgetOk(int i, int j) const
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

inline bool
RefDetector::preciseCycleFree(const std::vector<Item> &win, int i,
                              int j) const
{
    // Merge already-formed pairs (partner links) into nodes, then ask
    // whether fusing node(i) and node(j) closes a directed cycle:
    // i.e. whether a path exists between them through an intermediate.
    int n = int(win.size());
    std::vector<int> node;
    node.resize(size_t(n));
    for (int k = 0; k < n; ++k)
        node[size_t(k)] = k;
    std::unordered_map<uint64_t, int> by_id;
    for (int k = 0; k < n; ++k)
        by_id[win[size_t(k)].dynId] = k;
    for (int k = 0; k < n; ++k) {
        if (pairOf_[size_t(k)] >= 0) {
            int p = std::min(k, pairOf_[size_t(k)]);
            node[size_t(k)] = node[size_t(p)];
        }
    }
    auto reaches = [&](int from, int to, bool need_intermediate) {
        std::vector<int> stack;
        std::vector<bool> seen(size_t(n), false);
        // Seed with direct successors of `from`.
        for (int k = 0; k < n; ++k) {
            if (node[size_t(k)] == from)
                continue;
            for (const SrcId &s : srcIds_[size_t(k)]) {
                if (s.prod >= 0 && node[size_t(s.prod)] == from) {
                    if (node[size_t(k)] == to && !need_intermediate)
                        return true;
                    if (node[size_t(k)] != to && !seen[size_t(k)]) {
                        seen[size_t(k)] = true;
                        stack.push_back(k);
                    }
                }
            }
        }
        while (!stack.empty()) {
            int v = stack.back();
            stack.pop_back();
            for (int k = 0; k < n; ++k) {
                if (seen[size_t(k)])
                    continue;
                bool edge = false;
                for (const SrcId &s : srcIds_[size_t(k)])
                    edge = edge ||
                           (s.prod >= 0 &&
                            node[size_t(s.prod)] == node[size_t(v)]);
                if (!edge)
                    continue;
                if (node[size_t(k)] == to)
                    return true;
                seen[size_t(k)] = true;
                stack.push_back(k);
            }
        }
        return false;
    };
    int a = node[size_t(i)], b = node[size_t(j)];
    if (reaches(a, b, /*need_intermediate=*/true))
        return false;
    if (reaches(b, a, /*need_intermediate=*/false))
        return false;
    return true;
}

inline void
RefDetector::emitPointer(std::vector<Item> &win, int i, int j,
                         bool independent, bool ctrl, sched::Cycle now)
{
    Item &h = win[size_t(i)];
    Item &t = win[size_t(j)];
    h.head = true;
    t.tail = true;
    pairOf_[size_t(i)] = j;
    pairOf_[size_t(j)] = i;
    MopPointer p;
    p.offset = uint8_t(t.dynId - h.dynId);
    p.ctrl = ctrl;
    p.independent = independent;
    // Adjacent single-source links add no external incoming edge, so
    // they may extend a larger MOP without risking a merged-chain
    // cycle (see MopPointer::chainSafe).
    p.chainSafe = !independent && p.offset == 1 && t.u.numSrcs() == 1;
    p.tailPc = t.u.pc;
    pending_.push_back(
        PendingWrite{now + sched::Cycle(params_.detectLatency), h.u.pc, p});
    if (independent)
        ++independentPairs_;
    else
        ++dependentPairs_;
}

inline void
RefDetector::detectStep(sched::Cycle now)
{
    // Two-group window: previous group in the top-left of the matrix,
    // current group in the bottom-right (Figure 9).
    std::vector<Item> &win = win_;
    win.clear();
    win.reserve(prev_.size() + cur_.size());
    for (auto &it : prev_)
        win.push_back(it);
    for (auto &it : cur_)
        win.push_back(it);
    int n = int(win.size());

    // Producer-aware source identities (rename semantics: a source
    // names its most recent in-window writer). The last-writer table
    // is a flat per-register array; the window is tiny, so refilling
    // the touched slots beats any hashing.
    srcIds_.assign(size_t(n), {SrcId{}, SrcId{}});
    pairOf_.assign(size_t(n), -1);
    {
        std::array<int, isa::kNumLogicalRegs> last_writer;
        last_writer.fill(-1);
        for (int k = 0; k < n; ++k) {
            const isa::MicroOp &u = win[size_t(k)].u;
            for (int s = 0; s < 2; ++s) {
                int16_t r = u.src[size_t(s)];
                if (r == isa::kNoReg)
                    continue;
                int lw = last_writer[size_t(r)];
                if (lw >= 0)
                    srcIds_[size_t(k)][size_t(s)] = SrcId{lw, isa::kNoReg};
                else
                    srcIds_[size_t(k)][size_t(s)] = SrcId{-1, r};
            }
            if (u.hasDst())
                last_writer[size_t(u.dst)] = k;
        }
    }
    // Dependent pass: scan each head's column for the first admissible
    // dependence mark (Figure 9's priority decoder).
    for (int i = 0; i < n; ++i) {
        Item &hi = win[size_t(i)];
        // With MOP sizes above 2, a tail may head the next chain link
        // through its own pointer (Section 4.3 future work).
        bool chainable = params_.maxMopSize > 2 && hi.tail && !hi.head;
        if ((hi.head || hi.tail) && !chainable)
            continue;
        if (!hi.u.isValueGenCandidate())
            continue;
        if (cache_.lookup(hi.u.pc).valid())
            continue;  // this static instruction is already covered
        bool saw_mark = false;
        for (int j = i + 1; j < n; ++j) {
            Item &tj = win[size_t(j)];
            bool depends = srcIds_[size_t(j)][0].prod == i ||
                           srcIds_[size_t(j)][1].prod == i;
            if (!depends)
                continue;
            int mark = tj.u.numSrcs();
            bool ok = !tj.head && !tj.tail && tj.u.isMopCandidate();
            uint64_t off = tj.dynId - hi.dynId;
            ok = ok && off >= 1 && off <= uint64_t(params_.maxOffset);
            ok = ok && !cache_.isExcluded(hi.u.pc, uint8_t(off));
            if (ok && params_.cycleHeuristic && mark == 2 && saw_mark) {
                ++cycleRejects_;
                ok = false;
            }
            if (ok && !params_.cycleHeuristic &&
                !preciseCycleFree(win, i, j)) {
                ++cycleRejects_;
                ok = false;
            }
            if (ok && params_.camRestrict && !sourceBudgetOk(i, j)) {
                ++budgetRejects_;
                ok = false;
            }
            bool ctrl = false;
            if (ok && !controlPathOk(win, i, j, ctrl)) {
                ++ctrlRejects_;
                ok = false;
            }
            if (ok) {
                emitPointer(win, i, j, false, ctrl, now);
                break;
            }
            saw_mark = true;
        }
    }

    // Independent pass: unclaimed candidate pairs with identical
    // producer-aware sources (or none) are grouped too (Section 5.4.1).
    if (params_.independentMops) {
        auto canon = [&](int k) {
            std::array<SrcId, 2> s = srcIds_[size_t(k)];
            if (s[1].prod >= 0 || s[1].reg != isa::kNoReg) {
                bool swap = s[0].prod < s[1].prod ||
                            (s[0].prod == s[1].prod && s[0].reg > s[1].reg);
                if (swap)
                    std::swap(s[0], s[1]);
            }
            return s;
        };
        for (int i = 0; i < n; ++i) {
            Item &hi = win[size_t(i)];
            if (hi.head || hi.tail || !hi.u.isMopCandidate())
                continue;
            if (cache_.lookup(hi.u.pc).valid())
                continue;
            auto hs = canon(i);
            for (int j = i + 1; j < n; ++j) {
                Item &tj = win[size_t(j)];
                if (tj.head || tj.tail || !tj.u.isMopCandidate())
                    continue;
                uint64_t off = tj.dynId - hi.dynId;
                if (off < 1 || off > uint64_t(params_.maxOffset))
                    continue;
                if (cache_.isExcluded(hi.u.pc, uint8_t(off)))
                    continue;
                if (!(canon(j)[0] == hs[0] && canon(j)[1] == hs[1]))
                    continue;
                bool ctrl = false;
                if (!controlPathOk(win, i, j, ctrl))
                    continue;
                emitPointer(win, i, j, true, ctrl, now);
                break;
            }
        }
    }

    // Persist head/tail flags back into the owning groups.
    for (int k = 0; k < n; ++k) {
        Item &src = win[size_t(k)];
        Item &dst = size_t(k) < prev_.size()
                        ? prev_[size_t(k)]
                        : cur_[size_t(k) - prev_.size()];
        dst.head = src.head;
        dst.tail = src.tail;
    }
}

} // namespace mop::test_ref

#endif // MOP_TESTS_REF_DETECTOR_HH
