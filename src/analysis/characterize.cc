#include "analysis/characterize.hh"

#include <algorithm>
#include <array>
#include <deque>

namespace mop::analysis
{

namespace
{

/** Instruction-level view: store micro-op pairs merged into one record
 *  (the paper counts each store once, as its address generation). */
struct InsnRec
{
    isa::OpClass op = isa::OpClass::Nop;
    int16_t dst = isa::kNoReg;
    /** Sources that form groupable (candidate) dependences: for a
     *  store, the address register only. */
    std::array<int16_t, 2> candSrc = {isa::kNoReg, isa::kNoReg};
    /** All sources, including a store's data register. */
    std::array<int16_t, 3> allSrc = {isa::kNoReg, isa::kNoReg,
                                     isa::kNoReg};

    bool isCandidate() const { return isa::opIsMopCandidate(op); }
    bool
    isValueGenCandidate() const
    {
        return isCandidate() && dst != isa::kNoReg;
    }
};

/**
 * Up to @p max_insts merged instruction records from @p src, one at a
 * time. A store's StoreData half folds its source into the store's
 * record, so a record is handed out only once the next one starts (or
 * the budget or the stream ends): memory is one record at any budget.
 * Once the budget's last record has started, no further µop is read,
 * so that record's StoreData half is not folded in.
 */
class InsnStream
{
  public:
    InsnStream(trace::TraceSource &src, uint64_t max_insts)
        : src_(src), left_(max_insts)
    {
    }

    /** The next record into @p out; false when none is left. */
    bool
    next(InsnRec &out)
    {
        isa::MicroOp u;
        while (left_ > 0 && !ended_) {
            if (!src_.next(u)) {
                ended_ = true;
                break;
            }
            if (u.op == isa::OpClass::Nop)
                continue;
            if (!u.firstUop) {
                // StoreData half: fold its source into the store record.
                if (holding_)
                    held_.allSrc[2] = u.src[0];
                continue;
            }
            InsnRec r;
            r.op = u.op;
            r.dst = u.dst;
            r.candSrc = u.src;
            r.allSrc = {u.src[0], u.src[1], isa::kNoReg};
            --left_;
            if (holding_) {
                out = held_;
                held_ = r;
                return true;
            }
            held_ = r;
            holding_ = true;
        }
        if (!holding_)
            return false;
        out = held_;
        holding_ = false;
        return true;
    }

  private:
    trace::TraceSource &src_;
    uint64_t left_;         ///< records that may still start
    InsnRec held_;          ///< started, not yet handed out
    bool holding_ = false;
    bool ended_ = false;    ///< the source is exhausted
};

} // namespace

DistanceResult
characterizeDistance(trace::TraceSource &src, uint64_t max_insts)
{
    InsnStream insns(src, max_insts);
    DistanceResult res;

    struct Pending
    {
        int64_t idx = -1;
        bool anyConsumer = false;
        bool resolved = false;
    };
    std::array<Pending, isa::kNumLogicalRegs> pend{};

    auto finalize = [&](Pending &p) {
        if (p.idx < 0)
            return;
        if (!p.resolved) {
            if (p.anyConsumer)
                ++res.notCandidate;
            else
                ++res.dead;
        }
        p = Pending{};
    };

    int64_t i = 0;
    for (InsnRec r; insns.next(r); ++i) {
        // Consumer side: any read keeps the producer "live"; a read by
        // a candidate through a groupable operand resolves the bucket.
        for (int16_t reg : r.allSrc) {
            if (reg == isa::kNoReg)
                continue;
            Pending &p = pend[size_t(reg)];
            if (p.idx < 0)
                continue;
            p.anyConsumer = true;
            if (p.resolved || !r.isCandidate())
                continue;
            bool groupable_edge = r.candSrc[0] == reg ||
                                  r.candSrc[1] == reg;
            if (!groupable_edge)
                continue;
            int64_t dist = i - p.idx;
            if (dist <= 3)
                ++res.dist1to3;
            else if (dist <= 7)
                ++res.dist4to7;
            else
                ++res.dist8plus;
            p.resolved = true;
        }
        // Producer side.
        if (r.dst != isa::kNoReg) {
            Pending &p = pend[size_t(r.dst)];
            finalize(p);
            if (r.isValueGenCandidate()) {
                ++res.valueGenCands;
                p.idx = i;
            }
        }
    }
    res.totalInsts = uint64_t(i);
    for (auto &p : pend)
        finalize(p);
    return res;
}

GroupingResult
characterizeGrouping(trace::TraceSource &src, uint64_t max_insts,
                     int max_mop_size, int scope)
{
    GroupingResult res;

    // A chain headed at instruction i reaches at most i + scope - 1,
    // and no later head can claim i, so the records of one scope are
    // all the state the greedy pass needs: win holds instructions
    // base .. base + win.size() - 1.
    struct Slot
    {
        InsnRec r;
        /** Producer index of each groupable source (rename semantics). */
        std::array<int64_t, 2> prod = {-1, -1};
        bool claimed = false;
    };
    const size_t window = size_t(std::max(scope, 1));
    std::deque<Slot> win;
    int64_t base = 0;
    std::array<int64_t, isa::kNumLogicalRegs> last_writer;
    last_writer.fill(-1);

    auto grouped_count = [&](const Slot &s) {
        if (s.r.isValueGenCandidate())
            ++res.groupedValueGen;
        else
            ++res.groupedNonValueGen;
    };

    // Greedy chain from the oldest record: repeatedly attach the
    // nearest unclaimed dependent candidate within the scope of the
    // chain head; then its own classification is final.
    auto retire_head = [&] {
        Slot &head = win.front();
        if (!head.claimed && head.r.isValueGenCandidate()) {
            int64_t cur = base;
            int chain = 1;
            while (chain < max_mop_size) {
                Slot *next = nullptr;
                int64_t next_idx = 0;
                for (int64_t j = cur + 1; j < base + int64_t(win.size());
                     ++j) {
                    Slot &s = win[size_t(j - base)];
                    if (s.claimed || !s.r.isCandidate())
                        continue;
                    if (s.prod[0] == cur || s.prod[1] == cur) {
                        next = &s;
                        next_idx = j;
                        break;
                    }
                }
                if (!next)
                    break;
                if (chain == 1) {
                    head.claimed = true;
                    grouped_count(head);
                    ++res.groups;
                }
                next->claimed = true;
                grouped_count(*next);
                ++chain;
                cur = next_idx;
                if (!next->r.isValueGenCandidate())
                    break;  // a tail with no destination ends the chain
            }
        }
        if (!head.claimed) {
            if (head.r.isCandidate())
                ++res.candNotGrouped;
            else
                ++res.notCandidate;
        }
        win.pop_front();
        ++base;
    };

    InsnStream insns(src, max_insts);
    for (InsnRec r; insns.next(r);) {
        Slot s;
        s.r = r;
        for (size_t k = 0; k < 2; ++k)
            if (r.candSrc[k] != isa::kNoReg)
                s.prod[k] = last_writer[size_t(r.candSrc[k])];
        if (r.dst != isa::kNoReg)
            last_writer[size_t(r.dst)] = base + int64_t(win.size());
        win.push_back(s);
        ++res.totalInsts;
        if (win.size() == window)
            retire_head();
    }
    while (!win.empty())
        retire_head();
    return res;
}

} // namespace mop::analysis
