#include "core/mop_formation.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mop::core
{

void
Formation::setTagPool(sched::Scheduler *pool)
{
    pool_ = pool;
    if (pool_)
        pool_->setTagHolder(this);
}

sched::Tag
Formation::nextStandaloneTag()
{
    if (next_ == std::numeric_limits<sched::Tag>::max())
        throw std::overflow_error(
            "formation tag numbering exhausted: attach a tag pool");
    return next_++;
}

void
Formation::tooManyDisplaced()
{
    throw std::logic_error(
        "more than two destination mappings without releaseDisplaced()");
}

void
Formation::checkpoint()
{
    if (ckptLive_) {
        for (sched::Tag t : ckptTable_)
            releaseTag(t);
    }
    ckptTable_ = table_;
    for (sched::Tag t : ckptTable_)
        retainTag(t);
    ckptLive_ = true;
}

void
Formation::restoreToCheckpoint()
{
    if (!ckptLive_)
        throw std::logic_error("restoreToCheckpoint without a checkpoint");
    for (sched::Tag t : table_)
        releaseTag(t);
    table_ = ckptTable_;  // the checkpoint's references pass to the table
    ckptLive_ = false;
    dropWindows();
}

void
Formation::forEachTagRef(const std::function<void(sched::Tag)> &fn) const
{
    auto named = [&fn](sched::Tag t) {
        if (t != sched::kNoTag)
            fn(t);
    };
    for (sched::Tag t : table_)
        named(t);
    if (ckptLive_) {
        for (sched::Tag t : ckptTable_)
            named(t);
    }
    for (sched::Tag t : displaced_)
        named(t);
}

MopFormation::MopFormation(bool grouping_enabled, MopPointerCache &cache,
                           int max_mop_size)
    : Formation(grouping_enabled), cache_(cache),
      maxMopSize_(max_mop_size)
{
}

sched::Tag
Formation::translateSrc(int16_t reg) const
{
    if (reg == isa::kNoReg || reg == isa::kZeroReg ||
        reg == isa::kFpZeroReg) {
        return sched::kNoTag;
    }
    return table_[size_t(reg)];
}

FormOutcome
MopFormation::process(const isa::MicroOp &u, uint64_t dyn_id)
{
    FormOutcome out;
    out.src = {translateSrc(u.src[0]), translateSrc(u.src[1])};

    // 1. Is this µop the expected tail of a pending head?
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->tailDynId != dyn_id)
            continue;
        PendingHead p = *it;
        closeWindow(it);
        if (u.pc == p.tailPc && u.isMopCandidate() && p.entry >= 0) {
            out.role = FormOutcome::Role::Tail;
            out.headEntry = p.entry;
            out.headDynId = p.headDynId;
            out.independent = p.independent;
            out.dst = p.mopTag;
            if (u.hasDst())
                mapDst(u.dst, p.mopTag);
            ++groupsFormed_;
            if (p.independent)
                ++independentFormed_;
            // Chain extension: this link's own pointer names the next
            // one, and the entry has room (Section 4.3).
            if (p.sizeSoFar + 1 < maxMopSize_) {
                MopPointer next = cache_.lookup(u.pc);
                bool ok = next.valid() && next.chainSafe;
                uint64_t next_tail = dyn_id + next.offset;
                for (const auto &q : pending_)
                    ok = ok && q.tailDynId != next_tail;
                if (ok) {
                    openWindow(PendingHead{p.headDynId, next_tail,
                                           next.tailPc, p.mopTag, p.entry,
                                           0, false, p.sizeSoFar + 1});
                    out.moreExpected = true;
                }
            }
            return out;
        }
        // Control flow diverged from the pointer's expectation: do not
        // group with an unexpected instruction (Section 5.2.1). The
        // head's entry loses its pending bit and issues solo.
        ++verifyFails_;
        out.clearPendingEntry = p.entry;
        break;
    }

    // 2. Does this µop start a MOP (valid pointer fetched with it)?
    if (enabled_) {
        MopPointer ptr = cache_.lookup(u.pc);
        bool eligible = ptr.valid() && u.isMopCandidate() &&
                        (ptr.independent || u.isValueGenCandidate());
        if (eligible && inj_ &&
            inj_->fire(verify::FaultKind::CorruptMop)) {
            // Pointer-storage corruption: either the pointer is lost
            // (forced dissolution; the pair issues as two plain ops)
            // or it names the wrong tail. A wrong tail must be caught
            // by the pending-tail PC verification or the group-window
            // expiry -- both end in clearPending(), never a bad fuse.
            if (inj_->pick(2) == 0) {
                eligible = false;
            } else {
                ptr.offset = uint8_t(1 + inj_->pick(7));
                ptr.tailPc ^= 0x40;
            }
        }
        if (eligible) {
            uint64_t tail_id = dyn_id + ptr.offset;
            for (const auto &p : pending_)
                eligible = eligible && p.tailDynId != tail_id;
        }
        if (eligible) {
            out.role = FormOutcome::Role::Head;
            out.independent = ptr.independent;
            sched::Tag m = freshTag();
            out.dst = m;  // the MOP's scheduling tag, even for heads
                          // with no architectural destination
            if (u.hasDst())
                mapDst(u.dst, m);
            openWindow(PendingHead{dyn_id, dyn_id + ptr.offset, ptr.tailPc,
                                   m, -1, 0, ptr.independent});
            return out;
        }
    }

    // 3. Ordinary instruction: fresh tag per destination.
    out.role = FormOutcome::Role::Single;
    if (u.hasDst()) {
        sched::Tag t = freshTag();
        mapDst(u.dst, t);
        out.dst = t;
    }
    return out;
}

void
MopFormation::openWindow(const PendingHead &p)
{
    pending_.push_back(p);
    retainTag(p.mopTag);
}

std::vector<MopFormation::PendingHead>::iterator
MopFormation::closeWindow(std::vector<PendingHead>::iterator it)
{
    releaseTag(it->mopTag);
    return pending_.erase(it);
}

void
MopFormation::dropWindows()
{
    for (const PendingHead &p : pending_)
        releaseTag(p.mopTag);
    pending_.clear();
}

void
MopFormation::forEachTagRef(
    const std::function<void(sched::Tag)> &fn) const
{
    Formation::forEachTagRef(fn);
    for (const PendingHead &p : pending_)
        fn(p.mopTag);
}

void
MopFormation::setHeadEntry(uint64_t head_dyn_id, int entry)
{
    for (auto &p : pending_)
        if (p.headDynId == head_dyn_id)
            p.entry = entry;
}

sched::Tag
MopFormation::demoteTail(const isa::MicroOp &u, int entry)
{
    if (entry >= 0) {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->entry == entry)
                it = closeWindow(it);
            else
                ++it;
        }
    }
    ++demotions_;
    sched::Tag t = sched::kNoTag;
    if (u.hasDst()) {
        t = freshTag();
        mapDst(u.dst, t);
    }
    return t;
}

std::vector<int>
MopFormation::groupBoundary()
{
    std::vector<int> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (++it->groupAge > 1) {
            // The tail is not in the same or the next insert group:
            // abandon the pairing (Figure 11's policy).
            if (it->entry >= 0)
                expired.push_back(it->entry);
            ++pendingExpired_;
            it = closeWindow(it);
        } else {
            ++it;
        }
    }
    return expired;
}

} // namespace mop::core
