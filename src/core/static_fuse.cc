#include "core/static_fuse.hh"

namespace mop::core
{

StaticFuser::StaticFuser(bool grouping_enabled)
    : Formation(grouping_enabled)
{
}

bool
StaticFuser::headPattern(const isa::MicroOp &u)
{
    return u.op == isa::OpClass::IntAlu && u.hasDst();
}

bool
StaticFuser::tailPattern(const isa::MicroOp &u, int16_t head_dst)
{
    switch (u.op) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::Branch:
      case isa::OpClass::StoreAddr:
        break;
      default:
        return false;
    }
    return u.src[0] == head_dst || u.src[1] == head_dst;
}

FormOutcome
StaticFuser::process(const isa::MicroOp &u, uint64_t dyn_id)
{
    FormOutcome out;
    out.src = {translateSrc(u.src[0]), translateSrc(u.src[1])};

    // 1. Resolve an open window. Adjacency is strict: only the very
    //    next µop can be the tail, anything else abandons the pairing.
    if (head_.active) {
        PendingPair p = head_;
        closeWindow();
        if (dyn_id == p.headDynId + 1 && p.entry >= 0 &&
            tailPattern(u, p.headDst)) {
            out.role = FormOutcome::Role::Tail;
            out.headEntry = p.entry;
            out.headDynId = p.headDynId;
            out.dst = p.mopTag;
            if (u.hasDst())
                mapDst(u.dst, p.mopTag);
            ++groupsFormed_;
            return out;
        }
        out.clearPendingEntry = p.entry;
    }

    // 2. Open a window when the head pattern matches. The tail is not
    //    visible yet (it may still be in fetch), so the head inserts
    //    with the pending bit exactly like a dynamic MOP head.
    if (enabled_ && headPattern(u)) {
        out.role = FormOutcome::Role::Head;
        sched::Tag m = freshTag();
        out.dst = m;
        mapDst(u.dst, m);
        head_ = PendingPair{true, dyn_id, u.dst, m, -1, 0};
        retainTag(m);
        return out;
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
StaticFuser::closeWindow()
{
    if (head_.active) {
        releaseTag(head_.mopTag);
        head_.active = false;
    }
}

void
StaticFuser::forEachTagRef(const std::function<void(sched::Tag)> &fn) const
{
    Formation::forEachTagRef(fn);
    if (head_.active)
        fn(head_.mopTag);
}

void
StaticFuser::setHeadEntry(uint64_t head_dyn_id, int entry)
{
    if (head_.active && head_.headDynId == head_dyn_id)
        head_.entry = entry;
}

sched::Tag
StaticFuser::demoteTail(const isa::MicroOp &u, int entry)
{
    if (entry >= 0 && head_.active && head_.entry == entry)
        closeWindow();
    ++demotions_;
    sched::Tag t = sched::kNoTag;
    if (u.hasDst()) {
        t = freshTag();
        mapDst(u.dst, t);
    }
    return t;
}

std::vector<int>
StaticFuser::groupBoundary()
{
    std::vector<int> expired;
    if (head_.active && ++head_.groupAge > 1) {
        // The adjacent µop did not reach the queue stage in the same
        // or the next insert group (frontend bubble): abandon.
        if (head_.entry >= 0)
            expired.push_back(head_.entry);
        ++pendingExpired_;
        closeWindow();
    }
    return expired;
}

} // namespace mop::core
