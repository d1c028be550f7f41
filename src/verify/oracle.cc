#include "verify/oracle.hh"

#include "sched/policy.hh"

#include <algorithm>

namespace mop::verify
{

using sched::Cycle;
using sched::kMaxEntrySrcs;
using sched::kMaxMopOps;
using sched::kNoCycle;
using sched::kNoTag;
using sched::SchedOp;
using sched::SchedParams;
using sched::selectFree;
using sched::LoopPolicy;
using sched::Tag;
using sched::WakeupStyle;

RefScheduler::RefScheduler(const SchedParams &params,
                           const RefQuirks &quirks)
    : params_(params), quirks_(quirks)
{
    const sched::PolicyTraits &pol = sched::policyTraits(params_.policyId);
    loadsSpeculate_ = pol.speculateOnLoads;
    params_.maxMopSize = std::min(params_.maxMopSize, pol.maxMopSize);
    lastLoadLat_ = params_.dl1HitLatency;
    capacity_ = params_.numEntries > 0 ? params_.numEntries : 512;
    for (size_t k = 0; k < isa::kNumFuKinds; ++k)
        fuBusy_[k].assign(size_t(params_.fuCounts[k]), 0);
}

int
RefScheduler::schedDepthVal() const
{
    if (params_.schedDepth > 0)
        return params_.schedDepth;
    return params_.policy == LoopPolicy::TwoCycle ? 2 : 1;
}

int
RefScheduler::execLatency(const SchedOp &op)
{
    return isa::opLatency(op.op);
}

int
RefScheduler::schedLatency(const REntry &e) const
{
    // A MOP is a non-pipelined N-cycle unit with a single broadcast
    // (Section 5.3.1): its scheduler-visible latency is its op count,
    // floored by the scheduling-loop depth.
    if (e.numOps > 1)
        return std::max(e.numOps, schedDepthVal());
    const SchedOp &op = e.ops[0];
    int lat = execLatency(op);
    if (op.op == isa::OpClass::Load) {
        // Speculative hit (Section 2.2) -- or, under the load-delay
        // policy, the predicted true delay so the single broadcast
        // fires when the value is really ready.
        lat += loadsSpeculate_ ? params_.dl1HitLatency
                               : knownLoadDelay(op.seq);
    }
    return std::max(lat, schedDepthVal());
}

int
RefScheduler::loadDelayOf(uint64_t seq)
{
    auto it = loadDelay_.find(seq);
    if (it != loadDelay_.end())
        return it->second;
    int lat = loadLatency_ ? loadLatency_(seq) : params_.dl1HitLatency;
    int use = lat;
    if (quirks_.staleLoadDelay) {
        // Historical bug under test: the table slot is never
        // invalidated, so this load is scheduled with whatever delay
        // the previous load left behind.
        use = lastLoadLat_;
        lastLoadLat_ = lat;
    }
    loadDelay_.emplace(seq, use);
    return use;
}

int
RefScheduler::knownLoadDelay(uint64_t seq) const
{
    auto it = loadDelay_.find(seq);
    return it == loadDelay_.end() ? params_.dl1HitLatency : it->second;
}

bool
RefScheduler::fullyReady(const REntry &e) const
{
    for (int s = 0; s < e.numSrcs; ++s)
        if (!e.srcReady[size_t(s)])
            return false;
    return true;
}

bool
RefScheduler::entryComplete(const REntry &e) const
{
    if (quirks_.countedCompletion) {
        // Historical bug: completion was a bare count of completion
        // events, so a squash-dropped tail that completed before the
        // squash stands in for a surviving op still in flight.
        int n = 0;
        for (int o = 0; o < kMaxMopOps; ++o)
            n += int(e.opDone[size_t(o)]);
        return n >= e.numOps;
    }
    for (int o = 0; o < e.numOps; ++o)
        if (!e.opDone[size_t(o)])
            return false;
    return true;
}

RefScheduler::REntry *
RefScheduler::byUid(uint64_t uid)
{
    for (REntry &e : entries_)
        if (e.live && e.uid == uid)
            return &e;
    return nullptr;
}

RefScheduler::REntry *
RefScheduler::byHandle(int handle)
{
    if (handle < 0 || size_t(handle) >= entries_.size())
        return nullptr;
    return &entries_[size_t(handle)];
}

RefScheduler::TagState &
RefScheduler::tag(Tag t)
{
    return tags_[t];
}

bool
RefScheduler::tagIsReady(Tag t) const
{
    auto it = tags_.find(t);
    return it != tags_.end() && it->second.ready;
}

Cycle
RefScheduler::tagReadyAt(Tag t) const
{
    auto it = tags_.find(t);
    return it != tags_.end() ? it->second.readyAt : kNoCycle;
}

int
RefScheduler::occupancy() const
{
    int n = 0;
    for (const REntry &e : entries_)
        n += int(e.live);
    return n;
}

bool
RefScheduler::canInsert(int needed) const
{
    return capacity_ - occupancy() >= needed;
}

void
RefScheduler::eraseEvents(uint64_t uid)
{
    auto drop = [uid](auto &v) {
        v.erase(std::remove_if(v.begin(), v.end(),
                               [uid](const auto &ev) {
                                   return ev.uid == uid;
                               }),
                v.end());
    };
    drop(completions_);
    drop(misses_);
    drop(recalls_);
}

void
RefScheduler::freeEntry(REntry &e)
{
    e.live = false;
    cancelBcast(e.uid);
    eraseEvents(e.uid);
}

void
RefScheduler::scheduleBcast(REntry &e, Cycle fire, bool speculative)
{
    if (e.dstTag == kNoTag)
        return;
    bcasts_.push_back(RBcast{e.uid, e.dstTag, fire, speculative});
}

void
RefScheduler::cancelBcast(uint64_t uid)
{
    bcasts_.erase(std::remove_if(bcasts_.begin(), bcasts_.end(),
                                 [uid](const RBcast &b) {
                                     return b.uid == uid;
                                 }),
                  bcasts_.end());
}

bool
RefScheduler::hasBcast(uint64_t uid) const
{
    for (const RBcast &b : bcasts_)
        if (b.uid == uid)
            return true;
    return false;
}

int
RefScheduler::insert(const SchedOp &op, Cycle now, bool expect_tail)
{
    REntry e;
    e.uid = nextUid_++;
    e.live = true;
    e.pending = expect_tail;
    e.numOps = 1;
    e.ops[0] = op;
    e.dstTag = op.dst;
    e.minSeq = e.maxSeq = op.seq;
    e.age = nextAge_++;
    e.minIssue = now + 1;

    for (Tag t : op.src) {
        if (t == kNoTag)
            continue;
        bool dup = false;
        for (int s = 0; s < e.numSrcs; ++s)
            dup = dup || e.srcTags[size_t(s)] == t;
        if (dup)
            continue;
        int s = e.numSrcs++;
        e.srcTags[size_t(s)] = t;
        e.srcReady[size_t(s)] = tagIsReady(t);
        e.srcReadyAt[size_t(s)] =
            e.srcReady[size_t(s)] ? tagReadyAt(t) : kNoCycle;
        e.srcFromTail[size_t(s)] = false;
    }
    ++insertedOps_;
    ++insertedEntries_;

    if (!e.pending && fullyReady(e)) {
        e.readyAt = now + 1;
        if (selectFree(params_.policy) && !e.collided)
            scheduleBcast(e, e.readyAt + Cycle(schedLatency(e)), true);
    }
    entries_.push_back(e);
    return int(entries_.size()) - 1;
}

bool
RefScheduler::appendTail(int handle, const SchedOp &tail, Cycle now,
                         bool more_coming)
{
    REntry *pe = byHandle(handle);
    if (!pe || !pe->live || !pe->pending || pe->issued)
        return false;
    REntry &e = *pe;
    if (e.numOps >= std::min(params_.maxMopSize, kMaxMopOps))
        return false;

    int budget = params_.style == WakeupStyle::Cam2 ? 2 : kMaxEntrySrcs;
    std::array<Tag, 2> fresh = {kNoTag, kNoTag};
    int n_fresh = 0;
    for (Tag t : tail.src) {
        if (t == kNoTag || t == e.dstTag)  // internal head->tail edge
            continue;
        bool dup = false;
        for (int s = 0; s < e.numSrcs; ++s)
            dup = dup || e.srcTags[size_t(s)] == t;
        for (int f = 0; f < n_fresh; ++f)
            dup = dup || fresh[size_t(f)] == t;
        if (!dup)
            fresh[size_t(n_fresh++)] = t;
    }
    if (e.numSrcs + n_fresh > budget)
        return false;

    for (int f = 0; f < n_fresh; ++f) {
        Tag t = fresh[size_t(f)];
        int s = e.numSrcs++;
        e.srcTags[size_t(s)] = t;
        e.srcReady[size_t(s)] = tagIsReady(t);
        e.srcReadyAt[size_t(s)] =
            e.srcReady[size_t(s)] ? tagReadyAt(t) : kNoCycle;
        e.srcFromTail[size_t(s)] = true;
    }
    e.ops[size_t(e.numOps)] = tail;
    ++e.numOps;
    e.maxSeq = tail.seq;
    e.pending = more_coming;
    e.minIssue = std::max(e.minIssue, now + 1);
    ++insertedOps_;
    if (!e.pending && fullyReady(e))
        e.readyAt = now + 1;
    return true;
}

void
RefScheduler::clearPending(int handle)
{
    REntry *pe = byHandle(handle);
    if (!pe || !pe->live)
        return;
    pe->pending = false;
    if (fullyReady(*pe) && pe->readyAt == kNoCycle)
        pe->readyAt = pe->minIssue;
}

void
RefScheduler::becameReady(REntry &e, Cycle now)
{
    e.readyAt = now;
    if (selectFree(params_.policy) && !e.collided && !e.issued &&
        !hasBcast(e.uid)) {
        // Select-free wakeup is speculative: broadcast at the earliest
        // cycle the entry can request selection (Section 6.2).
        Cycle earliest = std::max(now, e.minIssue);
        scheduleBcast(e, earliest + Cycle(schedLatency(e)), true);
    }
}

void
RefScheduler::deliverTag(Tag t, Cycle now)
{
    TagState &st = tag(t);
    st.ready = true;
    st.readyAt = now;
    for (REntry &e : entries_) {
        if (!e.live)
            continue;
        bool changed = false;
        for (int s = 0; s < e.numSrcs; ++s) {
            if (e.srcTags[size_t(s)] == t && !e.srcReady[size_t(s)]) {
                e.srcReady[size_t(s)] = true;
                e.srcReadyAt[size_t(s)] = now;
                changed = true;
            }
        }
        if (changed && !e.pending && !e.issued && fullyReady(e))
            becameReady(e, now);
    }
}

void
RefScheduler::invalidateEntry(REntry &e, Cycle now)
{
    e.issued = false;
    e.replayed = true;
    e.opDone.fill(false);
    e.minIssue = now + Cycle(params_.replayPenalty);
    cancelBcast(e.uid);
    eraseEvents(e.uid);
    if (e.dstTag != kNoTag)
        tag(e.dstTag).valueReady = kNoCycle;
}

void
RefScheduler::recallTag(Tag t, Cycle now)
{
    if (t == kNoTag)
        return;
    TagState &st = tag(t);
    st.ready = false;
    st.readyAt = kNoCycle;
    st.valueReady = kNoCycle;

    for (REntry &e : entries_) {
        if (!e.live)
            continue;
        bool cleared = false;
        for (int s = 0; s < e.numSrcs; ++s) {
            if (e.srcTags[size_t(s)] == t && e.srcReady[size_t(s)]) {
                e.srcReady[size_t(s)] = false;
                e.srcReadyAt[size_t(s)] = kNoCycle;
                cleared = true;
            }
        }
        if (!cleared)
            continue;
        if (e.issued) {
            // Selective replay: invalidate the mis-scheduled consumer
            // and undo the wakeups it caused in turn (Section 2.2).
            ++replays_;
            invalidateEntry(e, now);
            recallTag(e.dstTag, now);
        } else if (hasBcast(e.uid)) {
            // Un-issued consumer with a speculative broadcast
            // outstanding: recall transitively.
            cancelBcast(e.uid);
            e.readyAt = kNoCycle;
            recallTag(e.dstTag, now);
        } else {
            e.readyAt = kNoCycle;
        }
    }
}

bool
RefScheduler::fuAvailable(const SchedOp &op, Cycle c) const
{
    auto kind = size_t(isa::opFuKind(op.op));
    if (kind >= isa::kNumFuKinds)
        return true;
    int free_units = 0;
    for (Cycle b : fuBusy_[kind])
        if (b <= c)
            ++free_units;
    auto it = fuInit_[kind].find(c);
    int initiated = it != fuInit_[kind].end() ? it->second : 0;
    return free_units - initiated > 0;
}

bool
RefScheduler::fuAvailableSeq(const REntry &e, Cycle start) const
{
    // Mirrors FuPool::availableSeq: scratch busy-until copies absorb
    // the occupancy the entry's own unpipelined ops would commit, so a
    // later same-kind op of the entry sees its predecessor's unit held.
    std::array<std::vector<Cycle>, isa::kNumFuKinds> scratch;
    std::array<bool, isa::kNumFuKinds> copied{};
    for (int k = 0; k < e.numOps; ++k) {
        const SchedOp &op = e.ops[size_t(k)];
        Cycle c = start + Cycle(k);
        auto kind = size_t(isa::opFuKind(op.op));
        if (kind >= isa::kNumFuKinds)
            continue;
        if (!copied[kind]) {
            scratch[kind] = fuBusy_[kind];
            copied[kind] = true;
        }
        int free_units = 0;
        for (Cycle b : scratch[kind])
            if (b <= c)
                ++free_units;
        auto it = fuInit_[kind].find(c);
        int initiated = it != fuInit_[kind].end() ? it->second : 0;
        if (free_units - initiated <= 0)
            return false;
        if (isa::opUnpipelined(op.op)) {
            for (Cycle &b : scratch[kind]) {
                if (b <= c) {
                    b = c + Cycle(isa::opLatency(op.op));
                    break;
                }
            }
        }
    }
    return true;
}

void
RefScheduler::fuReserve(const SchedOp &op, Cycle c)
{
    auto kind = size_t(isa::opFuKind(op.op));
    if (kind >= isa::kNumFuKinds)
        return;
    ++fuInit_[kind][c];
    if (isa::opUnpipelined(op.op)) {
        for (Cycle &b : fuBusy_[kind]) {
            if (b <= c) {
                b = c + Cycle(isa::opLatency(op.op));
                return;
            }
        }
    }
}

void
RefScheduler::reapIfComplete(REntry &e)
{
    // An issued entry whose surviving ops have all completed is freed
    // once its broadcast has left the bus: at its last completion, at
    // the broadcast's delivery, or after a squash shrinks it.
    if (e.live && e.issued && entryComplete(e) && !hasBcast(e.uid))
        freeEntry(e);
}

void
RefScheduler::issueEntry(REntry &e, Cycle now,
                         std::vector<RefMopIssue> *mop_issues)
{
    const bool was_replayed = e.replayed;
    e.issued = true;
    e.replayed = false;
    e.issueCycle = now;
    e.opDone.fill(false);
    ++issuedEntries_;
    issuedOps_ += uint64_t(e.numOps);

    fuReserve(e.ops[0], now);
    for (int k = 1; k < e.numOps; ++k) {
        fuReserve(e.ops[size_t(k)], now + Cycle(k));
        ++slotDebt_[now + Cycle(k)];  // MOP sequencing holds the slot
    }

    // Load-delay policy: predict each load's delay before the
    // broadcast timing is computed (schedLatency reads the table).
    if (!loadsSpeculate_) {
        for (int o = 0; o < e.numOps; ++o) {
            if (e.ops[size_t(o)].op == isa::OpClass::Load)
                loadDelayOf(e.ops[size_t(o)].seq);
        }
    }

    if (!hasBcast(e.uid))
        scheduleBcast(e, now + Cycle(schedLatency(e)), false);

    bool pileup = false;
    if (params_.policy == LoopPolicy::SelectFreeScoreboard) {
        // Scoreboard repair: a mis-woken consumer is killed at RF if
        // any source value is not actually available (Section 6.2).
        Cycle exec_start = now + Cycle(params_.dispatchDepth);
        for (int s = 0; s < e.numSrcs; ++s) {
            Tag t = e.srcTags[size_t(s)];
            if (t == kNoTag)
                continue;
            Cycle vr = tag(t).valueReady;
            if (vr == kNoCycle || vr > exec_start)
                pileup = true;
        }
    }
    if (pileup) {
        ++pileupKills_;
        recalls_.push_back(
            RRecall{e.uid, now + Cycle(params_.dispatchDepth)});
        return;
    }

    for (int o = 0; o < e.numOps; ++o) {
        const SchedOp &op = e.ops[size_t(o)];
        Cycle exec_start = now + Cycle(params_.dispatchDepth) + Cycle(o);
        Cycle complete = exec_start + Cycle(execLatency(op));
        bool was_miss = false;
        if (op.op == isa::OpClass::Load) {
            int mem_lat;
            if (loadsSpeculate_) {
                mem_lat = loadLatency_ ? loadLatency_(op.seq)
                                       : params_.dl1HitLatency;
            } else {
                mem_lat = loadDelayOf(op.seq);
            }
            was_miss = mem_lat > params_.dl1HitLatency;
            complete += Cycle(mem_lat);
            if (was_miss && loadsSpeculate_) {
                Cycle discover = exec_start + 1;
                Cycle corrected =
                    std::max(complete - Cycle(params_.dispatchDepth),
                             discover + 1);
                misses_.push_back(RMiss{e.uid, discover, corrected});
            }
        }
        e.opComplete[size_t(o)] = complete;
        sched::ExecEvent ev;
        ev.seq = op.seq;
        ev.ready = e.readyAt == kNoCycle ? now : e.readyAt;
        ev.issued = now;
        ev.execStart = exec_start;
        ev.complete = complete;
        ev.isLoad = op.op == isa::OpClass::Load;
        ev.wasMiss = was_miss;
        ev.replayed = was_replayed;
        completions_.push_back(RCompletion{e.uid, o, complete, ev});
    }
    if (e.dstTag != kNoTag)
        tag(e.dstTag).valueReady = e.opComplete[size_t(e.numOps - 1)];

    if (e.numOps > 1 && mop_issues) {
        Cycle max_head = 0, max_tail = 0;
        bool has_tail_src = false;
        for (int s = 0; s < e.numSrcs; ++s) {
            Cycle r = e.srcReadyAt[size_t(s)];
            if (r == kNoCycle)
                r = 0;
            if (e.srcFromTail[size_t(s)]) {
                has_tail_src = true;
                max_tail = std::max(max_tail, r);
            } else {
                max_head = std::max(max_head, r);
            }
        }
        RefMopIssue mi;
        mi.headSeq = e.ops[0].seq;
        mi.tailSeq = e.ops[size_t(e.numOps - 1)].seq;
        mi.numOps = e.numOps;
        mi.tailLastArriving = has_tail_src && max_tail > max_head;
        mop_issues->push_back(mi);
    }
}

void
RefScheduler::doSelect(Cycle now, std::vector<RefMopIssue> *mop_issues)
{
    // Recompute selection requests from first principles: every live,
    // non-pending, non-issued entry with all sources ready and its
    // earliest-issue gate open requests selection this cycle.
    std::vector<size_t> ready;
    for (size_t i = 0; i < entries_.size(); ++i) {
        const REntry &e = entries_[i];
        if (e.live && !e.pending && !e.issued && fullyReady(e) &&
            e.minIssue <= now) {
            ready.push_back(i);
        }
    }
    std::sort(ready.begin(), ready.end(), [this](size_t a, size_t b) {
        return entries_[a].age < entries_[b].age;
    });

    auto dit = slotDebt_.find(now);
    int width = params_.issueWidth -
                (dit != slotDebt_.end() ? dit->second : 0);
    for (size_t i : ready) {
        REntry &e = entries_[i];
        bool fu_ok = true;
        if (quirks_.fuHeadOnlyCheck || quirks_.fuIndependentCheck) {
            // Historical bugs under test: per-op independent checks,
            // limited to the first two ops under fuHeadOnlyCheck; both
            // miss occupancy committed within the entry itself.
            int check_ops = quirks_.fuHeadOnlyCheck
                                ? std::min(e.numOps, 2)
                                : e.numOps;
            for (int k = 0; k < check_ops && fu_ok; ++k)
                fu_ok = fuAvailable(e.ops[size_t(k)], now + Cycle(k));
        } else {
            fu_ok = fuAvailableSeq(e, now);
        }
        if (width > 0 && fu_ok) {
            issueEntry(e, now, mop_issues);
            --width;
            continue;
        }
        // Selection loss: under select-free policies the speculative
        // wakeup was premature — a collision (Section 6.2).
        if (selectFree(params_.policy) && !e.collided) {
            ++collisions_;
            e.collided = true;
            if (params_.policy == LoopPolicy::SelectFreeSquashDep)
                recalls_.push_back(RRecall{e.uid, now + 1});
        }
    }
}

void
RefScheduler::tick(Cycle now, std::vector<sched::ExecEvent> &completed,
                   std::vector<RefMopIssue> *mop_issues)
{
    // 1. Wakeup: deliver every broadcast scheduled for this cycle.
    {
        std::vector<RBcast> due;
        for (size_t i = 0; i < bcasts_.size();) {
            if (bcasts_[i].fire == now) {
                due.push_back(bcasts_[i]);
                bcasts_.erase(bcasts_.begin() + long(i));
            } else {
                ++i;
            }
        }
        for (const RBcast &b : due) {
            deliverTag(b.tag, now);
            if (REntry *e = byUid(b.uid))
                reapIfComplete(*e);
        }
    }

    // 2. Load-miss discoveries: recall the speculative hit wakeup and
    //    schedule the corrected one (Section 2.2).
    {
        std::vector<RMiss> due;
        for (size_t i = 0; i < misses_.size();) {
            if (misses_[i].discover == now) {
                due.push_back(misses_[i]);
                misses_.erase(misses_.begin() + long(i));
            } else {
                ++i;
            }
        }
        for (const RMiss &m : due) {
            REntry *e = byUid(m.uid);
            if (!e || !e->issued)
                continue;
            cancelBcast(e->uid);
            recallTag(e->dstTag, now);
            if (e->dstTag != kNoTag) {
                tag(e->dstTag).valueReady =
                    e->opComplete[size_t(e->numOps - 1)];
            }
            scheduleBcast(*e, m.correctedBcast, false);
        }
    }

    // 3. Select and issue.
    doSelect(now, mop_issues);

    // 4. Collision / pileup repairs land after this cycle's select.
    {
        std::vector<RRecall> due;
        for (size_t i = 0; i < recalls_.size();) {
            if (recalls_[i].at == now) {
                due.push_back(recalls_[i]);
                recalls_.erase(recalls_.begin() + long(i));
            } else {
                ++i;
            }
        }
        for (const RRecall &r : due) {
            REntry *e = byUid(r.uid);
            if (!e)
                continue;
            if (params_.policy == LoopPolicy::SelectFreeScoreboard) {
                if (e->issued)
                    invalidateEntry(*e, now);
                continue;
            }
            // Squash-dep: undo the premature wakeup tree; if the victim
            // issued meanwhile, re-broadcast with its true timing.
            cancelBcast(e->uid);
            bool was_issued = e->issued;
            recallTag(e->dstTag, now);
            if (was_issued && e->dstTag != kNoTag) {
                tag(e->dstTag).valueReady =
                    e->opComplete[size_t(e->numOps - 1)];
                scheduleBcast(*e,
                              e->issueCycle + Cycle(schedLatency(*e)),
                              false);
            }
        }
    }

    // 5. Completions: report executed ops, free finished entries whose
    //    broadcast has left the bus.
    {
        std::vector<RCompletion> due;
        for (size_t i = 0; i < completions_.size();) {
            if (completions_[i].at == now) {
                due.push_back(completions_[i]);
                completions_.erase(completions_.begin() + long(i));
            } else {
                ++i;
            }
        }
        for (const RCompletion &c : due) {
            REntry *e = byUid(c.uid);
            if (!e || !e->issued || c.opIdx >= e->numOps)
                continue;
            completed.push_back(c.ev);
            e->opDone[size_t(c.opIdx)] = true;
            reapIfComplete(*e);
        }
    }
}

void
RefScheduler::squashAfter(uint64_t seq, Cycle now)
{
    for (REntry &e : entries_) {
        if (!e.live)
            continue;
        if (e.minSeq > seq) {
            freeEntry(e);
            continue;
        }
        if (e.numOps > 1 && e.maxSeq > seq) {
            if (quirks_.fusedPairSurvivesSquash &&
                params_.policyId == sched::PolicyId::StaticFuse) {
                // Historical bug under test: the decode-fused pair is
                // treated as indivisible, so the squashed tail stays
                // fused and still issues/completes with its head.
                continue;
            }
            // Squashed MOP suffix: the surviving prefix stays; source
            // operands contributed by squashed ops are forced ready
            // (Section 5.3.2).
            int keep = 1;
            while (keep < e.numOps && e.ops[size_t(keep)].seq <= seq)
                ++keep;
            // Completions of the squashed ops must never fire.
            completions_.erase(
                std::remove_if(completions_.begin(), completions_.end(),
                               [&](const RCompletion &c) {
                                   return c.uid == e.uid &&
                                          c.opIdx >= keep;
                               }),
                completions_.end());
            e.numOps = keep;
            e.maxSeq = e.ops[size_t(keep - 1)].seq;
            for (int s = 0; s < e.numSrcs; ++s) {
                if (e.srcFromTail[size_t(s)]) {
                    e.srcReady[size_t(s)] = true;
                    e.srcReadyAt[size_t(s)] = 0;
                }
            }
            if (e.pending)
                e.pending = false;
            if (e.issued && !quirks_.squashLeak) {
                // The entry's value/broadcast timing referenced the
                // squashed last op; recompute both from the surviving
                // prefix, and reap the entry if nothing remains to
                // complete it.
                if (e.dstTag != kNoTag) {
                    tag(e.dstTag).valueReady =
                        e.opComplete[size_t(e.numOps - 1)];
                }
                if (hasBcast(e.uid)) {
                    cancelBcast(e.uid);
                    scheduleBcast(
                        e,
                        std::max(now + 1, e.issueCycle +
                                              Cycle(schedLatency(e))),
                        false);
                }
                reapIfComplete(e);
            }
        }
        if (e.live && e.pending && e.maxSeq <= seq) {
            // The expected tail will never arrive.
            e.pending = false;
        }
    }
}

} // namespace mop::verify
