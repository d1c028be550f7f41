#include "sched/scheduler.hh"

#include "sched/policy.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

namespace mop::sched
{

namespace
{

constexpr size_t
bitWords(size_t n)
{
    return (n + 63) / 64;
}

inline bool
testBit(const std::vector<uint64_t> &v, size_t i)
{
    return (v[i >> 6] >> (i & 63)) & 1;
}

inline void
setBit(std::vector<uint64_t> &v, size_t i)
{
    v[i >> 6] |= uint64_t(1) << (i & 63);
}

inline void
clearBit(std::vector<uint64_t> &v, size_t i)
{
    v[i >> 6] &= ~(uint64_t(1) << (i & 63));
}

/**
 * Visit set bits in ascending order. Word values are copied before
 * their bits are visited, so a callback clearing the *current* entry's
 * bit (e.g. freeEntry during a squash walk) does not disturb the walk;
 * the visit order matches the plain ascending index scan it replaces.
 */
template <typename Fn>
inline void
forEachSetBit(const std::vector<uint64_t> &v, Fn &&fn)
{
    for (size_t w = 0; w < v.size(); ++w) {
        for (uint64_t bits = v[w]; bits; bits &= bits - 1)
            fn(w * 64 + size_t(std::countr_zero(bits)));
    }
}

/** forEachSetBit over the intersection of @p v and @p mask (a bitmap
 *  of v.size() words), with the same per-word copy semantics. */
template <typename Fn>
inline void
forEachSetBitAnd(const std::vector<uint64_t> &v, const uint64_t *mask,
                 Fn &&fn)
{
    for (size_t w = 0; w < v.size(); ++w) {
        for (uint64_t bits = v[w] & mask[w]; bits; bits &= bits - 1)
            fn(w * 64 + size_t(std::countr_zero(bits)));
    }
}

/** Source budget per issue-queue entry for each wakeup style. */
int
maxSrcsFor(WakeupStyle s)
{
    return s == WakeupStyle::Cam2 ? 2 : kMaxEntrySrcs;
}

/** Bitmask covering source slots [0, n). */
inline uint8_t
srcMask(int n)
{
    return uint8_t((1u << unsigned(n)) - 1u);
}

/** Issue-queue entries for @p p; 0 means unrestricted (512). */
size_t
queueEntries(const SchedParams &p)
{
    return size_t(p.numEntries > 0 ? p.numEntries : 512);
}

} // namespace

size_t
Scheduler::tagBoundFor(size_t entries)
{
    return 2 * size_t(isa::kNumLogicalRegs) +
           entries * size_t(1 + kMaxEntrySrcs);
}

Scheduler::Scheduler(const SchedParams &params)
    : params_(params), fu_(params.fuCounts),
      pool_(tagBoundFor(queueEntries(params)))
{
    if (std::string why = configError(params_); !why.empty())
        throw std::invalid_argument(why);
    const PolicyTraits &pol = policyTraits(params_.policyId);
    loadsSpeculate_ = pol.speculateOnLoads;
    // Clamp once here so appendTail, the select-time FU booking and
    // the structural audit all agree on the entry size the policy's
    // formation can produce.
    params_.maxMopSize = std::min(params_.maxMopSize, pol.maxMopSize);

    size_t n = queueEntries(params_);
    srcTag_.resize(n);
    for (auto &row : srcTag_)
        row.fill(kNoTag);
    state_.resize(n);
    minIssue_.resize(n, 0);
    age_.resize(n, 0);
    opcls_.resize(n);
    cold_.resize(n);
    delays_.resize(n);
    validBits_.resize(bitWords(n), 0);
    readyBits_.resize(bitWords(n), 0);
    watchBits_.resize(bitWords(n), 0);
    consumers_.assign(kConsumerBuckets * bitWords(n), 0);
    freeList_.reserve(n);
    for (int i = int(n) - 1; i >= 0; --i)
        freeList_.push_back(i);
    readyScratch_.reserve(n);
    injRecalls_.reserve(64);
    resizeTags(pool_.bound());
}

int
Scheduler::execLatency(const SchedOp &op)
{
    return isa::opLatency(op.op);
}

int
Scheduler::schedDepthVal() const
{
    if (params_.schedDepth > 0)
        return params_.schedDepth;
    return params_.policy == LoopPolicy::TwoCycle ? 2 : 1;
}

int
Scheduler::schedLatency(int idx) const
{
    // An N-op MOP is a non-pipelined N-cycle unit with one broadcast:
    // consumers of the last op see back-to-back timing as long as the
    // scheduling-loop depth does not exceed the MOP size.
    int num_ops = opcls_[size_t(idx)].numOps;
    if (num_ops > 1)
        return std::max(num_ops, schedDepthVal());
    const SchedOp &op = cold_[size_t(idx)].ops[0];
    int lat = execLatency(op);
    if (op.op == isa::OpClass::Load) {
        // Speculative hit assumption -- or, under the load-delay
        // policy, the sampled true delay: the broadcast then fires
        // exactly when the value is ready and is never recalled.
        lat += loadsSpeculate_ ? params_.dl1HitLatency
                               : sampledLoadDelay(idx, 0);
    }
    return std::max(lat, schedDepthVal());
}

int
Scheduler::sampledLoadDelay(int idx, int o) const
{
    const EntryDelays &d = delays_[size_t(idx)];
    return (d.sampled >> unsigned(o)) & 1 ? d.lat[size_t(o)]
                                          : params_.dl1HitLatency;
}

void
Scheduler::ensureTag(Tag t)
{
    if (t >= 0 && size_t(t) >= tagCap_)
        resizeTags(size_t(t) + size_t(t) / 2 + 64);
}

void
Scheduler::resizeTags(size_t n)
{
    tagReadyBits_.resize(bitWords(n), 0);
    tagValueReady_.resize(n, kNoCycle);
    tagReadyAt_.resize(n, kNoCycle);
    tagMissPending_.resize(bitWords(n), 0);
    tagCap_ = n;
}

void
Scheduler::poolExhausted()
{
    integrity_.fail(verify::IntegrityChecker::Check::TagLiveness,
                    "tag pool exhausted: all " +
                        std::to_string(pool_.bound()) + " tags are live");
}

void
Scheduler::unbalancedRelease(Tag t)
{
    integrity_.fail(verify::IntegrityChecker::Check::TagLiveness,
                    "tag " + std::to_string(t) +
                        " released more often than retained");
}

bool
Scheduler::tagIsReady(Tag t) const
{
    return t >= 0 && size_t(t) < tagCap_ &&
           testBit(tagReadyBits_, size_t(t));
}

bool
Scheduler::consumerIndexed(Tag t, int idx) const
{
    return testBit(consumers_, consumerBit(t, idx));
}

void
Scheduler::refreshReady(int idx)
{
    const EntryState &st = state_[size_t(idx)];
    bool valid = st.flags & kFValid;
    if (valid && st.wait == 0 && !(st.flags & (kFPending | kFIssued)))
        setBit(readyBits_, size_t(idx));
    else
        clearBit(readyBits_, size_t(idx));
    if (valid && st.wait != 0)
        setBit(watchBits_, size_t(idx));
    else
        clearBit(watchBits_, size_t(idx));
    if (stallProbe_)
        refreshStall(idx);
}

bool
Scheduler::tagMissPending(Tag t) const
{
    return size_t(t) < tagCap_ && testBit(tagMissPending_, size_t(t));
}

Scheduler::StallClass
Scheduler::stallClassOf(int idx) const
{
    const EntryState &st = state_[size_t(idx)];
    if ((st.flags & (kFValid | kFIssued)) != kFValid)
        return kStallNone;
    if (st.flags & kFWrongPath)
        return kStallWrongPath;
    if (st.flags & kFPending)
        return kStallPending;
    const bool replayed = st.flags & kFReplayed;
    if (st.wait == 0)
        return replayed ? kStallReadyReplayed : kStallReady;
    const std::array<Tag, kMaxEntrySrcs> &tags = srcTag_[size_t(idx)];
    for (uint8_t m = st.wait; m; m &= uint8_t(m - 1)) {
        if (tagMissPending(tags[size_t(std::countr_zero(unsigned(m)))]))
            return kStallMissWait;
    }
    return replayed ? kStallWaitReplayed : kStallWait;
}

void
Scheduler::refreshStall(int idx)
{
    const StallClass cls = stallClassOf(idx);
    uint8_t &cur = stallClass_[size_t(idx)];
    if (cls == cur)
        return;
    --stallCount_[cur];
    ++stallCount_[cls];
    cur = cls;
    ++stallEpoch_;
}

void
Scheduler::markMissPending(Tag t)
{
    setBit(tagMissPending_, size_t(t));
    const uint64_t *bucket = &consumers_[consumerBit(t, 0) / 64];
    forEachSetBitAnd(watchBits_, bucket,
                     [&](size_t i) { refreshStall(int(i)); });
}

void
Scheduler::setStallProbe(bool on)
{
    stallProbe_ = on;
    // A cached snapshot never outlives a switch: off, the next one
    // throws; on, it is recomputed from the rebuilt classes.
    ++stallEpoch_;
    if (!on)
        return;
    stallClass_.assign(state_.size(), kStallNone);
    stallCount_ = {};
    stallCount_[kStallNone] = int(state_.size());
    forEachSetBit(validBits_, [&](size_t i) { refreshStall(int(i)); });
}

bool
Scheduler::canInsert(int needed) const
{
    return int(freeList_.size()) >= needed;
}

int
Scheduler::allocEntry()
{
    if (freeList_.empty())
        throw std::logic_error(
            "issue-queue overflow: insert() without canInsert()");
    int idx = freeList_.back();
    freeList_.pop_back();
    ++occupied_;
    return idx;
}

void
Scheduler::freeEntry(int idx, Cycle now)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    integrity_.require(st.flags & kFValid,
                       verify::IntegrityChecker::Check::IqAccounting,
                       [idx] {
                           return "freeEntry on invalid entry " +
                                  std::to_string(idx) +
                                  " (double free or stale event)";
                       });
    record(now, verify::SchedEvent::Kind::Free, c.minSeq, c.dstTag, idx);
    cancelBcast(idx, now);
    st.flags &= uint8_t(~kFValid);
    clearBit(validBits_, size_t(idx));
    clearBit(readyBits_, size_t(idx));
    clearBit(watchBits_, size_t(idx));
    if (stallProbe_)
        refreshStall(idx);
    for (int s = 0; s < st.numSrcs; ++s) {
        Tag t = srcTag_[size_t(idx)][size_t(s)];
        clearBit(consumers_, consumerBit(t, idx));
        releaseTag(t);
    }
    releaseTag(c.dstTag);
    ++c.gen;
    --occupied_;
    freeList_.push_back(idx);
}

int &
Scheduler::slotDebt(Cycle c)
{
    auto &slot = slotDebt_[c % kRing];
    if (slot.first != c)
        slot = {c, 0};
    return slot.second;
}

int
Scheduler::addSource(int idx, Tag t)
{
    EntryState &st = state_[size_t(idx)];
    int s = st.numSrcs++;
    srcTag_[size_t(idx)][size_t(s)] = t;
    bool rdy = tagIsReady(t);
    if (!rdy)
        st.wait |= uint8_t(1u << unsigned(s));
    cold_[size_t(idx)].srcReadyAt[size_t(s)] =
        rdy ? tagReadyAt_[size_t(t)] : kNoCycle;
    setBit(consumers_, consumerBit(t, idx));
    pool_.retain(t);
    return s;
}

int
Scheduler::insert(const SchedOp &op, Cycle now, bool expect_tail)
{
    ensureTag(op.dst);
    ensureTag(op.src[0]);
    ensureTag(op.src[1]);

    int idx = allocEntry();
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    uint32_t gen = c.gen;
    c = EntryCold{};
    c.gen = gen;
    st = EntryState{};
    st.flags = kFValid | (expect_tail ? kFPending : 0) |
               (op.wrongPath ? kFWrongPath : 0);
    setBit(validBits_, size_t(idx));
    srcTag_[size_t(idx)].fill(kNoTag);
    opcls_[size_t(idx)] = EntryOps{};
    opcls_[size_t(idx)].numOps = 1;
    opcls_[size_t(idx)].cls[0] = op.op;
    c.ops[0] = op;
    c.dstTag = op.dst;
    pool_.retain(op.dst);
    c.minSeq = c.maxSeq = op.seq;
    age_[size_t(idx)] = nextAge_++;
    minIssue_[size_t(idx)] = now + 1;
    c.outBcast = -1;

    for (Tag t : op.src) {
        if (t == kNoTag)
            continue;
        bool dup = false;
        for (int s = 0; s < st.numSrcs; ++s)
            dup = dup || srcTag_[size_t(idx)][size_t(s)] == t;
        if (!dup)
            addSource(idx, t);
    }
    ++insertedOps_;
    ++insertedEntries_;
    record(now, verify::SchedEvent::Kind::Insert, op.seq, op.dst, idx);

    if (!(st.flags & kFPending) && st.wait == 0) {
        c.readyAt = now + 1;
        if (selectFree(params_.policy) && !(st.flags & kFCollided))
            scheduleBcast(idx, c.readyAt + Cycle(schedLatency(idx)), true);
    }
    refreshReady(idx);
    return idx;
}

bool
Scheduler::appendTail(int idx, const SchedOp &tail, Cycle now,
                      bool more_coming)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    EntryOps &oc = opcls_[size_t(idx)];
    if (!(st.flags & kFValid) || !(st.flags & kFPending) ||
        (st.flags & kFIssued))
        return false;
    if (int(oc.numOps) >= std::min(params_.maxMopSize, kMaxMopOps))
        return false;
    ensureTag(tail.src[0]);
    ensureTag(tail.src[1]);

    int budget = maxSrcsFor(params_.style);
    // Dry-run the source union first so failure leaves the entry intact.
    std::array<Tag, 2> fresh = {kNoTag, kNoTag};
    int n_fresh = 0;
    for (Tag t : tail.src) {
        if (t == kNoTag || t == c.dstTag)  // internal head->tail edge
            continue;
        bool dup = false;
        for (int s = 0; s < st.numSrcs; ++s)
            dup = dup || srcTag_[size_t(idx)][size_t(s)] == t;
        for (int f = 0; f < n_fresh; ++f)
            dup = dup || fresh[size_t(f)] == t;
        if (!dup)
            fresh[size_t(n_fresh++)] = t;
    }
    if (st.numSrcs + n_fresh > budget)
        return false;

    for (int f = 0; f < n_fresh; ++f) {
        int s = addSource(idx, fresh[size_t(f)]);
        st.fromTail |= uint8_t(1u << unsigned(s));
    }
    c.ops[size_t(oc.numOps)] = tail;
    oc.cls[size_t(oc.numOps)] = tail.op;
    ++oc.numOps;
    c.maxSeq = tail.seq;
    if (more_coming)
        st.flags |= kFPending;
    else
        st.flags &= uint8_t(~kFPending);
    minIssue_[size_t(idx)] = std::max(minIssue_[size_t(idx)], now + 1);
    ++insertedOps_;
    record(now, verify::SchedEvent::Kind::Append, tail.seq, c.dstTag, idx);
    if (tail.dst != c.dstTag && tail.dst != kNoTag)
        record(now, verify::SchedEvent::Kind::Append, tail.seq, tail.dst,
               idx, "tail's own dst");
    if (!(st.flags & kFPending) && st.wait == 0)
        c.readyAt = now + 1;
    refreshReady(idx);
    return true;
}

void
Scheduler::clearPending(int idx, Cycle now)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    integrity_.require(st.flags & kFValid,
                       verify::IntegrityChecker::Check::MopPairing,
                       [idx] {
                           return "clearPending on invalid entry " +
                                  std::to_string(idx);
                       });
    record(now, verify::SchedEvent::Kind::ClearPending, c.minSeq, c.dstTag,
           idx);
    st.flags &= uint8_t(~kFPending);
    if (st.wait == 0 && c.readyAt == kNoCycle)
        c.readyAt = minIssue_[size_t(idx)];
    refreshReady(idx);
}

void
Scheduler::scheduleBcast(int entry_idx, Cycle fire, bool speculative)
{
    EntryCold &c = cold_[size_t(entry_idx)];
    if (c.dstTag == kNoTag)
        return;
    if (inj_) {
        int d = inj_->broadcastDelay();
        if (d > 0) {
            record(fire, verify::SchedEvent::Kind::Inject, c.ops[0].seq,
                   c.dstTag, entry_idx, "delay-bcast");
            fire += Cycle(d);
        }
    }
    int id = bcastCal_.push(
        fire, Broadcast{c.dstTag, entry_idx, c.gen, false, speculative});
    c.outBcast = id;
    // minSeq (== ops[0].seq) shares a cache line with dstTag and gen;
    // ops[0] would cost this path one more line per broadcast.
    record(fire, verify::SchedEvent::Kind::Bcast, c.minSeq, c.dstTag,
           entry_idx, speculative ? "speculative" : "");
}

void
Scheduler::cancelBcast(int entry_idx, Cycle now)
{
    EntryCold &c = cold_[size_t(entry_idx)];
    if (c.outBcast >= 0) {
        record(now, verify::SchedEvent::Kind::BcastCancel, c.minSeq,
               c.dstTag, entry_idx);
        bcastCal_.at(c.outBcast).canceled = true;
        c.outBcast = -1;
    }
}

void
Scheduler::onEntryBecameReady(int idx, Cycle now)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    c.readyAt = now;
    if (selectFree(params_.policy) && !(st.flags & (kFCollided | kFIssued)) &&
        c.outBcast < 0) {
        // Speculate selection at the earliest cycle the entry can
        // actually request (a replayed entry is held back by its
        // replay penalty; broadcasting earlier would wake consumers
        // with no collision to recall them).
        Cycle earliest = std::max(now, minIssue_[size_t(idx)]);
        scheduleBcast(idx, earliest + Cycle(schedLatency(idx)), true);
    }
}

void
Scheduler::deliverTag(Tag tag, Cycle now)
{
    ensureTag(tag);
    setBit(tagReadyBits_, size_t(tag));
    tagReadyAt_[size_t(tag)] = now;
    if (stallProbe_)
        clearBit(tagMissPending_, size_t(tag));
    record(now, verify::SchedEvent::Kind::Deliver, 0, tag);
    // Wakeup broadcast: only entries still waiting on some source and
    // naming a tag of this tag's consumer bucket can be affected, so
    // walk that intersection and compare the packed tag plane for the
    // waiting slots alone.
    const uint64_t *bucket = &consumers_[consumerBit(tag, 0) / 64];
    forEachSetBitAnd(watchBits_, bucket, [&](size_t i) {
        ++work_.deliverCompares;
        const std::array<Tag, kMaxEntrySrcs> &tags = srcTag_[i];
        EntryState &st = state_[i];
        uint8_t woken = 0;
        for (uint8_t m = st.wait; m; m &= uint8_t(m - 1)) {
            unsigned s = unsigned(std::countr_zero(unsigned(m)));
            if (tags[s] == tag)
                woken |= uint8_t(1u << s);
        }
        if (!woken)
            return;
        st.wait &= uint8_t(~woken);
        EntryCold &c = cold_[i];
        for (uint8_t m = woken; m; m &= uint8_t(m - 1))
            c.srcReadyAt[size_t(std::countr_zero(unsigned(m)))] = now;
        refreshReady(int(i));
        if (st.wait == 0 && !(st.flags & (kFPending | kFIssued)))
            onEntryBecameReady(int(i), now);
    });
}

void
Scheduler::deliverBcasts(Cycle now)
{
    bcastCal_.drain(now, [&](const Broadcast &b, int id) {
        // The producing entry's broadcast has left the bus.
        if (b.entry >= 0) {
            EntryCold &src = cold_[size_t(b.entry)];
            if (src.gen == b.gen && src.outBcast == id)
                src.outBcast = -1;
        }
        if (!b.canceled) {
            Tag tag = b.tag;
            if (inj_ && inj_->fire(verify::FaultKind::CorruptWakeup)) {
                // Wakeup-array corruption: the bus carries the wrong
                // tag. Not recoverable; the run must *detect* it.
                Tag wrong = Tag(inj_->pick(uint32_t(tagCap_)));
                record(now, verify::SchedEvent::Kind::Inject, 0, tag,
                       b.entry, "corrupt-wakeup");
                tag = wrong;
            }
            deliverTag(tag, now);
        }
        if (b.entry >= 0 && (state_[size_t(b.entry)].flags & kFValid) &&
            cold_[size_t(b.entry)].gen == b.gen) {
            reapIfComplete(b.entry, now);
        }
    });
}

void
Scheduler::reapIfComplete(int idx, Cycle now)
{
    const EntryState &st = state_[size_t(idx)];
    if ((st.flags & kFValid) && (st.flags & kFIssued) && prefixDone(idx) &&
        cold_[size_t(idx)].outBcast < 0) {
        freeEntry(idx, now);
    }
}

void
Scheduler::invalidateEntry(int idx, Cycle now)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    integrity_.require((st.flags & kFValid) && (st.flags & kFIssued),
                       verify::IntegrityChecker::Check::IqAccounting,
                       [idx] {
                           return "invalidateEntry on entry " +
                                  std::to_string(idx) +
                                  " that is not valid+issued";
                       });
    record(now, verify::SchedEvent::Kind::Replay, c.ops[0].seq, c.dstTag,
           idx);
    st.flags &= uint8_t(~kFIssued);
    st.flags |= kFReplayed;
    ++c.gen;  // cancels in-flight completion/discovery/kill events
    c.opDone = 0;
    minIssue_[size_t(idx)] = now + Cycle(params_.replayPenalty);
    cancelBcast(idx, now);
    if (c.dstTag != kNoTag)
        tagValueReady_[size_t(c.dstTag)] = kNoCycle;
    refreshReady(idx);
}

void
Scheduler::recallTag(Tag tag, Cycle now)
{
    if (tag == kNoTag)
        return;
    ensureTag(tag);
    clearBit(tagReadyBits_, size_t(tag));
    tagReadyAt_[size_t(tag)] = kNoCycle;
    tagValueReady_[size_t(tag)] = kNoCycle;
    record(now, verify::SchedEvent::Kind::Recall, 0, tag);

    // Only entries in the tag's consumer bucket can name it. The
    // recursive recalls below never insert or free, so the bucket and
    // validBits_ stay fixed while this walk runs.
    const uint64_t *bucket = &consumers_[consumerBit(tag, 0) / 64];
    forEachSetBitAnd(validBits_, bucket, [&](size_t i) {
        ++work_.recallCompares;
        EntryState &st = state_[i];
        EntryCold &c = cold_[i];
        uint8_t ready = uint8_t(~st.wait) & srcMask(st.numSrcs);
        uint8_t recalled = 0;
        for (uint8_t m = ready; m; m &= uint8_t(m - 1)) {
            unsigned s = unsigned(std::countr_zero(unsigned(m)));
            if (srcTag_[i][s] == tag)
                recalled |= uint8_t(1u << s);
        }
        if (!recalled)
            return;
        st.wait |= recalled;
        for (uint8_t m = recalled; m; m &= uint8_t(m - 1))
            c.srcReadyAt[size_t(std::countr_zero(unsigned(m)))] = kNoCycle;
        refreshReady(int(i));
        if (st.flags & kFIssued) {
            // Selectively replay the mis-scheduled consumer and undo
            // the wakeups it caused in turn.
            ++replays_;
            invalidateEntry(int(i), now);
            recallTag(c.dstTag, now);
        } else if (c.outBcast >= 0) {
            // Un-issued consumer with a speculative (select-free)
            // broadcast outstanding: recall it transitively.
            cancelBcast(int(i), now);
            c.readyAt = kNoCycle;
            recallTag(c.dstTag, now);
        } else {
            c.readyAt = kNoCycle;
        }
    });
}

void
Scheduler::issueEntry(int idx, Cycle now, std::vector<MopIssue> *mop_issues)
{
    EntryState &st = state_[size_t(idx)];
    EntryCold &c = cold_[size_t(idx)];
    const EntryOps &oc = opcls_[size_t(idx)];
    const int num_ops = int(oc.numOps);
    const bool wasReplayed = st.flags & kFReplayed;
    st.flags |= kFIssued;
    st.flags &= uint8_t(~kFReplayed);
    c.issueCycle = now;
    c.opDone = 0;
    clearBit(readyBits_, size_t(idx));
    if (stallProbe_)
        refreshStall(idx);
    ++issuedEntries_;
    issuedOps_ += uint64_t(num_ops);
    lastProgress_ = now;
    record(now, verify::SchedEvent::Kind::Issue, c.ops[0].seq, c.dstTag,
           idx);

    fu_.reserve(oc.cls[0], now);
    for (int k = 1; k < num_ops; ++k) {
        fu_.reserve(oc.cls[size_t(k)], now + Cycle(k));
        ++slotDebt(now + Cycle(k));  // the MOP sequences through its slot
    }

    // Load-delay policy: sample each load's true delay before the
    // broadcast is scheduled -- schedLatency reads the sample from the
    // entry, and the latency sampler is side-effecting (fault
    // campaigns draw from an RNG) so it must be queried exactly once
    // per load. Gated off for speculating policies to keep the
    // injector's draw order (and hence every Paper fault campaign)
    // byte-identical.
    if (!loadsSpeculate_) {
        for (int o = 0; o < num_ops; ++o) {
            const SchedOp &op = c.ops[size_t(o)];
            if (op.op != isa::OpClass::Load)
                continue;
            EntryDelays &d = delays_[size_t(idx)];
            d.lat[size_t(o)] =
                loadLatency_ ? loadLatency_(op.seq) : params_.dl1HitLatency;
            d.sampled |= uint8_t(1u << unsigned(o));
        }
    }

    // Broadcast scheduling. Select-free entries that were never
    // collision victims already broadcast speculatively at ready time
    // with identical timing; everything else broadcasts issue-gated.
    if (c.outBcast < 0)
        scheduleBcast(idx, now + Cycle(schedLatency(idx)), false);

    bool pileup = false;
    if (params_.policy == LoopPolicy::SelectFreeScoreboard) {
        // Scoreboard check: a mis-woken consumer flows to RF and is
        // killed there if any source value is not actually available.
        Cycle exec_start = now + Cycle(params_.dispatchDepth);
        for (int s = 0; s < st.numSrcs; ++s) {
            Tag t = srcTag_[size_t(idx)][size_t(s)];
            if (t == kNoTag)
                continue;
            Cycle vr = tagValueReady_[size_t(t)];
            if (vr == kNoCycle || vr > exec_start)
                pileup = true;
        }
    }
    if (pileup) {
        ++pileupKills_;
        // The op occupies its slot/FU down to RF, then is invalidated.
        recallCal_.push(now + Cycle(params_.dispatchDepth),
                        RecallEv{idx, c.gen});
        return;
    }

    // Per-op execution timing.
    for (int o = 0; o < num_ops; ++o) {
        const SchedOp &op = c.ops[size_t(o)];
        Cycle exec_start = now + Cycle(params_.dispatchDepth) + Cycle(o);
        Cycle complete = exec_start + Cycle(execLatency(op));
        bool was_miss = false;
        if (op.op == isa::OpClass::Load) {
            int mem_lat;
            if (loadsSpeculate_) {
                mem_lat = loadLatency_ ? loadLatency_(op.seq)
                                       : params_.dl1HitLatency;
            } else {
                mem_lat = sampledLoadDelay(idx, o);
                // The sample is dead past this point.
                delays_[size_t(idx)].sampled &=
                    uint8_t(~(1u << unsigned(o)));
            }
            was_miss = mem_lat > params_.dl1HitLatency;
            complete += Cycle(mem_lat);
            if (was_miss && loadsSpeculate_) {
                // Mis-scheduling discovered when addr-gen completes.
                Cycle discover = exec_start + 1;
                Cycle corrected =
                    std::max(complete - Cycle(params_.dispatchDepth),
                             discover + 1);
                missCal_.push(discover,
                              MissDiscoveryEv{idx, c.gen, corrected});
            } else if (was_miss && stallProbe_ && c.dstTag != kNoTag) {
                // The load-delay policy never recalls: consumers just
                // wait out the predicted miss latency. Charge them to
                // the dcache-miss cause from issue until the single,
                // correctly-timed broadcast delivers.
                markMissPending(c.dstTag);
            }
        }
        c.opComplete[size_t(o)] = complete;
        ExecEvent ev;
        ev.seq = op.seq;
        ev.ready = c.readyAt == kNoCycle ? now : c.readyAt;
        ev.issued = now;
        ev.execStart = exec_start;
        ev.complete = complete;
        ev.isLoad = op.op == isa::OpClass::Load;
        ev.wasMiss = was_miss;
        ev.replayed = wasReplayed;
        compCal_.push(complete, CompletionEv{idx, c.gen, o, ev});
    }
    if (c.dstTag != kNoTag) {
        tagValueReady_[size_t(c.dstTag)] =
            c.opComplete[size_t(num_ops - 1)];
    }

    if (num_ops > 1 && mop_issues) {
        Cycle max_head = 0, max_tail = 0;
        bool has_tail_src = false;
        for (int s = 0; s < st.numSrcs; ++s) {
            Cycle r = c.srcReadyAt[size_t(s)];
            if (r == kNoCycle)
                r = 0;  // ready since before insertion
            if (st.fromTail & uint8_t(1u << unsigned(s))) {
                has_tail_src = true;
                max_tail = std::max(max_tail, r);
            } else {
                max_head = std::max(max_head, r);
            }
        }
        MopIssue mi;
        mi.headSeq = c.ops[0].seq;
        mi.tailSeq = c.ops[size_t(num_ops - 1)].seq;
        mi.numOps = num_ops;
        mi.tailLastArriving = has_tail_src && max_tail > max_head;
        mop_issues->push_back(mi);
    }
}

void
Scheduler::doSelect(Cycle now, std::vector<MopIssue> *mop_issues)
{
    // Select request collection: walk the ready bitmap (valid, not
    // pending, not issued, sources ready); only the time-dependent
    // minIssue gate is evaluated here.
    readyScratch_.clear();
    forEachSetBit(readyBits_, [&](size_t i) {
        ++work_.selectVisits;
        if (minIssue_[i] <= now)
            readyScratch_.push_back(int(i));
    });
    if (readyScratch_.size() > 1) {
        std::sort(readyScratch_.begin(), readyScratch_.end(),
                  [this](int a, int b) {
                      return age_[size_t(a)] < age_[size_t(b)];
                  });
    }

    const int debt0 = slotDebt(now);
    int width = params_.issueWidth - debt0;
    int issuedNow = 0;
    int issuedNowWp = 0;
    const bool select_free = selectFree(params_.policy);
    for (int idx : readyScratch_) {
        // Once the width is spent nothing more can issue. Select-free
        // losers are collisions and must still be seen; any other
        // loser is left as it is.
        if (width <= 0 && !select_free)
            break;
        const EntryOps &oc = opcls_[size_t(idx)];
        // issueEntry reserves a unit for every op of the MOP at
        // consecutive cycles, so the grant must simulate the whole
        // reservation sequence: per-op independent checks both
        // overbook units on 3/4-op MOPs and miss the occupancy an
        // earlier unpipelined op (divide) of the same entry commits.
        bool fu_ok = fu_.availableSeq(oc.cls.data(), int(oc.numOps), now);
        if (width > 0 && fu_ok) {
            if (inj_ && inj_->fire(verify::FaultKind::DropGrant)) {
                // Injected grant loss: the select arbiter granted this
                // entry but the grant never arrived. The entry stays
                // ready and re-requests; the slot is wasted. Under
                // select-free policies the premature speculative
                // wakeup must additionally be repaired, exactly like a
                // genuine collision.
                EntryState &st = state_[size_t(idx)];
                record(now, verify::SchedEvent::Kind::Inject,
                       cold_[size_t(idx)].ops[0].seq,
                       cold_[size_t(idx)].dstTag, idx, "drop-grant");
                --width;
                if (select_free && !(st.flags & kFCollided)) {
                    ++collisions_;
                    st.flags |= kFCollided;
                    if (params_.policy == LoopPolicy::SelectFreeSquashDep) {
                        recallCal_.push(now + 1,
                                        RecallEv{idx,
                                                 cold_[size_t(idx)].gen});
                    }
                }
                continue;
            }
            if (state_[size_t(idx)].flags & kFWrongPath)
                ++issuedNowWp;
            issueEntry(idx, now, mop_issues);
            --width;
            ++issuedNow;
            continue;
        }
        // Selection loss. Under select-free policies this is a
        // collision: the entry's speculative wakeup was premature.
        EntryState &st = state_[size_t(idx)];
        if (select_free && !(st.flags & kFCollided)) {
            ++collisions_;
            st.flags |= kFCollided;
            record(now, verify::SchedEvent::Kind::Collision,
                   cold_[size_t(idx)].ops[0].seq, cold_[size_t(idx)].dstTag,
                   idx);
            if (params_.policy == LoopPolicy::SelectFreeSquashDep) {
                // The squash-dep mechanism detects the victim in the
                // select stage and selectively squashes dependents one
                // cycle later; the victim re-broadcasts at real issue.
                recallCal_.push(now + 1, RecallEv{idx, cold_[size_t(idx)].gen});
            }
        }
    }
    // Slots sequencing a MOP's later ops count as useful work too.
    lastIssueSlots_ = std::min(params_.issueWidth, debt0 + issuedNow);
    // Wrong-path issues are still charged per issued entry; debt slots
    // from a wrong-path MOP's later ops stay in the useful bucket (a
    // deliberate, documented imprecision — debt is not entry-tagged).
    lastIssueSlotsWp_ = std::min(lastIssueSlots_, issuedNowWp);
}

void
Scheduler::refillStallSnapshot(Cycle now) const
{
    if (!stallProbe_)
        throw std::logic_error(
            "the stall snapshot needs the stall probe switched on");
    StallCache &sc = stallCache_;
    sc.until = computeStallSnapshot(now, sc.snap);
    sc.epoch = stallEpoch_;
    sc.issueSlots = lastIssueSlots_;
    sc.issueSlotsWp = lastIssueSlotsWp_;
    sc.from = now;
}

Cycle
Scheduler::computeStallSnapshot(Cycle now, StallSnapshot &snap) const
{
    // Ready entries (all sources ready, not pending, not issued) that
    // requested selection this cycle and were not granted (width
    // exhausted, FU conflict, or a dropped grant) lost select; the
    // rest of them are before their select-request cycle
    // (insert-to-select latency, or a replay penalty). That split is
    // the only part that depends on the cycle, so only ready entries
    // are visited; wrong-path ones are charged as such.
    Cycle until = kNoCycle;
    int losers = 0;
    int losersReplayed = 0;
    forEachSetBit(readyBits_, [&](size_t i) {
        const uint8_t cls = stallClass_[i];
        if (cls != kStallReady && cls != kStallReadyReplayed)
            return;
        const Cycle at = minIssue_[i];
        if (at <= now) {
            ++losers;
            losersReplayed += cls == kStallReadyReplayed;
        } else {
            until = std::min(until, at);
        }
    });
    // Issued entries are in flight; their slot was charged at issue
    // time. Every other entry is counted in its class.
    const std::array<int, kNumStallClasses> &n = stallCount_;
    snap.issuedSlots = lastIssueSlots_ - lastIssueSlotsWp_;
    snap.wrongPath = lastIssueSlotsWp_ + n[kStallWrongPath];
    snap.pendingHeads = n[kStallPending];
    snap.readyLosers = losers;
    snap.missWait = n[kStallMissWait];
    snap.replayWait =
        n[kStallReadyReplayed] - losersReplayed + n[kStallWaitReplayed];
    snap.wakeupWait =
        n[kStallReady] - (losers - losersReplayed) + n[kStallWait];
    return until;
}

void
Scheduler::tick(Cycle now, std::vector<ExecEvent> &completed,
                std::vector<MopIssue> *mop_issues)
{
    foldOccupancyLedger();
    occAvg_.sample(double(occupied_));

    // Corrective recalls for injected spurious wakeups run before this
    // cycle's deliveries: a legitimate broadcast for the same tag
    // delivered this cycle or later re-establishes readiness.
    if (!injRecalls_.empty())
        applyInjectedRecalls(now);

    deliverBcasts(now);

    // Load-miss discoveries: recall the speculative hit-time wakeup and
    // schedule the corrected one.
    missCal_.drain(now, [&](const MissDiscoveryEv &ev, int) {
        EntryState &st = state_[size_t(ev.entry)];
        EntryCold &c = cold_[size_t(ev.entry)];
        if (!(st.flags & kFValid) || c.gen != ev.gen ||
            !(st.flags & kFIssued)) {
            return;
        }
        cancelBcast(ev.entry, now);  // if the spec wakeup has not fired
        recallTag(c.dstTag, now);
        tagValueReady_[size_t(c.dstTag)] =
            c.opComplete[size_t(opcls_[size_t(ev.entry)].numOps - 1)];
        // Until the corrected wakeup fires, consumers of this tag
        // are stalled by the miss, not by generic wakeup wait.
        if (stallProbe_ && c.dstTag != kNoTag)
            markMissPending(c.dstTag);
        scheduleBcast(ev.entry, ev.correctedBcast, false);
    });

    if (inj_)
        injectFaults(now);

    doSelect(now, mop_issues);

    // Recall events land here, after this cycle's select (mis-woken
    // dependents may have consumed issue slots this cycle; that is the
    // modeled cost). Under the scoreboard policy these are pileup
    // victims reaching RF; under squash-dep they repair a collision
    // victim's premature wakeup tree.
    recallCal_.drain(now, [&](const RecallEv &ev, int) {
        EntryState &st = state_[size_t(ev.entry)];
        EntryCold &c = cold_[size_t(ev.entry)];
        if (!(st.flags & kFValid) || c.gen != ev.gen)
            return;
        if (params_.policy == LoopPolicy::SelectFreeScoreboard) {
            if (st.flags & kFIssued)
                invalidateEntry(ev.entry, now);
            return;
        }
        // Squash-dep: undo the speculative wakeup tree. If the
        // victim managed to issue in the meantime, re-broadcast
        // with its true issue timing instead of invalidating it.
        cancelBcast(ev.entry, now);
        bool was_issued = st.flags & kFIssued;
        recallTag(c.dstTag, now);
        if (was_issued && c.dstTag != kNoTag) {
            tagValueReady_[size_t(c.dstTag)] =
                c.opComplete[size_t(opcls_[size_t(ev.entry)].numOps - 1)];
            scheduleBcast(ev.entry,
                          c.issueCycle + Cycle(schedLatency(ev.entry)),
                          false);
        }
    });

    // Completions: report executed ops and free finished entries
    // whose broadcast has left the bus (the rest are freed when it
    // delivers).
    {
        bool any = false;
        compCal_.drain(now, [&](const CompletionEv &ev, int) {
            EntryState &st = state_[size_t(ev.entry)];
            EntryCold &c = cold_[size_t(ev.entry)];
            if (!(st.flags & kFValid) || c.gen != ev.gen ||
                !(st.flags & kFIssued) ||
                ev.opIdx >= int(opcls_[size_t(ev.entry)].numOps)) {
                return;
            }
            completed.push_back(ev.ev);
            any = true;
            c.opDone |= 1u << unsigned(ev.opIdx);
            reapIfComplete(ev.entry, now);
        });
        if (any)
            lastProgress_ = now;
    }

    // Periodic structural audit; catches leaks and corrupted pairing
    // long before they surface as a wrong number.
    if ((now & 4095) == 0)
        auditStructures();

    if (occupied_ > 0 && now > lastProgress_ &&
        now - lastProgress_ > params_.watchdogCycles) {
        std::ostringstream ss;
        ss << "scheduler deadlock: " << occupied_
           << " entries stuck, no issue since cycle " << lastProgress_
           << " (now " << now << ")";
        dumpEntries(ss);
        throw DeadlockError(ss.str());
    }
}

Cycle
Scheduler::nextEventCycle(Cycle now)
{
    Cycle t = kNoCycle;
    auto fold = [&t](Cycle c) {
        if (c < t)
            t = c;
    };
    fold(bcastCal_.nextAfter(now));
    fold(compCal_.nextAfter(now));
    fold(missCal_.nextAfter(now));
    fold(recallCal_.nextAfter(now));
    for (const auto &r : injRecalls_)
        fold(std::max(r.first, now + 1));
    // Ready entries re-request selection every cycle from their
    // minIssue gate onward (an FU-blocked or width-starved loser must
    // re-arbitrate next cycle, so the bound clamps at now + 1).
    forEachSetBit(readyBits_, [&](size_t i) {
        fold(std::max(minIssue_[i], now + 1));
    });
    // The forward-progress watchdog must fire at the same cycle a
    // stepped run would reach.
    if (occupied_ > 0)
        fold(lastProgress_ + Cycle(params_.watchdogCycles) + 1);
    return t;
}

void
Scheduler::applyInjectedRecalls(Cycle now)
{
    size_t kept = 0;
    for (size_t i = 0; i < injRecalls_.size(); ++i) {
        if (injRecalls_[i].first <= now) {
            Tag t = injRecalls_[i].second;
            record(now, verify::SchedEvent::Kind::Inject, 0, t, -1,
                   "spurious-wakeup repair");
            recallTag(t, now);
            // recallTag wipes the tag's value-ready time, but the real
            // producer may already be issued and in flight; restore its
            // timing exactly as the load-miss recall path does, or
            // scoreboard consumers would pileup-kill forever.
            for (size_t e = 0; e < state_.size(); ++e) {
                if ((state_[e].flags & (kFValid | kFIssued)) ==
                        (kFValid | kFIssued) &&
                    cold_[e].dstTag == t) {
                    tagValueReady_[size_t(t)] = cold_[e].opComplete[size_t(
                        opcls_[e].numOps - 1)];
                    break;
                }
            }
            releaseTag(t);
        } else {
            injRecalls_[kept++] = injRecalls_[i];
        }
    }
    injRecalls_.resize(kept);
}

void
Scheduler::injectFaults(Cycle now)
{
    // Spurious wakeup: one opportunity per cycle. Deliver a wakeup for
    // a tag some waiting entry has not yet seen, then repair it next
    // cycle through the same selective-replay path a mis-speculated
    // load uses -- any consumer that issues in the window is
    // invalidated and replayed, so the perturbation is recoverable by
    // construction.
    if (inj_->fire(verify::FaultKind::SpuriousWakeup)) {
        readyScratch_.clear();  // reuse as tag scratch
        for (size_t i = 0; i < state_.size(); ++i) {
            const EntryState &st = state_[i];
            if (!(st.flags & kFValid) || (st.flags & kFIssued))
                continue;
            for (int s = 0; s < st.numSrcs; ++s) {
                Tag t = srcTag_[i][size_t(s)];
                bool src_ready = !(st.wait & uint8_t(1u << unsigned(s)));
                if (src_ready || tagIsReady(t))
                    continue;
                bool dup = false;
                for (int c : readyScratch_)
                    dup = dup || Tag(c) == t;
                if (!dup)
                    readyScratch_.push_back(int(t));
            }
        }
        if (!readyScratch_.empty()) {
            Tag victim = Tag(
                readyScratch_[inj_->pick(uint32_t(readyScratch_.size()))]);
            record(now, verify::SchedEvent::Kind::Inject, 0, victim, -1,
                   "spurious-wakeup");
            deliverTag(victim, now);
            injRecalls_.emplace_back(now + 1, victim);
            pool_.retain(victim);
        }
    }
}

void
Scheduler::auditStructures()
{
    using Check = verify::IntegrityChecker::Check;

    int n_valid = 0;
    int max_ops = std::min(params_.maxMopSize, kMaxMopOps);
    for (size_t i = 0; i < state_.size(); ++i) {
        const EntryState &st = state_[i];
        const EntryCold &c = cold_[i];
        const EntryOps &oc = opcls_[i];
        bool valid = st.flags & kFValid;
        integrity_.require(
            testBit(validBits_, i) == valid, Check::IqAccounting, [i] {
                return "entry " + std::to_string(i) +
                       " valid bitmap disagrees with entry state";
            });
        bool want_ready = valid && st.wait == 0 &&
                          !(st.flags & (kFPending | kFIssued));
        integrity_.require(
            testBit(readyBits_, i) == want_ready, Check::IqAccounting,
            [&st, i, valid] {
                return "entry " + std::to_string(i) +
                       " ready bitmap stale (valid=" +
                       std::to_string(valid) + " pending=" +
                       std::to_string(bool(st.flags & kFPending)) +
                       " issued=" +
                       std::to_string(bool(st.flags & kFIssued)) + ")";
            });
        bool want_watch = valid && st.wait != 0;
        integrity_.require(
            testBit(watchBits_, i) == want_watch, Check::IqAccounting,
            [i] {
                return "entry " + std::to_string(i) +
                       " wakeup watch bitmap stale";
            });
        if (stallProbe_) {
            integrity_.require(
                stallClass_[i] == stallClassOf(int(i)), Check::IqAccounting,
                [i] {
                    return "entry " + std::to_string(i) +
                           " stall class stale";
                });
        }
        if (!valid)
            continue;
        ++n_valid;

        integrity_.require(
            int(oc.numOps) >= 1 && int(oc.numOps) <= max_ops,
            Check::MopPairing, [&oc, i, max_ops] {
                return "entry " + std::to_string(i) + " holds " +
                       std::to_string(int(oc.numOps)) + " ops (max " +
                       std::to_string(max_ops) + ")";
            });
        integrity_.require(
            c.minSeq == c.ops[0].seq &&
                c.maxSeq == c.ops[size_t(oc.numOps - 1)].seq,
            Check::MopPairing, [i] {
                return "entry " + std::to_string(i) +
                       " min/max seq disagree with its ops";
            });
        for (int o = 1; o < int(oc.numOps); ++o) {
            integrity_.require(
                c.ops[size_t(o - 1)].seq < c.ops[size_t(o)].seq,
                Check::MopPairing, [&c, i] {
                    return "entry " + std::to_string(i) +
                           " MOP ops out of program order (head seq " +
                           std::to_string(c.ops[0].seq) + ")";
                });
        }
        if (!loadsSpeculate_ && int(oc.numOps) > 1) {
            // The load-delay broadcast algebra assumes a load is its
            // entry's only op (formation never groups loads); a load
            // smuggled into a MOP would broadcast on MOP timing and
            // wake consumers before its value exists.
            for (int o = 0; o < int(oc.numOps); ++o) {
                integrity_.require(
                    oc.cls[size_t(o)] != isa::OpClass::Load,
                    Check::MopPairing, [i] {
                        return "entry " + std::to_string(i) +
                               " groups a load under the load-delay "
                               "policy";
                    });
            }
        }
        integrity_.require(
            st.numSrcs <= kMaxEntrySrcs, Check::MopPairing, [&st, i] {
                return "entry " + std::to_string(i) + " has " +
                       std::to_string(int(st.numSrcs)) + " sources";
            });
        integrity_.require(
            (st.wait & ~srcMask(st.numSrcs)) == 0, Check::MopPairing,
            [i] {
                return "entry " + std::to_string(i) +
                       " waits on a source slot past numSrcs";
            });
        for (int s = 0; s < st.numSrcs; ++s) {
            Tag t = srcTag_[i][size_t(s)];
            integrity_.require(
                consumerIndexed(t, int(i)), Check::TagLiveness, [i, t] {
                    return "entry " + std::to_string(i) +
                           " is missing from the consumer index bucket "
                           "of its source tag " + std::to_string(t);
                });
        }

        if (c.outBcast >= 0) {
            bool in_pool = size_t(c.outBcast) < bcastCal_.poolSize();
            integrity_.require(in_pool, Check::TagLiveness, [i] {
                return "entry " + std::to_string(i) +
                       " outstanding broadcast id out of range";
            });
            const Broadcast &b = bcastCal_.at(c.outBcast);
            integrity_.require(
                !b.canceled && b.entry == int(i) && b.gen == c.gen &&
                    b.tag == c.dstTag,
                Check::TagLiveness, [&b, &c, i] {
                    return "entry " + std::to_string(i) +
                           " outstanding broadcast does not match (tag " +
                           std::to_string(c.dstTag) + " vs " +
                           std::to_string(b.tag) + ")";
                });
        }
    }

    // The index names valid entries only: a freed entry's bits must be
    // gone before its slot is reused.
    const size_t words = validBits_.size();
    for (size_t w = 0; w < words; ++w) {
        uint64_t named = 0;
        for (unsigned b = 0; b < kConsumerBuckets; ++b)
            named |= consumers_[b * words + w];
        uint64_t stale = named & ~validBits_[w];
        integrity_.require(stale == 0, Check::TagLiveness, [w, stale] {
            return "consumer index names free entry " +
                   std::to_string(w * 64 + size_t(std::countr_zero(stale)));
        });
    }

    integrity_.require(n_valid == occupied_, Check::IqAccounting,
                       [this, n_valid] {
                           return "occupancy counter " +
                                  std::to_string(occupied_) + " != " +
                                  std::to_string(n_valid) +
                                  " valid entries (leaked or double-freed)";
                       });
    integrity_.require(
        freeList_.size() + size_t(occupied_) == state_.size(),
        Check::IqAccounting, [this] {
            return "free list holds " + std::to_string(freeList_.size()) +
                   " entries + " + std::to_string(occupied_) +
                   " occupied != " + std::to_string(state_.size()) +
                   " total";
        });
    for (int idx : freeList_) {
        integrity_.require(!(state_[size_t(idx)].flags & kFValid),
                           Check::IqAccounting, [idx] {
                               return "entry " + std::to_string(idx) +
                                      " is on the free list but marked "
                                      "valid";
                           });
    }
    if (stallProbe_) {
        std::array<int, kNumStallClasses> recount{};
        for (uint8_t cls : stallClass_)
            ++recount[cls];
        integrity_.require(
            recount == stallCount_, Check::IqAccounting,
            "stall class counts disagree with the entries' classes");
    }
    // Every occupancy sample counted the live entries: Little's law
    // on the sample clock (verify::OccupancyLedger).
    integrity_.requireOccupancyLaw(
        Check::IqAccounting, "issue queue", uint64_t(occAvg_.sum()),
        occAvg_.count(), occupancyLedger(), uint64_t(occupied_),
        occAvg_.count());
    // A snapshot stallSnapshot would hand out again must equal a fresh
    // walk of the queue as it stands.
    if (stallProbe_ && stallSnapshotReusable(stallCache_.last)) {
        StallSnapshot fresh;
        computeStallSnapshot(stallCache_.last, fresh);
        integrity_.require(
            fresh == stallCache_.snap, Check::StallAccounting, [this] {
                return "reused stall snapshot of cycle " +
                       std::to_string(stallCache_.last) +
                       " differs from a fresh walk";
            });
    }
    auditTags();
}

void
Scheduler::auditTags()
{
    using Check = verify::IntegrityChecker::Check;

    // Callers that name their own tags never touch the pool; their
    // tags are not counted and need not be live.
    if (!pool_.inUse())
        return;
    const size_t bound = pool_.bound();

    // Recount every reference: no name may outlive its tag, and the
    // stored counts must match the names found.
    auditRefs_.assign(bound, 0);
    auto note = [&](Tag t, const char *holder) {
        if (size_t(t) >= bound)
            return;  // kNoTag, or caller-chosen above the pool
        integrity_.require(pool_.isLive(t), Check::TagLiveness, [&] {
            return std::string(holder) + " names free tag " +
                   std::to_string(t);
        });
        ++auditRefs_[size_t(t)];
    };
    forEachSetBit(validBits_, [&](size_t i) {
        note(cold_[i].dstTag, "an issue-queue destination");
        for (int s = 0; s < state_[i].numSrcs; ++s)
            note(srcTag_[i][size_t(s)], "an issue-queue source");
    });
    for (const auto &r : injRecalls_)
        note(r.second, "an injected recall");
    if (tagHolder_)
        tagHolder_->forEachTagRef([&](Tag t) { note(t, "the formation"); });

    size_t live = 0;
    for (size_t t = 0; t < bound; ++t) {
        if (!pool_.isLive(Tag(t)))
            continue;
        ++live;
        const uint32_t stored = pool_.refs(Tag(t));
        integrity_.require(
            stored == auditRefs_[t] && stored > 0, Check::TagLiveness,
            [&] {
                return "tag " + std::to_string(t) + " counts " +
                       std::to_string(stored) + " references but " +
                       std::to_string(auditRefs_[t]) + " were found";
            });
    }
    integrity_.require(
        live + pool_.freeTags().size() == bound, Check::TagLiveness, [&] {
            return std::to_string(live) + " live tags + " +
                   std::to_string(pool_.freeTags().size()) +
                   " on the free list != a pool of " +
                   std::to_string(bound);
        });
    for (Tag t : pool_.freeTags()) {
        integrity_.require(!pool_.isLive(t), Check::TagLiveness, [t] {
            return "live tag " + std::to_string(t) +
                   " is on the free list";
        });
    }

    // A broadcast still on the bus is its entry's, so its tag is live.
    bcastCal_.forEachPending([&](const Broadcast &b) {
        if (b.canceled || size_t(b.tag) >= bound)
            return;
        integrity_.require(pool_.isLive(b.tag), Check::TagLiveness, [&] {
            return "pending broadcast names free tag " +
                   std::to_string(b.tag);
        });
    });
}

void
Scheduler::dumpEntries(std::ostream &os) const
{
    for (size_t i = 0; i < state_.size(); ++i) {
        const EntryState &st = state_[i];
        if (!(st.flags & kFValid))
            continue;
        const EntryCold &c = cold_[i];
        const EntryOps &oc = opcls_[i];
        os << "\n  entry " << i << " seq=" << c.ops[0].seq;
        for (int o = 1; o < int(oc.numOps); ++o)
            os << "+" << c.ops[size_t(o)].seq;
        os << " op=" << isa::opClassName(c.ops[0].op)
           << " tag=" << c.dstTag
           << " pending=" << bool(st.flags & kFPending)
           << " issued=" << bool(st.flags & kFIssued)
           << " minIssue=" << minIssue_[i] << " srcs=[";
        for (int s = 0; s < st.numSrcs; ++s) {
            bool rdy = !(st.wait & uint8_t(1u << unsigned(s)));
            os << srcTag_[i][size_t(s)] << ":" << (rdy ? "R" : "w")
               << (tagIsReady(srcTag_[i][size_t(s)]) ? "/TR" : "/tw")
               << " ";
        }
        os << "]";
    }
}

void
Scheduler::dumpState(std::ostream &os) const
{
    os << "issue queue: " << occupied_ << "/" << state_.size()
       << " entries occupied";
    dumpEntries(os);
    os << "\n";
}

void
Scheduler::squashAfter(uint64_t seq, Cycle now)
{
    record(now, verify::SchedEvent::Kind::Squash, seq);
    forEachSetBit(validBits_, [&](size_t i) {
        EntryState &st = state_[i];
        EntryCold &c = cold_[i];
        EntryOps &oc = opcls_[i];
        if (c.minSeq > seq) {
            freeEntry(int(i), now);
            return;
        }
        if (int(oc.numOps) > 1 && c.maxSeq > seq) {
            // Squashed MOP suffix: surviving prefix stays; source
            // operands contributed by squashed ops are forced ready
            // (Section 5.3.2).
            int keep = 1;
            while (keep < int(oc.numOps) && c.ops[size_t(keep)].seq <= seq)
                ++keep;
            oc.numOps = uint8_t(keep);
            c.maxSeq = c.ops[size_t(keep - 1)].seq;
            for (uint8_t m = st.fromTail & srcMask(st.numSrcs); m;
                 m &= uint8_t(m - 1)) {
                unsigned s = unsigned(std::countr_zero(unsigned(m)));
                st.wait &= uint8_t(~(1u << s));
                c.srcReadyAt[s] = 0;
            }
            st.flags &= uint8_t(~kFPending);
            if (st.flags & kFIssued) {
                // The in-flight entry's value and broadcast timing
                // still reference the squashed last op; recompute both
                // from the surviving prefix. The dropped ops' queued
                // completions are skipped by the opIdx guard in
                // tick(), so if every surviving op has already
                // completed nothing is left to free the entry — reap
                // it here (or when its rescheduled broadcast fires).
                if (c.dstTag != kNoTag) {
                    tagValueReady_[size_t(c.dstTag)] =
                        c.opComplete[size_t(oc.numOps - 1)];
                }
                if (c.outBcast >= 0) {
                    cancelBcast(int(i), now);
                    // The calendar indexes by fire % kRing: a fire
                    // cycle in the past would alias into a future
                    // slot, so floor the reschedule at now + 1.
                    scheduleBcast(int(i),
                                  std::max(now + 1,
                                           c.issueCycle +
                                               Cycle(schedLatency(int(i)))),
                                  false);
                }
                reapIfComplete(int(i), now);
                if (!(st.flags & kFValid))
                    return;
            }
        }
        if ((st.flags & kFPending) && c.maxSeq <= seq) {
            // The expected tail will never arrive.
            st.flags &= uint8_t(~kFPending);
        }
        refreshReady(int(i));
    });
}

void
Scheduler::addStats(stats::StatGroup &g) const
{
    g.addFormula("sched.issuedOps",
                 [this] { return double(issuedOps_); }, "ops issued");
    g.addFormula("sched.issuedEntries",
                 [this] { return double(issuedEntries_); },
                 "entries issued");
    g.addFormula("sched.replays",
                 [this] { return double(replays_); },
                 "selective-replay invalidations");
    g.addFormula("sched.collisions",
                 [this] { return double(collisions_); },
                 "select-free collision victims");
    g.addFormula("sched.pileupKills",
                 [this] { return double(pileupKills_); },
                 "scoreboard pileup victims");
    g.addFormula("sched.avgOccupancy",
                 [this] { return occAvg_.mean(); },
                 "mean issue-queue entries occupied");
    fu_.addStats(g);
    integrity_.addStats(g, "sched.integrity");
    if (inj_)
        inj_->addStats(g);
}

} // namespace mop::sched
