#include "verify/difftest.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sched/policy.hh"
#include "sched/scheduler.hh"

namespace mop::verify
{

using sched::Cycle;
using sched::kNoCycle;
using sched::kNoTag;
using sched::SchedOp;
using sched::SchedParams;
using sched::LoopPolicy;
using sched::Tag;
using sched::WakeupStyle;

namespace
{

/** splitmix64: tiny, seed-stable across platforms (unlike <random>). */
struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed) {}
    uint64_t next()
    {
        s += 0x9E3779B97F4A7C15ull;
        uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    int range(int n) { return n > 0 ? int(next() % uint64_t(n)) : 0; }
    bool chance(int pct) { return range(100) < pct; }
};

const char *
className(isa::OpClass c)
{
    switch (c) {
    case isa::OpClass::IntAlu: return "IntAlu";
    case isa::OpClass::IntMult: return "IntMult";
    case isa::OpClass::IntDiv: return "IntDiv";
    case isa::OpClass::Load: return "Load";
    case isa::OpClass::StoreAddr: return "StoreAddr";
    case isa::OpClass::StoreData: return "StoreData";
    case isa::OpClass::Branch: return "Branch";
    case isa::OpClass::Jump: return "Jump";
    case isa::OpClass::JumpInd: return "JumpInd";
    case isa::OpClass::FpAlu: return "FpAlu";
    case isa::OpClass::FpMult: return "FpMult";
    case isa::OpClass::FpDiv: return "FpDiv";
    case isa::OpClass::Nop: return "Nop";
    }
    return "IntAlu";
}

const char *
policyName(LoopPolicy p)
{
    switch (p) {
    case LoopPolicy::Atomic: return "Atomic";
    case LoopPolicy::TwoCycle: return "TwoCycle";
    case LoopPolicy::SelectFreeSquashDep: return "SelectFreeSquashDep";
    case LoopPolicy::SelectFreeScoreboard: return "SelectFreeScoreboard";
    }
    return "Atomic";
}

const char *
policyIdEnumName(sched::PolicyId id)
{
    switch (id) {
    case sched::PolicyId::Paper: return "Paper";
    case sched::PolicyId::LoadDelay: return "LoadDelay";
    case sched::PolicyId::StaticFuse: return "StaticFuse";
    }
    return "Paper";
}

/** Driver-side view of one script item while running lockstep. */
struct ItemState
{
    bool inserted = false;
    bool dead = false;        ///< squashed before completing
    bool completed = false;
    bool pendingHead = false; ///< window currently open
    bool referencable = false;
    uint64_t seq = 0;
    Tag tag = kNoTag;
    int ph = -1;  ///< production entry index
    int rh = -1;  ///< oracle handle
};

} // namespace

int
scriptOpCount(const ScheduleScript &script)
{
    int n = 0;
    for (const ScriptItem &it : script.items)
        n += int(it.kind == ScriptItem::Kind::Op);
    return n;
}

ScheduleScript
makeRandomScript(uint64_t seed, const ScriptConfig &cfg)
{
    Rng rng(seed);
    ScheduleScript s;
    SchedParams &p = s.params;
    if (cfg.sweepParams) {
        static const LoopPolicy kPols[4] = {
            LoopPolicy::Atomic, LoopPolicy::TwoCycle,
            LoopPolicy::SelectFreeSquashDep,
            LoopPolicy::SelectFreeScoreboard};
        p.policy = kPols[rng.range(4)];
        p.style = rng.chance(50) ? WakeupStyle::Cam2 : WakeupStyle::WiredOr;
        p.mopEnabled = p.policy == LoopPolicy::TwoCycle;
        p.maxMopSize = 2 + rng.range(3);
        p.numEntries = 8 + 8 * rng.range(3);
        p.issueWidth = 1 + rng.range(3);
        p.dispatchDepth = 2 + rng.range(3);
        p.replayPenalty = 1 + rng.range(3);
        // Tight FU pools force FU-starved MOPs and select collisions.
        p.fuCounts = {1 + rng.range(2), 1, 1, 1, 1};
    } else {
        // Fixed, deliberately adversarial shape: big MOPs, starved FUs,
        // a small queue. Used by the mutation tests, which need dense
        // coverage of the MOP issue/squash corners.
        p.policy = LoopPolicy::TwoCycle;
        p.mopEnabled = true;
        p.maxMopSize = 4;
        p.numEntries = 16;
        p.issueWidth = 2;
        p.dispatchDepth = 4;
        p.fuCounts = {1, 1, 1, 1, 1};
    }
    p.policyId = cfg.policy;
    if (cfg.policy == sched::PolicyId::LoadDelay &&
        (p.policy == LoopPolicy::SelectFreeSquashDep ||
         p.policy == LoopPolicy::SelectFreeScoreboard)) {
        // The Scheduler rejects load-delay + select-free (the delay is
        // unknown at speculative-broadcast time); keep the rotation's
        // entropy but fold it onto the two legal organizations.
        p.policy = rng.chance(50) ? LoopPolicy::Atomic
                                  : LoopPolicy::TwoCycle;
        p.mopEnabled = p.policy == LoopPolicy::TwoCycle;
    }
    if (cfg.policy == sched::PolicyId::StaticFuse) {
        // Decode-time fusion produces pairs only; both models clamp,
        // so generate scripts that respect the cap up front.
        p.maxMopSize = std::min(p.maxMopSize, 2);
    }
    // The driver detects stalls itself, long before the watchdog.
    p.watchdogCycles = 1u << 20;

    const bool mops = p.mopEnabled;
    int emitted = 0;
    int openHead = -1;
    int tailsLeft = 0;
    std::vector<int> producers;  // referencable item indices (ascending)
    std::vector<int> allOps;     // every Kind::Op item (squash anchors)

    // Tail sources must predate the head item: a tail depending on a
    // consumer of its own head is the Figure 8(a) circular wait, which
    // both models would (correctly, identically) deadlock on.
    auto pickSrcBefore = [&](int bound) -> int {
        int hi = int(producers.size());
        if (bound >= 0) {
            hi = int(std::lower_bound(producers.begin(), producers.end(),
                                      bound) -
                     producers.begin());
        }
        if (hi == 0 || rng.chance(25))
            return -1;
        int span = std::min(hi, 12);
        return producers[size_t(hi - 1 - rng.range(span))];
    };
    auto pickSrc = [&]() { return pickSrcBefore(-1); };
    auto pickClass = [&]() {
        int r = rng.range(100);
        if (r < 60) return isa::OpClass::IntAlu;
        if (r < 75) return isa::OpClass::Load;
        if (r < 83) return isa::OpClass::IntMult;
        if (r < 87) return isa::OpClass::IntDiv;
        if (r < 92) return isa::OpClass::Branch;
        if (r < 97) return isa::OpClass::FpAlu;
        return isa::OpClass::FpDiv;
    };
    auto emitBubble = [&](int n) {
        ScriptItem it;
        it.kind = ScriptItem::Kind::Bubble;
        it.cycles = n;
        s.items.push_back(it);
    };
    auto emitSquash = [&]() {
        if (allOps.empty())
            return;
        ScriptItem it;
        it.kind = ScriptItem::Kind::Squash;
        // A recent anchor: squashes land mid-MOP and mid-flight.
        int span = std::min(int(allOps.size()), 15);
        it.ref = allOps[size_t(int(allOps.size()) - 1 - rng.range(span))];
        s.items.push_back(it);
    };

    // One mispredict episode, mirroring the --wrong-path core: a
    // branch anchor, a burst of wrong-path ops (missing loads so the
    // squash can land inside replay windows; sometimes a pending MOP
    // head whose tail is never fetched), an optional bubble to let
    // the burst issue, then a squash at the anchor. Wrong-path ops
    // never enter `producers`: a recovered front end cannot name
    // them, and the driver's resolveSrc would zero them anyway.
    auto emitWrongPathEpisode = [&]() {
        ScriptItem br;
        br.op = isa::OpClass::Branch;
        br.src0 = pickSrc();
        int anchor = int(s.items.size());
        allOps.push_back(anchor);
        s.items.push_back(br);
        ++emitted;

        std::vector<int> wpProducers;
        auto pickWpSrc = [&]() -> int {
            if (!wpProducers.empty() && rng.chance(50))
                return wpProducers[size_t(rng.range(
                    int(wpProducers.size())))];
            return pickSrc();
        };
        int burst = 2 + rng.range(5);
        for (int k = 0; k < burst; ++k) {
            ScriptItem it;
            it.wrongPath = true;
            int cls = rng.range(100);
            it.op = cls < 55   ? isa::OpClass::IntAlu
                    : cls < 85 ? isa::OpClass::Load
                    : cls < 93 ? isa::OpClass::IntMult
                               : isa::OpClass::IntDiv;
            it.src0 = pickWpSrc();
            it.src1 = rng.chance(30) ? pickWpSrc() : -1;
            if (it.op == isa::OpClass::Load) {
                // Mostly misses: the squash should land inside the
                // replay window the miss discovery opens.
                it.memLat = rng.chance(70)
                                ? p.dl1HitLatency + 1 + rng.range(18)
                                : p.dl1HitLatency;
            }
            if (mops && k + 1 == burst && rng.chance(40)) {
                // Mid-MOP squash coverage: the head is wrong-path and
                // its tail is never fetched -- the squash closes the
                // pending window in both models.
                it.expectTail = true;
            }
            wpProducers.push_back(int(s.items.size()));
            allOps.push_back(int(s.items.size()));
            s.items.push_back(it);
            ++emitted;
        }
        if (rng.chance(60))
            emitBubble(1 + rng.range(6));
        ScriptItem sq;
        sq.kind = ScriptItem::Kind::Squash;
        sq.ref = anchor;
        s.items.push_back(sq);
        // Post-squash idle ticks: squash-created events (rescheduled
        // broadcasts, forced-ready sources) land here, inside whatever
        // idle window the production side declared before the squash.
        if (rng.chance(70))
            emitBubble(1 + rng.range(6));
    };

    // Mid-MOP mispredict, the other half of the coverage: the MOP
    // head is right-path and already dispatched, the mispredicted
    // branch lands while its window is open, and the tails fetched
    // after the branch are wrong-path. The squash splits the MOP --
    // the surviving right-path prefix stays, its tail-contributed
    // sources are forced ready, and a shrunken in-flight entry
    // completes earlier than the pre-squash event horizon promised.
    // These are exactly the squash-created events a stale cycle-skip
    // window would hide, so this shape is what arms the
    // skipFoldIgnoresSquash mutation test.
    auto emitMidMopEpisode = [&]() {
        ScriptItem br;
        br.op = isa::OpClass::Branch;
        br.src0 = pickSrc();
        int anchor = int(s.items.size());
        allOps.push_back(anchor);
        s.items.push_back(br);
        ++emitted;

        int tails = std::min(tailsLeft, 1 + rng.range(2));
        for (int k = 0; k < tails; ++k) {
            ScriptItem it;
            it.wrongPath = true;
            int cls = rng.range(100);
            it.op = cls < 70   ? isa::OpClass::IntAlu
                    : cls < 90 ? isa::OpClass::IntMult
                               : isa::OpClass::IntDiv;
            it.head = openHead;
            it.src0 = rng.chance(45) ? openHead
                                     : pickSrcBefore(openHead);
            it.src1 = rng.chance(30) ? pickSrcBefore(openHead) : -1;
            --tailsLeft;
            it.moreComing = tailsLeft > 0;
            allOps.push_back(int(s.items.size()));
            s.items.push_back(it);
            ++emitted;
        }
        if (rng.chance(60))
            emitBubble(1 + rng.range(4));
        ScriptItem sq;
        sq.kind = ScriptItem::Kind::Squash;
        sq.ref = anchor;
        s.items.push_back(sq);
        // The squash closed the head's window in both models.
        openHead = -1;
        tailsLeft = 0;
        emitBubble(1 + rng.range(6));
    };

    while (emitted < cfg.numOps) {
        int roll = rng.range(100);
        if (openHead >= 0) {
            if (roll < 55) {
                ScriptItem it;
                // Mostly single-cycle tails like real formation, but a
                // sprinkle of multi-cycle and unpipelined ops so the
                // per-slot FU booking of wide MOPs gets exercised.
                int cls = rng.range(100);
                it.op = cls < 70   ? isa::OpClass::IntAlu
                        : cls < 85 ? isa::OpClass::IntMult
                        : cls < 93 ? isa::OpClass::IntDiv
                                   : isa::OpClass::FpAlu;
                it.head = openHead;
                it.src0 = rng.chance(45) ? openHead
                                         : pickSrcBefore(openHead);
                it.src1 = rng.chance(30) ? pickSrcBefore(openHead) : -1;
                --tailsLeft;
                it.moreComing = tailsLeft > 0;
                allOps.push_back(int(s.items.size()));
                s.items.push_back(it);
                ++emitted;
                if (!it.moreComing)
                    openHead = -1;
            } else if (cfg.wrongPath && cfg.faults && roll < 65 &&
                       emitted + 2 <= cfg.numOps) {
                emitMidMopEpisode();
            } else if (roll < 75) {
                // An op dispatched inside the pending window.
                ScriptItem it;
                it.op = pickClass();
                it.src0 = pickSrc();
                it.src1 = rng.chance(35) ? pickSrc() : -1;
                if (it.op == isa::OpClass::Load) {
                    it.memLat = cfg.faults && rng.chance(40)
                                    ? p.dl1HitLatency + 1 + rng.range(18)
                                    : p.dl1HitLatency;
                }
                if (it.op != isa::OpClass::Branch)
                    producers.push_back(int(s.items.size()));
                allOps.push_back(int(s.items.size()));
                s.items.push_back(it);
                ++emitted;
            } else if (roll < 85) {
                emitBubble(1 + rng.range(3));
            } else if (cfg.faults && roll < 93) {
                emitSquash();
            } else if (cfg.faults && roll < 97) {
                // Abandon the head: the expected tail never arrives.
                ScriptItem it;
                it.kind = ScriptItem::Kind::ClearPending;
                it.ref = openHead;
                s.items.push_back(it);
                openHead = -1;
                tailsLeft = 0;
            } else {
                emitBubble(1);
            }
        } else {
            if (mops && roll < 30 && emitted + 2 <= cfg.numOps) {
                ScriptItem it;
                // Mostly single-cycle heads like real formation, but
                // some long-latency ones: a multi-cycle op in the
                // surviving prefix of a squash-split MOP is what keeps
                // the entry in flight after shorter dropped tails have
                // already completed (the premature-reap corner).
                int hc = rng.range(100);
                it.op = hc < 80   ? isa::OpClass::IntAlu
                        : hc < 90 ? isa::OpClass::IntMult
                                  : isa::OpClass::IntDiv;
                it.expectTail = true;
                it.src0 = pickSrc();
                it.src1 = rng.chance(30) ? pickSrc() : -1;
                openHead = int(s.items.size());
                tailsLeft = 1 + rng.range(p.maxMopSize - 1);
                producers.push_back(openHead);
                allOps.push_back(openHead);
                s.items.push_back(it);
                ++emitted;
            } else if (roll < 70 || !cfg.faults) {
                ScriptItem it;
                it.op = pickClass();
                it.src0 = pickSrc();
                it.src1 = rng.chance(35) ? pickSrc() : -1;
                if (it.op == isa::OpClass::Load) {
                    it.memLat = cfg.faults && rng.chance(40)
                                    ? p.dl1HitLatency + 1 + rng.range(18)
                                    : p.dl1HitLatency;
                }
                if (it.op != isa::OpClass::Branch)
                    producers.push_back(int(s.items.size()));
                allOps.push_back(int(s.items.size()));
                s.items.push_back(it);
                ++emitted;
            } else if (cfg.wrongPath && cfg.faults && roll < 80 &&
                       emitted + 3 <= cfg.numOps) {
                emitWrongPathEpisode();
            } else if (roll < 85) {
                emitBubble(1 + rng.range(3));
            } else {
                emitSquash();
            }
        }
    }
    return s;
}

namespace
{

bool
runLockstepImpl(const ScheduleScript &script, const RefQuirks &quirks,
                DivergenceReport &rep, bool skip_idle)
{
    const SchedParams &p = script.params;
    std::vector<ItemState> st(script.items.size());

    // Pre-pass: program order fixes seq; every op gets a unique tag.
    // Tags are spaced one consumer-index stride apart, so every live
    // tag shares a single index bucket: the production wakeup and
    // recall walks then see every entry with a source as a candidate
    // and the exact tag compare alone decides, as in a full-queue scan.
    std::map<uint64_t, int> loadLat;
    std::map<uint64_t, size_t> seqToItem;
    {
        constexpr Tag kTagStride = Tag(sched::Scheduler::kConsumerBuckets);
        uint64_t seq = 0;
        Tag tag = 0;
        for (size_t i = 0; i < script.items.size(); ++i) {
            const ScriptItem &it = script.items[i];
            if (it.kind != ScriptItem::Kind::Op)
                continue;
            st[i].seq = ++seq;
            seqToItem[st[i].seq] = i;
            if (it.op != isa::OpClass::Branch) {
                st[i].tag = tag;
                tag += kTagStride;
            }
            if (it.op == isa::OpClass::Load)
                loadLat[st[i].seq] = it.memLat > 0 ? it.memLat
                                                   : p.dl1HitLatency;
        }
    }

    sched::Scheduler prod(p);
    RefScheduler ref(p, quirks);
    auto lat = [&loadLat, &p](uint64_t seq) {
        auto it = loadLat.find(seq);
        return it != loadLat.end() ? it->second : p.dl1HitLatency;
    };
    prod.setLoadLatencyFn(lat);
    ref.setLoadLatencyFn(lat);

    Cycle now = 0;
    std::vector<sched::ExecEvent> evP, evO;
    std::vector<sched::MopIssue> mopsP;
    std::vector<RefMopIssue> mopsO;

    auto diverge = [&](const std::string &what, const std::string &detail) {
        rep.diverged = true;
        rep.cycle = now;
        rep.what = what;
        rep.detail = detail;
        return false;
    };

    // Idle-skip mode: the production scheduler follows the core's
    // event-driven recipe — consult nextEventCycle() after each real
    // tick and stop ticking through the provably event-free gap —
    // while the oracle still ticks every cycle. Any observable the
    // oracle produces inside a "skipped" cycle is a divergence, so
    // this mode differentially verifies the next-event invariant the
    // pipeline's cycle skipping rests on. The window is invalidated
    // on every production mutation (insert/append/squash/clear),
    // mirroring how the core only skips between quiet cycles.
    Cycle prodSkipUntil = 0;

    auto tick = [&]() {
        evP.clear();
        evO.clear();
        mopsP.clear();
        mopsO.clear();
        bool prodTicks = !(skip_idle && now < prodSkipUntil);
        if (prodTicks)
            prod.tick(now, evP, &mopsP);
        else
            prod.noteIdleCycles(1);
        ref.tick(now, evO, &mopsO);

        auto bySeq = [](const sched::ExecEvent &a,
                        const sched::ExecEvent &b) { return a.seq < b.seq; };
        std::sort(evP.begin(), evP.end(), bySeq);
        std::sort(evO.begin(), evO.end(), bySeq);
        if (evP.size() != evO.size()) {
            std::ostringstream os;
            os << "production completed " << evP.size() << " ops, oracle "
               << evO.size() << " (seqs:";
            for (const auto &e : evP)
                os << " p" << e.seq;
            for (const auto &e : evO)
                os << " o" << e.seq;
            os << ")";
            return diverge("completed.count", os.str());
        }
        for (size_t i = 0; i < evP.size(); ++i) {
            const auto &a = evP[i];
            const auto &b = evO[i];
            if (a.seq != b.seq || a.ready != b.ready ||
                a.issued != b.issued || a.execStart != b.execStart ||
                a.complete != b.complete || a.isLoad != b.isLoad ||
                a.wasMiss != b.wasMiss || a.replayed != b.replayed) {
                std::ostringstream os;
                os << "seq " << a.seq << "/" << b.seq << " ready " << a.ready
                   << "/" << b.ready << " issued " << a.issued << "/"
                   << b.issued << " execStart " << a.execStart << "/"
                   << b.execStart << " complete " << a.complete << "/"
                   << b.complete << " miss " << a.wasMiss << "/" << b.wasMiss
                   << " replayed " << a.replayed << "/" << b.replayed
                   << " (production/oracle)";
                return diverge("completed.fields", os.str());
            }
        }
        std::sort(mopsP.begin(), mopsP.end(),
                  [](const sched::MopIssue &a, const sched::MopIssue &b) {
                      return a.headSeq < b.headSeq;
                  });
        std::sort(mopsO.begin(), mopsO.end(),
                  [](const RefMopIssue &a, const RefMopIssue &b) {
                      return a.headSeq < b.headSeq;
                  });
        if (mopsP.size() != mopsO.size())
            return diverge("mopIssue.count",
                           std::to_string(mopsP.size()) + " vs " +
                               std::to_string(mopsO.size()));
        for (size_t i = 0; i < mopsP.size(); ++i) {
            const auto &a = mopsP[i];
            const auto &b = mopsO[i];
            if (a.headSeq != b.headSeq || a.tailSeq != b.tailSeq ||
                a.numOps != b.numOps ||
                a.tailLastArriving != b.tailLastArriving) {
                std::ostringstream os;
                os << "head " << a.headSeq << "/" << b.headSeq << " tail "
                   << a.tailSeq << "/" << b.tailSeq << " numOps " << a.numOps
                   << "/" << b.numOps << " tailLast " << a.tailLastArriving
                   << "/" << b.tailLastArriving;
                return diverge("mopIssue.fields", os.str());
            }
        }
        if (prod.occupancy() != ref.occupancy())
            return diverge("occupancy",
                           std::to_string(prod.occupancy()) + " vs " +
                               std::to_string(ref.occupancy()));
        for (const auto &e : evP) {
            auto it = seqToItem.find(e.seq);
            if (it != seqToItem.end())
                st[it->second].completed = true;
        }
        if (prodTicks && skip_idle) {
            Cycle t = prod.nextEventCycle(now);
            if (t > now + 1)
                prodSkipUntil = t;  // kNoCycle = idle until mutated
        }
        ++now;
        return true;
    };

    auto resolveSrc = [&](int r) -> Tag {
        if (r < 0)
            return kNoTag;
        const ItemState &ps = st[size_t(r)];
        // Producers squashed before broadcasting can never wake a
        // consumer; the recovered front end would not name them either.
        if (!ps.inserted || ps.dead || !ps.referencable)
            return kNoTag;
        return ps.tag;
    };

    // Set when both models refused an insert for 5000 straight cycles.
    // The watchdog only ever trips mutually: a production-only stall
    // surfaces as a canInsert divergence on the first differing cycle.
    // Like the drain guard below, equal refusal every compared tick is
    // the models *agreeing* on a genuinely deadlocked script (the
    // generator can produce one under small rotated queues), so the
    // driver stops feeding and falls through to the drain phase.
    bool feedDeadlocked = false;

    auto insertSolo = [&](size_t i, bool expect_tail) {
        const ScriptItem &it = script.items[i];
        ItemState &is = st[i];
        int waited = 0;
        for (;;) {
            bool cp = prod.canInsert(1);
            bool co = ref.canInsert(1);
            if (cp != co)
                return diverge("canInsert", std::string(cp ? "1" : "0") +
                                                " vs " + (co ? "1" : "0"));
            if (cp)
                break;
            if (!tick())
                return false;
            if (++waited > 5000) {
                feedDeadlocked = true;
                return false;
            }
        }
        SchedOp op;
        op.seq = is.seq;
        op.op = it.op;
        op.dst = is.tag;
        op.src = {resolveSrc(it.src0), resolveSrc(it.src1)};
        op.wrongPath = it.wrongPath;
        is.ph = prod.insert(op, now, expect_tail);
        is.rh = ref.insert(op, now, expect_tail);
        prodSkipUntil = 0;
        is.inserted = true;
        is.pendingHead = expect_tail;
        is.referencable = is.tag != kNoTag;
        return true;
    };

    for (size_t i = 0; i < script.items.size(); ++i) {
        const ScriptItem &it = script.items[i];
        switch (it.kind) {
        case ScriptItem::Kind::Op: {
            ItemState &is = st[i];
            bool appended = false;
            if (it.head >= 0) {
                ItemState &hs = st[size_t(it.head)];
                if (hs.inserted && !hs.dead && hs.pendingHead) {
                    SchedOp op;
                    op.seq = is.seq;
                    op.op = it.op;
                    op.dst = is.tag;
                    op.src = {resolveSrc(it.src0), resolveSrc(it.src1)};
                    op.wrongPath = it.wrongPath;
                    bool bp = prod.appendTail(hs.ph, op, now, it.moreComing);
                    bool bo = ref.appendTail(hs.rh, op, now, it.moreComing);
                    prodSkipUntil = 0;
                    if (bp != bo)
                        return diverge("appendTail",
                                       std::string(bp ? "1" : "0") +
                                           " vs " + (bo ? "1" : "0"));
                    if (bp) {
                        appended = true;
                        is.inserted = true;
                        is.referencable = false;  // shares the head's tag
                        if (!it.moreComing)
                            hs.pendingHead = false;
                    } else {
                        // Over budget / size cap: the MOP former gives
                        // up and dispatches the tail solo.
                        prod.clearPending(hs.ph);
                        ref.clearPending(hs.rh);
                        prodSkipUntil = 0;
                        hs.pendingHead = false;
                    }
                }
            }
            if (!appended) {
                if (!insertSolo(i, it.expectTail)) {
                    if (feedDeadlocked)
                        break;  // stop feeding; drain below
                    return false;
                }
                if (it.head >= 0)
                    st[i].referencable = false;  // generated as a tail
            }
            break;
        }
        case ScriptItem::Kind::Squash: {
            if (it.ref < 0 || !st[size_t(it.ref)].inserted)
                break;
            uint64_t boundary = st[size_t(it.ref)].seq;
            prod.squashAfter(boundary, now);
            ref.squashAfter(boundary, now);
            // The skip window must not survive a squash (forced-ready
            // sources and rescheduled broadcasts can fire inside it);
            // the quirk leaves the stale window in place to prove the
            // skip-idle campaign catches exactly that omission.
            if (!quirks.skipFoldIgnoresSquash)
                prodSkipUntil = 0;
            for (ItemState &o : st) {
                if (o.inserted && !o.completed && o.seq > boundary) {
                    o.dead = true;
                    o.pendingHead = false;
                }
                if (o.pendingHead && o.seq <= boundary)
                    o.pendingHead = false;  // both models unpend it
            }
            break;
        }
        case ScriptItem::Kind::ClearPending: {
            if (it.ref < 0)
                break;
            ItemState &hs = st[size_t(it.ref)];
            if (hs.inserted && !hs.dead && hs.pendingHead) {
                prod.clearPending(hs.ph);
                ref.clearPending(hs.rh);
                prodSkipUntil = 0;
                hs.pendingHead = false;
            }
            break;
        }
        case ScriptItem::Kind::Bubble: {
            int n = std::min(std::max(it.cycles, 1), 64);
            for (int k = 0; k < n; ++k)
                if (!tick())
                    return false;
            break;
        }
        }
        if (feedDeadlocked)
            break;
    }

    // Drain: close leftover pending windows, then run both dry.
    for (ItemState &hs : st) {
        if (hs.inserted && !hs.dead && hs.pendingHead) {
            prod.clearPending(hs.ph);
            ref.clearPending(hs.rh);
            prodSkipUntil = 0;
            hs.pendingHead = false;
        }
    }
    int guard = 0;
    while (prod.occupancy() > 0 || ref.occupancy() > 0) {
        if (!tick())
            return false;
        if (++guard > 30000) {
            // Equal occupancy every compared tick: the models agree on
            // the stall (a genuinely deadlocked script), not a bug.
            return true;
        }
    }

    if (prod.issuedOps() != ref.issuedOps() ||
        prod.issuedEntries() != ref.issuedEntries() ||
        prod.insertedOps() != ref.insertedOps() ||
        prod.insertedEntries() != ref.insertedEntries() ||
        prod.replayInvalidations() != ref.replayInvalidations() ||
        prod.collisions() != ref.collisions() ||
        prod.pileupKills() != ref.pileupKills()) {
        std::ostringstream os;
        os << "issuedOps " << prod.issuedOps() << "/" << ref.issuedOps()
           << " issuedEntries " << prod.issuedEntries() << "/"
           << ref.issuedEntries() << " insertedOps " << prod.insertedOps()
           << "/" << ref.insertedOps() << " replays "
           << prod.replayInvalidations() << "/" << ref.replayInvalidations()
           << " collisions " << prod.collisions() << "/" << ref.collisions()
           << " pileups " << prod.pileupKills() << "/" << ref.pileupKills()
           << " (production/oracle)";
        return diverge("finalStats", os.str());
    }
    return true;
}

} // namespace

bool
runLockstep(const ScheduleScript &script, const RefQuirks &quirks,
            DivergenceReport *rep, bool skip_idle)
{
    DivergenceReport local;
    DivergenceReport &r = rep ? *rep : local;
    r = DivergenceReport{};
    try {
        return runLockstepImpl(script, quirks, r, skip_idle);
    } catch (const std::exception &ex) {
        // A watchdog / integrity / overflow throw is a divergence too:
        // the oracle never throws.
        r.diverged = true;
        r.what = "exception";
        r.detail = ex.what();
        return false;
    }
}

namespace
{

/** Compact @p base to its kept items, re-indexing references. Items
 *  whose Squash/ClearPending target was dropped are dropped too. */
ScheduleScript
materialize(const ScheduleScript &base, const std::vector<char> &keep)
{
    ScheduleScript out;
    out.params = base.params;
    std::vector<int> remap(base.items.size(), -1);
    for (size_t i = 0; i < base.items.size(); ++i) {
        if (!keep[i])
            continue;
        ScriptItem it = base.items[i];
        auto mapRef = [&](int r) {
            return r >= 0 ? remap[size_t(r)] : -1;
        };
        if (it.kind == ScriptItem::Kind::Op) {
            it.src0 = mapRef(it.src0);
            it.src1 = mapRef(it.src1);
            it.head = mapRef(it.head);
        } else if (it.kind != ScriptItem::Kind::Bubble) {
            it.ref = mapRef(it.ref);
            if (it.ref < 0)
                continue;
        }
        remap[i] = int(out.items.size());
        out.items.push_back(it);
    }
    return out;
}

} // namespace

ScheduleScript
shrinkScript(const ScheduleScript &script, const RefQuirks &quirks,
             bool skip_idle)
{
    auto diverges = [&](const std::vector<char> &keep) {
        DivergenceReport r;
        return !runLockstep(materialize(script, keep), quirks, &r,
                            skip_idle);
    };
    const size_t n = script.items.size();
    std::vector<char> all(n, 1);
    if (!diverges(all))
        return materialize(script, all);

    std::vector<size_t> live;
    for (size_t i = 0; i < n; ++i)
        live.push_back(i);
    auto keepOf = [&](size_t skip_begin, size_t skip_end) {
        std::vector<char> k(n, 0);
        for (size_t j = 0; j < live.size(); ++j)
            if (j < skip_begin || j >= skip_end)
                k[live[j]] = 1;
        return k;
    };

    for (;;) {
        size_t before = live.size();
        // ddmin (complement reduction): drop ever-smaller chunks.
        size_t granularity = 2;
        while (live.size() >= 2) {
            size_t chunk = std::max<size_t>(1, live.size() / granularity);
            bool reduced = false;
            for (size_t start = 0; start < live.size(); start += chunk) {
                size_t end = std::min(start + chunk, live.size());
                if (diverges(keepOf(start, end))) {
                    live.erase(live.begin() + long(start),
                               live.begin() + long(end));
                    granularity = std::max<size_t>(granularity - 1, 2);
                    reduced = true;
                    break;
                }
            }
            if (!reduced) {
                if (chunk == 1)
                    break;
                granularity = std::min(live.size(), granularity * 2);
            }
        }
        // 1-minimal polish.
        for (size_t j = 0; j < live.size();) {
            if (diverges(keepOf(j, j + 1)))
                live.erase(live.begin() + long(j));
            else
                ++j;
        }
        // Pair polish: a producer often cannot be dropped without the
        // consumer that keeps the divergence alive (and vice versa), a
        // local minimum single-item drops cannot escape.
        bool pair_reduced = false;
        for (size_t a = 0; a + 1 < live.size() && !pair_reduced; ++a) {
            for (size_t b = a + 1; b < live.size(); ++b) {
                std::vector<char> k = keepOf(a, a + 1);
                k[live[b]] = 0;
                if (diverges(k)) {
                    live.erase(live.begin() + long(b));
                    live.erase(live.begin() + long(a));
                    pair_reduced = true;
                    break;
                }
            }
        }
        if (live.size() == before)
            break;
    }

    std::vector<char> keep(n, 0);
    for (size_t i : live)
        keep[i] = 1;
    return materialize(script, keep);
}

std::string
formatRepro(const ScheduleScript &script, const DivergenceReport &rep)
{
    const SchedParams &p = script.params;
    std::ostringstream os;
    os << "// difftest repro, " << scriptOpCount(script) << " ops; "
       << "first divergence at cycle " << rep.cycle << " [" << rep.what
       << "]\n";
    if (!rep.detail.empty())
        os << "//   " << rep.detail << "\n";
    os << "verify::ScheduleScript s;\n";
    os << "s.params.policy = sched::LoopPolicy::" << policyName(p.policy)
       << ";\n";
    if (p.policyId != sched::PolicyId::Paper) {
        os << "s.params.policyId = sched::PolicyId::"
           << policyIdEnumName(p.policyId) << ";\n";
    }
    os << "s.params.style = sched::WakeupStyle::"
       << (p.style == WakeupStyle::Cam2 ? "Cam2" : "WiredOr") << ";\n";
    os << "s.params.mopEnabled = " << (p.mopEnabled ? "true" : "false")
       << ";\n";
    os << "s.params.maxMopSize = " << p.maxMopSize << ";\n";
    os << "s.params.schedDepth = " << p.schedDepth << ";\n";
    os << "s.params.numEntries = " << p.numEntries << ";\n";
    os << "s.params.issueWidth = " << p.issueWidth << ";\n";
    os << "s.params.dispatchDepth = " << p.dispatchDepth << ";\n";
    os << "s.params.dl1HitLatency = " << p.dl1HitLatency << ";\n";
    os << "s.params.replayPenalty = " << p.replayPenalty << ";\n";
    os << "s.params.watchdogCycles = " << p.watchdogCycles << ";\n";
    os << "s.params.fuCounts = {";
    for (size_t k = 0; k < p.fuCounts.size(); ++k)
        os << (k ? ", " : "") << p.fuCounts[k];
    os << "};\n";
    for (const ScriptItem &it : script.items) {
        os << "{ verify::ScriptItem it; ";
        switch (it.kind) {
        case ScriptItem::Kind::Op:
            os << "it.op = isa::OpClass::" << className(it.op) << "; ";
            if (it.src0 >= 0)
                os << "it.src0 = " << it.src0 << "; ";
            if (it.src1 >= 0)
                os << "it.src1 = " << it.src1 << "; ";
            if (it.head >= 0)
                os << "it.head = " << it.head << "; ";
            if (it.expectTail)
                os << "it.expectTail = true; ";
            if (it.moreComing)
                os << "it.moreComing = true; ";
            if (it.memLat > 0)
                os << "it.memLat = " << it.memLat << "; ";
            if (it.wrongPath)
                os << "it.wrongPath = true; ";
            break;
        case ScriptItem::Kind::Squash:
            os << "it.kind = verify::ScriptItem::Kind::Squash; it.ref = "
               << it.ref << "; ";
            break;
        case ScriptItem::Kind::ClearPending:
            os << "it.kind = verify::ScriptItem::Kind::ClearPending; "
               << "it.ref = " << it.ref << "; ";
            break;
        case ScriptItem::Kind::Bubble:
            os << "it.kind = verify::ScriptItem::Kind::Bubble; it.cycles = "
               << it.cycles << "; ";
            break;
        }
        os << "s.items.push_back(it); }\n";
    }
    os << "verify::DivergenceReport rep;\n";
    os << "EXPECT_TRUE(verify::runLockstep(s, verify::RefQuirks{}, &rep))\n"
       << "    << rep.what << \": \" << rep.detail;\n";
    return os.str();
}

int
runDifftestCampaign(int n, uint64_t baseSeed, const std::string &reproPath,
                    bool skip_idle, sched::PolicyId policy, bool wrong_path)
{
    int bad = 0;
    ScriptConfig cfg;
    cfg.policy = policy;
    cfg.wrongPath = wrong_path;
    for (int i = 0; i < n; ++i) {
        uint64_t seed = baseSeed + uint64_t(i);
        ScheduleScript script = makeRandomScript(seed, cfg);
        DivergenceReport rep;
        if (runLockstep(script, RefQuirks{}, &rep, skip_idle))
            continue;
        ++bad;
        std::printf("difftest: DIVERGENCE seed=%llu cycle=%llu %s: %s\n",
                    (unsigned long long)seed, (unsigned long long)rep.cycle,
                    rep.what.c_str(), rep.detail.c_str());
        ScheduleScript min = shrinkScript(script, RefQuirks{}, skip_idle);
        DivergenceReport mrep;
        runLockstep(min, RefQuirks{}, &mrep, skip_idle);
        std::string repro = formatRepro(min, mrep);
        std::fputs(repro.c_str(), stdout);
        if (!reproPath.empty() && bad == 1) {
            std::ofstream f(reproPath);
            f << "// seed " << seed << "\n" << repro;
            std::printf("difftest: shrunken repro written to %s\n",
                        reproPath.c_str());
        }
    }
    if (bad == 0) {
        std::printf("difftest%s%s [%s]: %d script(s) from seed %llu, "
                    "0 divergences\n",
                    skip_idle ? " (skip-idle)" : "",
                    wrong_path ? " (wrong-path)" : "",
                    sched::policyIdName(policy), n,
                    (unsigned long long)baseSeed);
    }
    return bad;
}

} // namespace mop::verify
