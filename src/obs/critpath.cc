#include "obs/critpath.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <unordered_map>

namespace mop::obs
{

namespace
{

using trace::CycleEvent;

/** Lifecycle timestamps clamped monotonic; out-of-order stamps (e.g.
 *  a replayed entry whose last-ready postdates its first issue) fold
 *  into the later segment rather than producing negative spans. */
struct Life
{
    uint64_t fetch, queueReady, insert, ready, issue, execStart, complete,
        commit;
    bool miss, replayed;

    explicit Life(const CycleEvent &ev)
    {
        fetch = ev.fetch;
        queueReady = std::max(ev.queueReady, fetch);
        insert = std::max(ev.insert, queueReady);
        ready = std::max(ev.ready, insert);
        issue = std::max(ev.issue, ready);
        execStart = std::max(ev.execStart, issue);
        complete = std::max(ev.complete, execStart);
        commit = std::max(ev.commit, complete);
        miss = (ev.flags & CycleEvent::kFlagDl1Miss) != 0;
        replayed = (ev.flags & CycleEvent::kFlagReplayed) != 0;
    }
};

/** Cycles of [a,b) visible through the window [lo,hi). */
uint64_t
overlap(uint64_t a, uint64_t b, uint64_t lo, uint64_t hi)
{
    uint64_t s = std::max(a, lo), e = std::min(b, hi);
    return e > s ? e - s : 0;
}

} // namespace

const char *
critCauseName(CritCause c)
{
    switch (c) {
      case CritCause::Frontend: return "frontend";
      case CritCause::Capacity: return "capacity";
      case CritCause::WakeupWait: return "wakeup-wait";
      case CritCause::ChainLatency: return "chain-latency";
      case CritCause::DcacheMiss: return "dcache-miss";
      case CritCause::SelectLoss: return "select-loss";
      case CritCause::Replay: return "replay";
      case CritCause::Dispatch: return "dispatch";
      case CritCause::CommitWait: return "commit-wait";
      case CritCause::WrongPath: return "wrong-path";
      case CritCause::kCount: break;
    }
    return "?";
}

CritCause
CritPathReport::dominant() const
{
    size_t best = 0;
    for (size_t i = 1; i < kNumCritCauses; ++i)
        if (causeCycles[i] > causeCycles[best])
            best = i;
    return CritCause(best);
}

CritCause
CritPathReport::dominantStall() const
{
    static constexpr CritCause kStallish[] = {
        CritCause::Frontend,   CritCause::Capacity, CritCause::WakeupWait,
        CritCause::DcacheMiss, CritCause::SelectLoss, CritCause::Replay,
        CritCause::WrongPath,
    };
    CritCause best = CritCause::Frontend;
    for (CritCause c : kStallish)
        if (causeCycles[size_t(c)] > causeCycles[size_t(best)])
            best = c;
    return best;
}

CritPathReport
analyzeCritPath(const std::vector<CycleEvent> &events,
                std::vector<UopBlame> *per_uop)
{
    CritPathReport r;
    if (per_uop)
        per_uop->clear();

    // Gather µop records and index them by dynamic id so dependence
    // edges resolve in O(1). Wrong-path rows never committed, so they
    // stay off the commit spine and out of the dependence index (a
    // squashed dyn id may be recycled by a later committed µop);
    // instead they reconstruct the squash episodes, each spanning the
    // episode's earliest wrong-path fetch up to the squash cycle the
    // rows record in their commit field.
    std::vector<const CycleEvent *> uops;
    uops.reserve(events.size());
    std::unordered_map<uint64_t, size_t> bySeq;
    std::vector<std::pair<uint64_t, uint64_t>> episodes;  // [fetch, squash)
    for (const auto &ev : events) {
        if (ev.kind != CycleEvent::Kind::Uop)
            continue;
        if (ev.flags & CycleEvent::kFlagWrongPath) {
            if (!episodes.empty() && episodes.back().second == ev.commit)
                episodes.back().first =
                    std::min(episodes.back().first, ev.fetch);
            else
                episodes.emplace_back(ev.fetch, ev.commit);
            continue;
        }
        bySeq.emplace(ev.seq, uops.size());
        uops.push_back(&ev);
    }
    // Merge any overlap so episode cycles are never double-charged.
    std::sort(episodes.begin(), episodes.end());
    size_t nEp = 0;
    for (const auto &ep : episodes) {
        if (nEp > 0 && ep.first < episodes[nEp - 1].second)
            episodes[nEp - 1].second =
                std::max(episodes[nEp - 1].second, ep.second);
        else
            episodes[nEp++] = ep;
    }
    episodes.resize(nEp);
    if (uops.empty())
        return r;

    r.uops = uops.size();
    r.firstFetch = uops.front()->fetch;
    for (const auto *u : uops) {
        r.firstFetch = std::min(r.firstFetch, u->fetch);
        r.lastCommit = std::max(r.lastCommit, u->commit);
        if (u->flags & CycleEvent::kFlagFirstUop)
            ++r.insts;
    }
    r.cycles = r.lastCommit - r.firstFetch;

    // Also mirrored into the current per-µop row when requested; the
    // reserve above the spine loop guarantees `cur` stays valid.
    UopBlame *cur = nullptr;
    auto charge = [&r, &cur](CritCause c, uint64_t cyc) {
        r.causeCycles[size_t(c)] += cyc;
        if (cur)
            cur->causeCycles[size_t(c)] += cyc;
    };

    // Service time of a DL1 hit, inferred from the trace (shortest
    // execution of a non-missing load) so the split below needs no
    // machine configuration. A missing load's chain would have cost
    // this much anyway; only the excess is dcache-miss time.
    uint64_t hitExec = 0;
    for (const auto *u : uops) {
        if (!(u->flags & CycleEvent::kFlagLoad) ||
            (u->flags & CycleEvent::kFlagDl1Miss))
            continue;
        Life l(*u);
        uint64_t dur = l.complete - l.execStart;
        if (dur && (hitExec == 0 || dur < hitExec))
            hitExec = dur;
    }

    // Charge an execution segment [a,b) of a µop, splitting a missing
    // load's service into the would-have-hit prefix (chain latency)
    // and the miss excess (dcache).
    auto chargeExec = [&](uint64_t a, uint64_t b, bool miss, uint64_t lo,
                          uint64_t hi) {
        if (!miss) {
            charge(CritCause::ChainLatency, overlap(a, b, lo, hi));
            return;
        }
        uint64_t split = std::min(a + hitExec, b);
        charge(CritCause::ChainLatency, overlap(a, split, lo, hi));
        charge(CritCause::DcacheMiss, overlap(split, b, lo, hi));
    };

    // Frontend-supply cycles falling inside a wrong-path episode are
    // the mispredict's fault, not a generic fetch-supply problem: the
    // machine was busy fetching (and later squashing) the wrong path.
    auto chargeFrontend = [&](uint64_t a, uint64_t b, uint64_t lo,
                              uint64_t hi) {
        uint64_t s = std::max(a, lo), e = std::min(b, hi);
        if (e <= s)
            return;
        uint64_t wp = 0;
        for (const auto &ep : episodes)
            wp += overlap(ep.first, ep.second, s, e);
        charge(CritCause::WrongPath, wp);
        charge(CritCause::Frontend, (e - s) - wp);
    };

    // Resolve the last-arriving producer of a µop (by completion).
    auto lastProducer = [&](const CycleEvent &u) -> const CycleEvent * {
        const CycleEvent *best = nullptr;
        for (uint64_t d : u.dep) {
            if (d == CycleEvent::kNone)
                continue;
            auto it = bySeq.find(d);
            if (it == bySeq.end())
                continue;
            const CycleEvent *p = uops[it->second];
            if (!best || p->complete > best->complete)
                best = p;
        }
        return best;
    };

    // Interval blame over the in-order commit spine: the window
    // between consecutive commits is charged to whichever lifecycle
    // segment of the newly committing µop (the ROB head) it overlaps.
    // Dependence-bound waits are refined through the producer edge so
    // a consumer stuck behind a missing load bills the miss, not a
    // generic wakeup wait. Windows partition [firstFetch, lastCommit),
    // so sum(causeCycles) == cycles exactly.
    auto chargeWindow = [&](const CycleEvent &ev, uint64_t lo, uint64_t hi) {
        if (hi <= lo)
            return;
        Life u(ev);
        chargeFrontend(lo, u.queueReady, lo, hi);
        charge(CritCause::Capacity, overlap(u.queueReady, u.insert, lo, hi));
        if (const CycleEvent *pe = lastProducer(ev)) {
            Life p(*pe);
            uint64_t ps = std::clamp(p.execStart, u.insert, u.ready);
            uint64_t pc = std::clamp(p.complete, u.insert, u.ready);
            charge(CritCause::WakeupWait, overlap(u.insert, ps, lo, hi));
            chargeExec(ps, pc, p.miss, lo, hi);
            charge(CritCause::WakeupWait, overlap(pc, u.ready, lo, hi));
        } else {
            charge(CritCause::WakeupWait, overlap(u.insert, u.ready, lo, hi));
        }
        charge(u.replayed ? CritCause::Replay : CritCause::SelectLoss,
               overlap(u.ready, u.issue, lo, hi));
        charge(CritCause::Dispatch, overlap(u.issue, u.execStart, lo, hi));
        chargeExec(u.execStart, u.complete, u.miss, lo, hi);
        charge(CritCause::CommitWait, overlap(u.complete, hi, lo, hi));
    };

    if (per_uop)
        per_uop->reserve(uops.size());
    uint64_t prevCommit = r.firstFetch;
    for (const auto *u : uops) {
        if (per_uop) {
            per_uop->push_back(UopBlame{u->seq, {}});
            cur = &per_uop->back();
        }
        chargeWindow(*u, prevCommit, u->commit);
        prevCommit = std::max(prevCommit, u->commit);
    }
    cur = nullptr;

    // What-if for the pipelined 2-cycle scheduling loop: stretch every
    // observed producer->consumer issue gap to >= 2 cycles and
    // propagate the resulting delay forward through the dependence
    // graph. Commit order is dataflow order, so a single pass suffices.
    std::vector<uint64_t> delay(uops.size(), 0);
    uint64_t worstFinish = 0;
    // Delay also propagates through control: a delayed mispredicted
    // branch resolves later, so every µop fetched at/after its
    // redirect inherits the branch's delay as a floor. Redirects are
    // folded into the running floor once commit order passes their
    // resolution point (few per trace, so a linear scan is fine).
    std::vector<std::pair<uint64_t, uint64_t>> redirects;  // complete,delay
    uint64_t fetchFloor = 0;
    for (size_t i = 0; i < uops.size(); ++i) {
        const CycleEvent &u = *uops[i];
        for (auto it = redirects.begin(); it != redirects.end();) {
            if (u.fetch >= it->first) {
                fetchFloor = std::max(fetchFloor, it->second);
                it = redirects.erase(it);
            } else {
                ++it;
            }
        }
        delay[i] = fetchFloor;
        for (uint64_t d : u.dep) {
            if (d == CycleEvent::kNone)
                continue;
            auto it = bySeq.find(d);
            if (it == bySeq.end())
                continue;
            size_t pi = it->second;
            const CycleEvent &p = *uops[pi];
            if (p.issue > u.issue)
                continue;  // replay artefact; not a schedule edge
            ++r.depEdges;
            // The 2-cycle loop floors the producer's grant-to-wakeup
            // latency at 2 cycles; any select wait the consumer
            // already paid sits on top of the (possibly stretched)
            // wakeup, it does not absorb it.
            uint64_t wakeupLat = u.ready > p.issue && u.ready <= u.issue
                                     ? u.ready - p.issue
                                     : u.issue - p.issue;
            if (wakeupLat < 2)
                ++r.tightEdges;
            uint64_t need =
                delay[pi] + (wakeupLat < 2 ? 2 - wakeupLat : 0);
            delay[i] = std::max(delay[i], need);
        }
        if ((u.flags & CycleEvent::kFlagMispredict) && delay[i] > 0)
            redirects.emplace_back(u.complete, delay[i]);
        worstFinish = std::max(worstFinish, u.commit + delay[i]);
    }
    r.whatIfTwoCycleCycles = worstFinish - r.firstFetch;

    return r;
}

TimelineReport
analyzeTimeline(const std::vector<CycleEvent> &events,
                uint64_t interval_cycles)
{
    TimelineReport t;

    uint64_t lo = ~0ULL, hi = 0;
    uint64_t nuops = 0;
    for (const auto &ev : events) {
        if (ev.kind != CycleEvent::Kind::Uop ||
            (ev.flags & CycleEvent::kFlagWrongPath))
            continue;  // wrong-path rows never committed
        lo = std::min(lo, ev.commit);
        hi = std::max(hi, ev.commit);
        ++nuops;
    }
    if (nuops == 0)
        return t;

    if (interval_cycles == 0) {
        // ~64 intervals, rounded to a friendly power of two >= 16:
        // double while interval * 64 < hi - lo + 1, in a form that
        // cannot overflow on corrupt commit cycles (at most 65
        // intervals whatever the span).
        interval_cycles = 16;
        while (interval_cycles <= (hi - lo) / 64)
            interval_cycles *= 2;
    }
    t.intervalCycles = interval_cycles;

    size_t n = size_t((hi - lo) / interval_cycles) + 1;
    t.intervals.resize(n);
    for (size_t i = 0; i < n; ++i) {
        t.intervals[i].startCycle = lo + i * interval_cycles;
        t.intervals[i].endCycle = lo + (i + 1) * interval_cycles;
    }
    for (const auto &ev : events) {
        if (ev.kind != CycleEvent::Kind::Uop ||
            (ev.flags & CycleEvent::kFlagWrongPath))
            continue;
        auto &iv = t.intervals[size_t((ev.commit - lo) / interval_cycles)];
        ++iv.uops;
        if (ev.flags & CycleEvent::kFlagFirstUop)
            ++iv.insts;
        if (ev.flags & CycleEvent::kFlagGrouped)
            ++iv.grouped;
        if (ev.flags & CycleEvent::kFlagReplayed)
            ++iv.replayed;
    }
    for (auto &iv : t.intervals) {
        iv.ipc = double(iv.insts) / double(interval_cycles);
        iv.mopCoverage = iv.uops ? double(iv.grouped) / double(iv.uops) : 0;
        iv.replayRate = iv.uops ? double(iv.replayed) / double(iv.uops) : 0;
    }

    // Phase segmentation: extend the current phase while the next
    // interval's IPC stays within 20% (or an absolute 0.1) of the
    // phase's running mean.
    Phase cur;
    cur.firstInterval = 0;
    double sum = t.intervals[0].ipc;
    for (size_t i = 1; i <= n; ++i) {
        bool flushPhase = i == n;
        if (!flushPhase) {
            double mean = sum / double(i - cur.firstInterval);
            double diff = std::fabs(t.intervals[i].ipc - mean);
            flushPhase = diff > std::max(0.2 * mean, 0.1);
        }
        if (flushPhase) {
            cur.lastInterval = i - 1;
            cur.startCycle = t.intervals[cur.firstInterval].startCycle;
            cur.endCycle = t.intervals[cur.lastInterval].endCycle;
            cur.meanIpc = sum / double(i - cur.firstInterval);
            t.phases.push_back(cur);
            if (i == n)
                break;
            cur = Phase{};
            cur.firstInterval = i;
            sum = 0;
        }
        if (i < n)
            sum += t.intervals[i].ipc;
    }
    return t;
}

TraceSummary
summarizeTrace(const std::vector<CycleEvent> &events)
{
    TraceSummary s;
    s.events = events.size();
    uint64_t iqSum = 0, robSum = 0;
    uint64_t firstFetch = ~0ULL;
    for (const auto &ev : events) {
        if (ev.kind == CycleEvent::Kind::Counter) {
            ++s.counters;
            iqSum += ev.issue;
            robSum += ev.execStart;
            continue;
        }
        if (ev.flags & CycleEvent::kFlagWrongPath) {
            ++s.wrongPathUops;
            continue;  // squashed: not a committed µop
        }
        ++s.uops;
        firstFetch = std::min(firstFetch, ev.fetch);
        s.lastCommit = std::max(s.lastCommit, ev.commit);
        if (ev.flags & CycleEvent::kFlagFirstUop)
            ++s.insts;
        if (ev.flags & CycleEvent::kFlagGrouped)
            ++s.grouped;
        if (ev.flags & CycleEvent::kFlagReplayed)
            ++s.replayed;
        if (ev.flags & CycleEvent::kFlagLoad)
            ++s.loads;
        if (ev.flags & CycleEvent::kFlagDl1Miss)
            ++s.dl1Misses;
    }
    if (s.uops) {
        s.firstFetch = firstFetch;
        s.cycles = s.lastCommit - s.firstFetch;
        if (s.cycles)
            s.ipc = double(s.insts) / double(s.cycles);
        s.mopCoverage = double(s.grouped) / double(s.uops);
        s.replayRate = double(s.replayed) / double(s.uops);
    }
    if (s.counters) {
        s.avgIqOcc = double(iqSum) / double(s.counters);
        s.avgRobOcc = double(robSum) / double(s.counters);
    }
    return s;
}

void
printSummary(std::ostream &os, const TraceSummary &s)
{
    os << "events        " << s.events << " (" << s.uops << " uops, "
       << s.counters << " counter samples)\n"
       << "insts         " << s.insts << "\n"
       << "cycles        " << s.cycles << " (fetch " << s.firstFetch
       << " .. commit " << s.lastCommit << ")\n";
    os << std::fixed;
    os << "ipc           " << std::setprecision(4) << s.ipc << "\n"
       << "mop coverage  " << std::setprecision(4) << s.mopCoverage << "\n"
       << "replay rate   " << std::setprecision(4) << s.replayRate << "\n"
       << "loads         " << s.loads << " (" << s.dl1Misses
       << " DL1 misses)\n";
    if (s.wrongPathUops)
        os << "wrong-path    " << s.wrongPathUops
           << " squashed uops\n";
    os << "avg iq occ    " << std::setprecision(2) << s.avgIqOcc << "\n"
       << "avg rob occ   " << std::setprecision(2) << s.avgRobOcc << "\n";
    os.unsetf(std::ios::fixed);
}

void
printCritPath(std::ostream &os, const CritPathReport &r)
{
    os << "cycles " << r.cycles << "  (uops " << r.uops << ", insts "
       << r.insts << ")\n";
    os << "critical-path composition:\n";
    for (size_t i = 0; i < kNumCritCauses; ++i) {
        // The wrong-path row only exists when a v3 trace actually
        // recorded squashed rows; suppressing the zero row keeps
        // wrong-path-off reports byte-identical to the pre-v3 output
        // (each percent is per-cause over r.cycles, so skipping a row
        // does not change the others).
        if (CritCause(i) == CritCause::WrongPath && !r.causeCycles[i])
            continue;
        double pct = r.cycles
                         ? 100.0 * double(r.causeCycles[i]) / double(r.cycles)
                         : 0.0;
        os << "  " << std::left << std::setw(14)
           << critCauseName(CritCause(i)) << std::right << std::setw(10)
           << r.causeCycles[i] << "  " << std::fixed << std::setprecision(1)
           << std::setw(5) << pct << "%\n";
        os.unsetf(std::ios::fixed);
    }
    os << "dominant cause        " << critCauseName(r.dominant()) << "\n"
       << "dominant stall cause  " << critCauseName(r.dominantStall())
       << "\n";
    os << "dep edges " << r.depEdges << " (" << r.tightEdges
       << " tight, gap < 2)\n";
    double delta =
        double(r.whatIfTwoCycleCycles) - double(r.cycles);
    double pct = r.cycles ? 100.0 * delta / double(r.cycles) : 0.0;
    os << "what-if 2-cycle loop  " << r.whatIfTwoCycleCycles << " cycles (+"
       << uint64_t(delta) << ", +" << std::fixed << std::setprecision(2)
       << pct << "%)\n";
    os.unsetf(std::ios::fixed);
}

void
printTimeline(std::ostream &os, const TimelineReport &t)
{
    os << "interval " << t.intervalCycles << " cycles, "
       << t.intervals.size() << " intervals, " << t.phases.size()
       << " phases\n";
    os << "    start       end     ipc   mopcov  replay\n";
    os << std::fixed;
    for (const auto &iv : t.intervals) {
        os << std::setw(9) << iv.startCycle << std::setw(10) << iv.endCycle
           << std::setw(8) << std::setprecision(3) << iv.ipc << std::setw(9)
           << std::setprecision(3) << iv.mopCoverage << std::setw(8)
           << std::setprecision(3) << iv.replayRate << "\n";
    }
    os.unsetf(std::ios::fixed);
    for (size_t i = 0; i < t.phases.size(); ++i) {
        const auto &ph = t.phases[i];
        os << "phase " << i << ": cycles " << ph.startCycle << ".."
           << ph.endCycle << "  intervals " << ph.firstInterval << ".."
           << ph.lastInterval << "  mean ipc " << std::fixed
           << std::setprecision(3) << ph.meanIpc << "\n";
        os.unsetf(std::ios::fixed);
    }
}

} // namespace mop::obs
