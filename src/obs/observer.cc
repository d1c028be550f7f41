#include "obs/observer.hh"

#include <algorithm>
#include <iomanip>

namespace mop::obs
{

namespace
{

/** Buckets for an occupancy histogram over [0, cap]; bucket size 1
 *  while it fits, coarser for very large structures. */
size_t
occBuckets(int cap)
{
    return size_t(std::clamp(cap + 1, 2, 65));
}

} // namespace

Observer::Observer(const ObsConfig &cfg, int issueWidth, int iqCapacity,
                   int robSize, bool wrongPath)
    : cfg_(cfg), stalls_(issueWidth), iqAt_(iqCapacity), robAt_(robSize),
      frontendAt_(64), mopPendingAt_(16),
      iqOcc_(0, iqCapacity + 1, occBuckets(iqCapacity)),
      robOcc_(0, robSize + 1, occBuckets(robSize)),
      frontendOcc_(0, 64, 32), mopPending_(0, 16, 16)
{
    if (!cfg_.traceOut.empty()) {
        exporter_ = std::make_unique<TraceExporter>(
            cfg_.traceOut, wrongPath ? 3u : 2u);
        if (cfg_.tracePeriod > 0)
            nextCounter_ = 0;
    }
}

void
Observer::Tally::drainInto(stats::Histogram &h)
{
    for (size_t v = 0; v < at_.size(); ++v) {
        if (at_[v] != 0) {
            h.sample(int64_t(v), at_[v]);
            at_[v] = 0;
        }
    }
}

void
Observer::Tally::grow(int v)
{
    at_.resize(size_t(v) + 1);
}

void
Observer::startRun(const sched::StallSnapshot &snap, StallCause upstream)
{
    chargeRun();
    runSnap_ = snap;
    runUpstream_ = upstream;
    runCycles_ = 1;
}

void
Observer::chargeRun()
{
    if (runCycles_ == 0)
        return;
    stalls_.charge(runSnap_, runUpstream_, runCycles_);
    runCycles_ = 0;
}

void
Observer::sampleCounters(sched::Cycle now, int iq, int rob, int frontend,
                         int mop_pending)
{
    // A sample every cycle divisible by tracePeriod. The clock only
    // moves forward, so no such cycle lies before nextCounter_ and the
    // division runs once per period instead of every cycle.
    if (now % cfg_.tracePeriod == 0) {
        trace::CycleEvent ev;
        ev.kind = trace::CycleEvent::Kind::Counter;
        ev.insert = now;
        ev.issue = uint64_t(iq);
        ev.execStart = uint64_t(rob);
        ev.complete = uint64_t(frontend);
        ev.commit = uint64_t(mop_pending);
        exporter_->push(ev);
    }
    nextCounter_ = (now / cfg_.tracePeriod + 1) * cfg_.tracePeriod;
}

void
Observer::onCommit(const trace::CycleEvent &ev)
{
    if (exporter_)
        exporter_->push(ev);
}

void
Observer::finish()
{
    chargeRun();
    iqAt_.drainInto(iqOcc_);
    robAt_.drainInto(robOcc_);
    frontendAt_.drainInto(frontendOcc_);
    mopPendingAt_.drainInto(mopPending_);
    stalls_.verifyInvariant();
    if (exporter_)
        exporter_->close();
}

void
Observer::addStats(stats::StatGroup &g) const
{
    stalls_.addStats(g);
    g.addHistogram("obs.occ.iq", &iqOcc_,
                   "issue-queue occupancy per cycle");
    g.addHistogram("obs.occ.rob", &robOcc_, "ROB occupancy per cycle");
    g.addHistogram("obs.occ.frontend", &frontendOcc_,
                   "frontend µops in flight per cycle");
    g.addHistogram("obs.occ.mopPending", &mopPending_,
                   "MOP heads pending their tail per cycle");
    g.addFormula("obs.trace.events",
                 [this] { return double(traceEventsEmitted()); },
                 "cycle-trace events exported");
}

void
Observer::printReport(std::ostream &os) const
{
    printBreakdown(os, stalls_.slots(), stalls_.width(),
                   stalls_.cycles());
    auto line = [&](const char *name, const stats::Histogram &h) {
        os << "  " << std::left << std::setw(12) << name << std::right
           << " mean " << std::setw(8) << std::fixed
           << std::setprecision(2) << h.mean() << "   p50 "
           << std::setw(5) << h.percentile(0.50) << "   p95 "
           << std::setw(5) << h.percentile(0.95) << "\n";
    };
    os << "occupancy (per cycle):\n";
    line("iq", iqOcc_);
    line("rob", robOcc_);
    line("frontend", frontendOcc_);
    line("mop-pending", mopPending_);
}

} // namespace mop::obs
