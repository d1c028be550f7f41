/**
 * @file
 * The observability layer's front door.
 *
 * An Observer is owned by the pipeline when ObsConfig::enabled is set
 * (always compiled, off by default): every cycle the core feeds it the
 * scheduler's stall snapshot, the pipeline-level fallback cause and
 * the per-structure occupancies; at commit it receives one lifecycle
 * record per micro-op when a trace was requested. Costs nothing but a
 * branch when disabled — the core holds a null pointer.
 */

#ifndef MOP_OBS_OBSERVER_HH
#define MOP_OBS_OBSERVER_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/stall.hh"
#include "obs/trace_export.hh"

namespace mop::obs
{

struct ObsConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;
    /** Cycle-event trace output path; "" = no trace. The trace is
     *  binary MOPEVTRC (trace_file's EventTraceWriter) whatever the
     *  name; `moptrace json` writes its Chrome trace-event view. */
    std::string traceOut;
    /** Cycles between occupancy counter samples in the trace. */
    uint32_t tracePeriod = 128;
};

class Observer
{
  public:
    /** @p iqCapacity / @p robSize bound the occupancy histograms. When
     *  the run executes wrong-path µops (@p wrongPath), traces are
     *  stamped MOPEVTRC v3 (flag bit 7 = kFlagWrongPath) instead
     *  of v2, so wrong-path-off traces stay byte-identical. */
    Observer(const ObsConfig &cfg, int issueWidth, int iqCapacity,
             int robSize, bool wrongPath = false);

    bool tracing() const { return exporter_ != nullptr; }

    /**
     * Per-cycle hook: charge issue slots and tally occupancies. A run
     * of cycles with the same snapshot and upstream cause is charged
     * once, weighted by its length, when either changes or at
     * finish(); each occupancy adds one cycle to its value's tally,
     * and finish() samples the tallies into the histograms. Occupancy
     * counter events still go out every tracePeriod cycles. Inline:
     * a cycle that extends the run makes no call. @p now must grow
     * from call to call, as the core's clock does.
     */
    void
    onCycle(sched::Cycle now, const sched::StallSnapshot &snap,
            StallCause upstream, int iqOcc, int robOcc, int frontendOcc,
            int mopPending)
    {
        iqAt_.add(iqOcc);
        robAt_.add(robOcc);
        frontendAt_.add(frontendOcc);
        mopPendingAt_.add(mopPending);
        if (runCycles_ > 0 && upstream == runUpstream_ && snap == runSnap_)
            ++runCycles_;
        else
            startRun(snap, upstream);
        if (now >= nextCounter_)
            sampleCounters(now, iqOcc, robOcc, frontendOcc, mopPending);
    }

    /** Commit-time hook: one lifecycle record per committed µop
     *  (only called when tracing() is true). */
    void onCommit(const trace::CycleEvent &ev);

    /** Charge the pending run of cycles, sample the occupancy tallies
     *  into the histograms, validate the stall invariant and finalize
     *  the trace. Read the accounting and the histograms only after
     *  it. Idempotent (run() may be invoked more than once). */
    void finish();

    const StallAccounting &stalls() const { return stalls_; }
    StallAccounting &stalls() { return stalls_; }
    const stats::Histogram &iqOccupancy() const { return iqOcc_; }
    const stats::Histogram &robOccupancy() const { return robOcc_; }
    const stats::Histogram &frontendOccupancy() const
    {
        return frontendOcc_;
    }
    const stats::Histogram &mopPendingOccupancy() const
    {
        return mopPending_;
    }
    uint64_t traceEventsEmitted() const
    {
        return exporter_ ? exporter_->emitted() : 0;
    }

    void addStats(stats::StatGroup &g) const;

    /** Human-readable breakdown: stall causes + occupancy summary. */
    void printReport(std::ostream &os) const;

  private:
    /** Cycles spent at each value of one occupancy, the form Carroll &
     *  Lin's queuing model takes it in; finish() drains it into a
     *  histogram. */
    class Tally
    {
      public:
        explicit Tally(int maxValue) : at_(size_t(maxValue) + 1) {}

        void
        add(int v)
        {
            if (size_t(v) >= at_.size()) [[unlikely]]
                grow(v);
            ++at_[size_t(v)];
        }

        /** Sample every value into @p h, weighted by its cycles, and
         *  start over. */
        void drainInto(stats::Histogram &h);

      private:
        void grow(int v);

        std::vector<uint64_t> at_;
    };

    /** Charge the pending run, then start one of @p snap, @p upstream. */
    void startRun(const sched::StallSnapshot &snap, StallCause upstream);
    /** Charge the pending run, then start none. */
    void chargeRun();
    /** Emit the counter event when @p now is a multiple of the trace
     *  period and move nextCounter_ to the next one. */
    void sampleCounters(sched::Cycle now, int iq, int rob, int frontend,
                        int mopPending);

    ObsConfig cfg_;
    sched::StallSnapshot runSnap_;
    StallCause runUpstream_ = StallCause::Useful;
    uint64_t runCycles_ = 0;  ///< cycles of the run not yet charged
    /** No counter sample before it; never without a trace. */
    sched::Cycle nextCounter_ = sched::kNoCycle;
    StallAccounting stalls_;
    Tally iqAt_;
    Tally robAt_;
    Tally frontendAt_;
    Tally mopPendingAt_;
    stats::Histogram iqOcc_;
    stats::Histogram robOcc_;
    stats::Histogram frontendOcc_;
    stats::Histogram mopPending_;
    std::unique_ptr<TraceExporter> exporter_;
};

} // namespace mop::obs

#endif // MOP_OBS_OBSERVER_HH
