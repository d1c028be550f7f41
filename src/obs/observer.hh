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

#include "obs/stall.hh"
#include "obs/trace_export.hh"

namespace mop::obs
{

struct ObsConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;
    /** Cycle-event trace output path; "" = no trace. `.json` selects
     *  the Chrome trace-event format, anything else the compact
     *  binary form (trace_file's EventTraceWriter). */
    std::string traceOut;
    /** Cycles between occupancy counter samples in the trace. */
    uint32_t tracePeriod = 128;
};

class Observer
{
  public:
    /** @p iqCapacity / @p robSize bound the occupancy histograms. When
     *  the run executes wrong-path µops (@p wrongPath), binary traces
     *  are stamped MOPEVTRC v3 (flag bit 7 = kFlagWrongPath) instead
     *  of v2, so wrong-path-off traces stay byte-identical. */
    Observer(const ObsConfig &cfg, int issueWidth, int iqCapacity,
             int robSize, bool wrongPath = false);

    bool tracing() const { return exporter_ != nullptr; }

    /**
     * Per-cycle hook: charge issue slots and sample occupancies. A run
     * of cycles with identical inputs is charged and sampled once,
     * weighted by its length, when the inputs change or at finish();
     * occupancy counter events still go out every tracePeriod cycles.
     * @p now must grow from call to call, as the core's clock does.
     */
    void onCycle(sched::Cycle now, const sched::StallSnapshot &snap,
                 StallCause upstream, int iqOcc, int robOcc,
                 int frontendOcc, int mopPending);

    /** Commit-time hook: one lifecycle record per committed µop
     *  (only called when tracing() is true). */
    void onCommit(const trace::CycleEvent &ev);

    /** Charge the pending run of cycles, validate the stall invariant
     *  and finalize the trace. Read the accounting only after it.
     *  Idempotent (run() may be invoked more than once). */
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
    /** The inputs of one cycle, as onCycle compares them. */
    struct CycleInputs
    {
        sched::StallSnapshot snap;
        StallCause upstream = StallCause::Useful;
        int iq = 0;
        int rob = 0;
        int frontend = 0;
        int mopPending = 0;

        bool operator==(const CycleInputs &) const = default;
    };

    /** Charge and sample the pending run, then start none. */
    void flushRun();

    ObsConfig cfg_;
    CycleInputs run_;
    uint64_t runCycles_ = 0;  ///< cycles of run_ not yet charged
    sched::Cycle nextCounter_ = 0;  ///< no counter sample before it
    StallAccounting stalls_;
    stats::Histogram iqOcc_;
    stats::Histogram robOcc_;
    stats::Histogram frontendOcc_;
    stats::Histogram mopPending_;
    std::unique_ptr<TraceExporter> exporter_;
};

} // namespace mop::obs

#endif // MOP_OBS_OBSERVER_HH
