/**
 * @file
 * Live sweep telemetry.
 *
 * A thread-safe sink the sweep executor updates once per completed
 * run. Two consumers: a Prometheus-style text file (periodically
 * rewritten atomically, so a node-exporter textfile collector or a
 * tail loop always sees a complete snapshot) and a single-line TTY
 * progress report (runs done/queued, cache hits, worker utilization,
 * ETA).
 *
 * The sink never blocks the workers on I/O beyond the flush itself:
 * maybeFlush() rate-limits rewrites, and the file is written to a
 * temporary and renamed into place (same idiom as the result cache).
 */

#ifndef MOP_OBS_TELEMETRY_HH
#define MOP_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace mop::obs
{

class TelemetrySink
{
  public:
    /** Point-in-time view of the batch (all derived metrics filled). */
    struct Snapshot
    {
        /** Batch label, attached to every series as {batch="..."}
         *  when non-empty (values are escaped per the text format). */
        std::string batch;
        uint64_t totalRuns = 0;      ///< jobs in the batch (incl. cached)
        uint64_t completedRuns = 0;  ///< simulated to completion
        uint64_t cacheHits = 0;      ///< satisfied from the result cache
        uint64_t queuedRuns = 0;     ///< not yet started or in flight
        uint64_t simulatedInsts = 0;
        // Result-cache health.
        uint64_t cacheCorrupt = 0;     ///< damaged records quarantined
        uint64_t cacheEvictions = 0;   ///< records evicted by budget
        int workers = 0;
        double elapsedSeconds = 0;
        double busySeconds = 0;      ///< summed per-run wall time
        double utilization = 0;      ///< busy / (elapsed * workers)
        double etaSeconds = 0;       ///< queued * observed mean run time
    };

    /** @p path may be empty: the sink still aggregates (for the TTY
     *  progress line) but flush() is a no-op. */
    explicit TelemetrySink(std::string path = {}, int workers = 1);

    /** Declare the batch: total jobs and how many the cache already
     *  resolved. Resets the clock. */
    void beginBatch(uint64_t total_runs, uint64_t cache_hits);

    /** Label this batch (e.g. the figure selection); survives
     *  beginBatch. Empty (the default) omits the label entirely. */
    void setBatchLabel(std::string label);

    /** One run finished; @p seconds of worker time, @p insts simulated.
     *  Thread-safe. */
    void onRunCompleted(double seconds, uint64_t insts);

    /** Cache-health counters, set from ResultCache totals. */
    void setCacheHealth(uint64_t corrupt, uint64_t evictions);

    Snapshot snapshot() const;

    /** Prometheus text exposition of the current snapshot. */
    std::string prometheusText() const;

    /** One-line, \r-friendly progress string for a TTY. */
    std::string progressLine() const;

    /** Rewrite the text file (atomic temp+rename). No-op without a
     *  path. @throws std::runtime_error on I/O failure. */
    void flush();

    /** flush() at most once per @p min_interval_s; cheap otherwise. */
    void maybeFlush(double min_interval_s = 1.0);

    const std::string &path() const { return path_; }

  private:
    using Clock = std::chrono::steady_clock;

    Snapshot snapshotLocked() const;  ///< caller holds mu_

    mutable std::mutex mu_;
    std::string path_;
    int workers_ = 1;
    Clock::time_point start_ = Clock::now();
    Clock::time_point lastFlush_;
    bool flushedOnce_ = false;
    uint64_t totalRuns_ = 0;
    uint64_t completedRuns_ = 0;
    uint64_t cacheHits_ = 0;
    uint64_t simulatedInsts_ = 0;
    double busySeconds_ = 0;
    uint64_t cacheCorrupt_ = 0;
    uint64_t cacheEvictions_ = 0;
    std::string batch_;
};

/** Render @p s in Prometheus text exposition format (exposed for
 *  tests; prometheusText() is this over a live snapshot). */
std::string renderPrometheus(const TelemetrySink::Snapshot &s);

/** Escape a Prometheus label *value* per the text exposition format:
 *  backslash -> \\, double-quote -> \", newline -> \n (exposed for
 *  tests). */
std::string promEscapeLabelValue(const std::string &v);

/** Test hook: make the next flush() observe a short fwrite so the
 *  error path (temp-file cleanup + throw) can be exercised without a
 *  full filesystem. */
void injectTelemetryShortWriteForTest(bool enable);

/** Render the one-line progress string for @p s. */
std::string renderProgressLine(const TelemetrySink::Snapshot &s);

} // namespace mop::obs

#endif // MOP_OBS_TELEMETRY_HH
