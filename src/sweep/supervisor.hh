/**
 * @file
 * Fault-tolerant sweep supervision: watchdog + retry + quarantine over
 * sandboxed workers.
 *
 * superviseJob() is the opt-in (--isolate) per-job body that the
 * SweepExecutor pool runs instead of computing in-process: the job is
 * computed in a forked child (see sandbox.hh) under a per-job
 * wall-clock deadline. Transient failures — crash, timeout, torn
 * result frame — are retried with exponential backoff; a job that
 * keeps failing is *quarantined* after the attempt budget and comes
 * back as an explicit FailedJob report for that hole instead of
 * killing the sweep. Deterministic failures (a C++ exception such as
 * an unknown benchmark) are never retried.
 */

#ifndef MOP_SWEEP_SUPERVISOR_HH
#define MOP_SWEEP_SUPERVISOR_HH

#include <functional>

#include "obs/telemetry.hh"
#include "sweep/sandbox.hh"

namespace mop::sweep
{

/**
 * Pure retry/backoff/quarantine policy — a deterministic state
 * machine, unit-testable with a fake clock (superviseJob injects
 * real sleeping via SupervisorOptions::sleeper).
 */
struct RetryPolicy
{
    int maxAttempts = 3;        ///< total tries incl. the first
    double backoffBase = 0.05;  ///< seconds before attempt 2
    double backoffMax = 2.0;    ///< exponential growth cap

    /** May attempt (attempts_so_far + 1) proceed? Error is permanent;
     *  crash/timeout/corrupt-result are transient. */
    bool shouldRetry(FailureKind kind, int attempts_so_far) const;

    /** Backoff before the next attempt when @p attempts_so_far have
     *  failed: base * 2^(n-1), capped at backoffMax. */
    double backoffSeconds(int attempts_so_far) const;
};

struct SupervisorOptions
{
    /** Per-job wall-clock deadline in seconds (must be > 0; the suite
     *  derives a default from the instruction budget). */
    double jobTimeoutSeconds = 30.0;
    RetryPolicy retry;
    /** Chaos plan enacted inside the children (not owned; may be
     *  null). */
    const SweepFaultPlan *plan = nullptr;
    /** Backoff sleeper, injectable for tests (default: real sleep). */
    std::function<void(double)> sleeper;
};

/**
 * Supervise one job: the attempt/backoff/quarantine loop. @p fp is the
 * job's fingerprint (chaos victim selection key). Crashes, retries and
 * quarantines are counted on @p telemetry (not owned; may be null).
 * Never throws on job failure: a hole comes back as a !ok report.
 */
JobReport superviseJob(const SweepJob &job, const Fingerprint &fp,
                       const SupervisorOptions &opts,
                       obs::TelemetrySink *telemetry = nullptr);

} // namespace mop::sweep

#endif // MOP_SWEEP_SUPERVISOR_HH
