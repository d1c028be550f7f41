/**
 * @file
 * Fault-tolerant sweep supervision: watchdog + retry + quarantine over
 * sandboxed workers.
 *
 * SweepSupervisor is the opt-in (--isolate) alternative to running
 * jobs in-process: every job is computed in a forked child (see
 * sandbox.hh) under a per-job wall-clock deadline. Transient failures
 * — crash, timeout, torn result frame — are retried with exponential
 * backoff; a job that keeps failing is *quarantined* after the attempt
 * budget and the sweep terminates with an explicit FailedJob outcome
 * for that hole instead of dying. Deterministic failures (a C++
 * exception such as an unknown benchmark) are never retried.
 */

#ifndef MOP_SWEEP_SUPERVISOR_HH
#define MOP_SWEEP_SUPERVISOR_HH

#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sweep/sandbox.hh"

namespace mop::sweep
{

/** Terminal failure classes a job can be quarantined with. */
enum class FailureKind : uint8_t
{
    Crash,          ///< worker died on a signal
    Timeout,        ///< watchdog deadline expired
    CorruptResult,  ///< result frame truncated / CRC-damaged
    Error,          ///< deterministic C++ exception (never retried)
};

const char *failureKindName(FailureKind k);

/** Why a sweep hole exists: recorded per quarantined job. */
struct FailedJob
{
    FailureKind kind = FailureKind::Error;
    int signal = 0;       ///< terminating signal for Crash
    int attempts = 0;     ///< attempts consumed before quarantine
    std::string message;  ///< exception text / frame diagnosis
};

/**
 * Pure retry/backoff/quarantine policy — a deterministic state
 * machine, unit-testable with a fake clock (the supervisor injects
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

/** One supervised job's final outcome. */
struct JobReport
{
    bool ok = false;
    SweepOutcome outcome;  ///< valid when ok
    FailedJob failure;     ///< valid when !ok
    int attempts = 0;      ///< total attempts made
    int retries = 0;       ///< attempts - 1 (telemetry convenience)
};

struct SupervisorOptions
{
    int jobs = 0;  ///< worker threads; 0 = hardware_concurrency()
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

class SweepSupervisor
{
  public:
    explicit SweepSupervisor(SupervisorOptions opts);

    int jobs() const { return jobs_; }

    /** Attach a live telemetry sink (not owned; may be null). Reports
     *  per-run completion plus retry/crash/quarantine counters. */
    void setTelemetry(obs::TelemetrySink *t) { telemetry_ = t; }

    /**
     * Per-job completion hook, invoked under a lock as each job
     * reaches its final outcome (ok or quarantined) — the suite uses
     * it to persist results incrementally so a killed sweep keeps its
     * finished work.
     */
    using CompletionFn =
        std::function<void(size_t index, const JobReport &)>;
    void setCompletion(CompletionFn fn) { onComplete_ = std::move(fn); }

    /**
     * Supervise every job; report i corresponds to batch[i]. @p fps
     * must parallel @p batch (fingerprints drive chaos victim
     * selection). Never throws on job failure: holes
     * come back as !ok reports.
     */
    std::vector<JobReport>
    runAll(const std::vector<SweepJob> &batch,
           const std::vector<Fingerprint> &fps,
           const std::function<void(size_t done, size_t total)> &progress =
               {}) const;

    /** Supervise one job: the attempt/backoff/quarantine loop. */
    JobReport superviseJob(const SweepJob &job,
                           const Fingerprint &fp) const;

  private:
    SupervisorOptions opts_;
    int jobs_;
    obs::TelemetrySink *telemetry_ = nullptr;  ///< not owned
    CompletionFn onComplete_;
};

} // namespace mop::sweep

#endif // MOP_SWEEP_SUPERVISOR_HH
