#include "sweep/supervisor.hh"

#include <chrono>
#include <thread>

namespace mop::sweep
{

bool
RetryPolicy::shouldRetry(FailureKind kind, int attempts_so_far) const
{
    if (kind == FailureKind::Error)
        return false;  // deterministic: would fail identically again
    return attempts_so_far < maxAttempts;
}

double
RetryPolicy::backoffSeconds(int attempts_so_far) const
{
    double s = backoffBase;
    for (int i = 1; i < attempts_so_far && s < backoffMax; ++i)
        s *= 2;
    return s < backoffMax ? s : backoffMax;
}

JobReport
superviseJob(const SweepJob &job, const Fingerprint &fp,
             const SupervisorOptions &opts, obs::TelemetrySink *telemetry)
{
    JobReport report;
    for (int attempt = 1;; ++attempt) {
        WorkerResult res = runIsolated(job, fp, opts.jobTimeoutSeconds,
                                       opts.plan, attempt);
        report.attempts = attempt;
        report.retries = attempt - 1;
        if (res.status == WorkerStatus::Ok) {
            report.ok = true;
            report.outcome = std::move(res.outcome);
            return report;
        }

        FailureKind kind = FailureKind::Error;
        switch (res.status) {
          case WorkerStatus::Crash: kind = FailureKind::Crash; break;
          case WorkerStatus::Timeout: kind = FailureKind::Timeout; break;
          case WorkerStatus::CorruptResult:
            kind = FailureKind::CorruptResult;
            break;
          case WorkerStatus::Error:
          case WorkerStatus::Ok: kind = FailureKind::Error; break;
        }
        if (telemetry && kind == FailureKind::Crash)
            telemetry->onCrash();

        if (opts.retry.shouldRetry(kind, attempt)) {
            if (telemetry)
                telemetry->onRetry();
            double s = opts.retry.backoffSeconds(attempt);
            if (opts.sleeper)
                opts.sleeper(s);
            else
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(s));
            continue;
        }

        if (telemetry)
            telemetry->onQuarantine();
        report.failure.kind = kind;
        report.failure.signal = res.signal;
        report.failure.attempts = attempt;
        report.failure.message = res.error;
        return report;
    }
}

} // namespace mop::sweep
