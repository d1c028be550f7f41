#include "sweep/supervisor.hh"

#include <atomic>
#include <mutex>
#include <thread>

namespace mop::sweep
{

const char *
failureKindName(FailureKind k)
{
    switch (k) {
      case FailureKind::Crash: return "crash";
      case FailureKind::Timeout: return "timeout";
      case FailureKind::CorruptResult: return "corrupt-result";
      case FailureKind::Error: return "error";
    }
    return "?";
}

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

SweepSupervisor::SweepSupervisor(SupervisorOptions opts)
    : opts_(std::move(opts))
{
    int jobs = opts_.jobs;
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    jobs_ = std::min(std::max(jobs, 1), 256);
    if (!opts_.sleeper) {
        opts_.sleeper = [](double seconds) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
        };
    }
}

JobReport
SweepSupervisor::superviseJob(const SweepJob &job,
                              const Fingerprint &fp) const
{
    JobReport report;
    for (int attempt = 1;; ++attempt) {
        WorkerResult res = runIsolated(job, fp, opts_.jobTimeoutSeconds,
                                       opts_.plan, attempt);
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
        if (telemetry_ && kind == FailureKind::Crash)
            telemetry_->onCrash();

        if (opts_.retry.shouldRetry(kind, attempt)) {
            if (telemetry_)
                telemetry_->onRetry();
            opts_.sleeper(opts_.retry.backoffSeconds(attempt));
            continue;
        }

        report.ok = false;
        report.failure.kind = kind;
        report.failure.signal = res.signal;
        report.failure.attempts = attempt;
        report.failure.message = res.error;
        return report;
    }
}

std::vector<JobReport>
SweepSupervisor::runAll(
    const std::vector<SweepJob> &batch,
    const std::vector<Fingerprint> &fps,
    const std::function<void(size_t done, size_t total)> &progress) const
{
    std::vector<JobReport> reports(batch.size());
    if (batch.empty())
        return reports;

    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;  // serializes onComplete_ + progress

    auto finish = [&](size_t i) {
        const JobReport &r = reports[i];
        if (telemetry_) {
            if (r.ok) {
                telemetry_->onRunCompleted(r.outcome.seconds,
                                           r.outcome.simulatedInsts);
            } else {
                telemetry_->onQuarantine();
            }
            telemetry_->maybeFlush();
        }
        size_t d = done.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lock(mu);
        if (onComplete_)
            onComplete_(i, r);
        if (progress)
            progress(d, batch.size());
    };

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= batch.size())
                return;
            reports[i] = superviseJob(batch[i], fps[i]);
            finish(i);
        }
    };

    int workers = int(std::min(size_t(jobs_), batch.size()));
    if (workers <= 1) {
        worker();
        return reports;
    }
    std::vector<std::thread> pool;
    pool.reserve(size_t(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return reports;
}

} // namespace mop::sweep
