#include "sweep/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/characterize.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"

namespace mop::sweep
{

std::string
describeJob(const SweepJob &job)
{
    std::ostringstream os;
    os << job.bench;
    switch (job.kind) {
      case JobKind::Sim:
        os << " machine=" << sim::machineName(job.cfg.machine)
           << " iq=" << job.cfg.iqEntries << " insts=" << job.insts;
        break;
      case JobKind::Distance:
        os << " distance insts=" << job.insts;
        break;
      case JobKind::Grouping:
        os << " grouping mop=" << job.maxMopSize
           << " insts=" << job.insts;
        break;
    }
    return os.str();
}

SweepOutcome
computeJob(const SweepJob &job)
{
    auto t0 = std::chrono::steady_clock::now();
    SweepOutcome out;
    switch (job.kind) {
      case JobKind::Sim: {
        pipeline::SimResult r =
            sim::runBenchmark(job.bench, job.cfg, job.insts);
        out.record = packSimResult(r);
        out.simulatedInsts = r.insts;
        break;
      }
      case JobKind::Distance: {
        trace::SyntheticSource src(trace::profileFor(job.bench));
        out.record =
            packDistance(analysis::characterizeDistance(src, job.insts));
        break;
      }
      case JobKind::Grouping: {
        trace::SyntheticSource src(trace::profileFor(job.bench));
        out.record = packGrouping(
            analysis::characterizeGrouping(src, job.insts,
                                           job.maxMopSize));
        break;
      }
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return out;
}

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

SweepExecutor::SweepExecutor(int jobs)
{
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    jobs_ = std::min(std::max(jobs, 1), 256);
}

std::vector<JobReport>
SweepExecutor::run(size_t n, const JobBody &body,
                   const ProgressFn &progress) const
{
    std::vector<JobReport> reports(n);
    std::atomic<size_t> next{0};
    std::mutex mu;  // serializes onComplete_ + progress
    size_t done = 0;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            JobReport &r = reports[i];
            try {
                r = body(i);
            } catch (const std::exception &e) {
                r.failure = {FailureKind::Error, 0, 1, e.what()};
            } catch (...) {
                r.failure = {FailureKind::Error, 0, 1, "unknown exception"};
            }
            if (telemetry_) {
                if (r.ok)
                    telemetry_->onRunCompleted(r.outcome.seconds,
                                               r.outcome.simulatedInsts);
                telemetry_->maybeFlush();
            }
            std::lock_guard<std::mutex> lock(mu);
            if (r.ok && onComplete_)
                onComplete_(i, r.outcome);
            if (progress)
                progress(++done, n);
        }
    };

    int workers = int(std::min(size_t(jobs_), n));
    if (workers <= 1) {
        worker();  // inline on the caller's thread: the serial baseline
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

std::vector<SweepOutcome>
SweepExecutor::runAll(const std::vector<SweepJob> &batch,
                      const ProgressFn &progress) const
{
    std::vector<JobReport> reports = run(
        batch.size(),
        [&](size_t i) {
            JobReport r;
            r.outcome = computeJob(batch[i]);
            r.ok = true;
            return r;
        },
        progress);

    std::vector<SweepOutcome> results;
    std::vector<SweepBatchError::Failure> failures;
    for (size_t i = 0; i < reports.size(); ++i) {
        if (reports[i].ok)
            results.push_back(std::move(reports[i].outcome));
        else
            failures.push_back({i, describeJob(batch[i]),
                                reports[i].failure.message});
    }
    if (!failures.empty()) {
        std::ostringstream what;
        what << "sweep: " << failures.size() << " of " << batch.size()
             << " job(s) failed:";
        for (const auto &f : failures)
            what << "\n  job " << f.index << " (" << f.job
                 << "): " << f.message;
        throw SweepBatchError(what.str(), std::move(failures));
    }
    return results;
}

} // namespace mop::sweep
