#include "sweep/executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/characterize.hh"
#include "sim/config.hh"
#include "trace/profiles.hh"

namespace mop::sweep
{

namespace
{

/** One-line human description of a job ("gzip machine=base iq=32"). */
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

} // namespace

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

SweepExecutor::SweepExecutor(int jobs)
{
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    jobs_ = std::min(std::max(jobs, 1), 256);
}

std::vector<SweepOutcome>
SweepExecutor::runAll(const std::vector<SweepJob> &batch,
                      const ProgressFn &progress) const
{
    const size_t n = batch.size();
    std::vector<SweepOutcome> results(n);
    std::vector<std::optional<std::string>> errors(n);  // set = job failed
    std::atomic<size_t> next{0};
    std::mutex mu;  // serializes onComplete_, progress and hookError
    size_t done = 0;
    // First exception from telemetry or a hook. It must not escape a
    // worker thread (that would terminate the process): it stops the
    // cursor and is rethrown once the pool has drained.
    std::exception_ptr hookError;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                results[i] = computeJob(batch[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            } catch (...) {
                errors[i] = "unknown exception";
            }
            try {
                if (telemetry_) {
                    if (!errors[i])
                        telemetry_->onRunCompleted(
                            results[i].seconds, results[i].simulatedInsts);
                    telemetry_->maybeFlush();
                }
                std::lock_guard<std::mutex> lock(mu);
                if (!errors[i] && onComplete_)
                    onComplete_(i, results[i]);
                if (progress)
                    progress(++done, n);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!hookError)
                    hookError = std::current_exception();
                next.store(n);
            }
        }
    };

    int workers = int(std::min(size_t(jobs_), n));
    if (workers <= 1) {
        worker();  // inline on the caller's thread: the serial baseline
    } else {
        std::vector<std::thread> pool;
        pool.reserve(size_t(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    if (hookError)
        std::rethrow_exception(hookError);

    std::vector<SweepBatchError::Failure> failures;
    for (size_t i = 0; i < n; ++i)
        if (errors[i])
            failures.push_back({i, describeJob(batch[i]), *errors[i]});
    if (!failures.empty()) {
        std::ostringstream what;
        what << "sweep: " << failures.size() << " of " << n
             << " job(s) failed:";
        for (const auto &f : failures)
            what << "\n  job " << f.index << " (" << f.job
                 << "): " << f.message;
        throw SweepBatchError(what.str(), std::move(failures));
    }
    return results;
}

} // namespace mop::sweep
