/**
 * @file
 * Thread-pool sweep executor.
 *
 * Fans a batch of (benchmark x RunConfig) jobs across worker threads.
 * Simulations are per-run object graphs with no shared mutable state
 * (the scheduler's trace-tag and the harness instruction budget were
 * hoisted into config structs for exactly this reason), so workers
 * need no locking around the simulator itself; the only shared state
 * here is the job cursor and the result slots, which are disjoint per
 * job.
 *
 * Determinism: job i's result depends only on job i's inputs, never on
 * scheduling order, so an N-worker sweep is bit-identical to a serial
 * one. With jobs() == 1 the batch runs inline on the caller's thread
 * (the serial baseline spawns nothing).
 *
 * Every job is computed in-process (computeJob on the worker thread).
 * A job that throws does not stop the others; once the pool drains,
 * one SweepBatchError names every failed job.
 */

#ifndef MOP_SWEEP_EXECUTOR_HH
#define MOP_SWEEP_EXECUTOR_HH

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "pipeline/ooo_core.hh"
#include "sim/config.hh"
#include "sweep/fingerprint.hh"
#include "sweep/result_cache.hh"

namespace mop::sweep
{

/** One unit of sweep work. */
struct SweepJob
{
    JobKind kind = JobKind::Sim;
    std::string bench;
    sim::RunConfig cfg;    ///< Sim only
    uint64_t insts = 0;
    int maxMopSize = 0;    ///< Grouping only
};

/** A finished job: its record (cache-ready) and compute time. */
struct SweepOutcome
{
    CacheRecord record;
    double seconds = 0;
    uint64_t simulatedInsts = 0;  ///< 0 for characterization jobs
};

/** Compute one job on the calling thread. */
SweepOutcome computeJob(const SweepJob &job);

/**
 * Thrown by SweepExecutor::runAll when jobs failed: carries *every*
 * failing job (index + description + cause), not just the first, so a
 * batch with several bad configurations reports all of them at once.
 */
class SweepBatchError : public std::runtime_error
{
  public:
    struct Failure
    {
        size_t index;         ///< batch position
        std::string job;      ///< "bench machine=... iq=..." summary
        std::string message;  ///< the exception's what()
    };

    SweepBatchError(std::string what, std::vector<Failure> failures)
        : std::runtime_error(std::move(what)),
          failures_(std::move(failures))
    {
    }

    const std::vector<Failure> &failures() const { return failures_; }

  private:
    std::vector<Failure> failures_;
};

class SweepExecutor
{
  public:
    /** @p jobs worker count; 0 picks hardware_concurrency(), values
     *  are clamped to [1, 256]. */
    explicit SweepExecutor(int jobs);

    int jobs() const { return jobs_; }

    /** Attach a live telemetry sink (not owned; may be null). Each
     *  successful job reports its wall time and simulated instruction
     *  count, and every finished job is followed by a rate-limited
     *  flush. */
    void setTelemetry(obs::TelemetrySink *t) { telemetry_ = t; }

    /** Per-job completion hook, invoked under a lock as each job
     *  succeeds — the suite persists results incrementally through it
     *  so a killed sweep keeps its completed work. */
    using CompletionFn =
        std::function<void(size_t index, const SweepOutcome &)>;
    void setCompletion(CompletionFn fn) { onComplete_ = std::move(fn); }

    /** Invoked under the same lock with the count of finished jobs. */
    using ProgressFn = std::function<void(size_t done, size_t total)>;

    /**
     * Compute every job in-process; result i corresponds to job i.
     * After all workers drain, a SweepBatchError naming *every* failed
     * job is thrown if any job threw (successful jobs still ran, and
     * their completion hooks fired). An exception from the telemetry
     * sink, the completion hook or @p progress stops handing out jobs
     * and is rethrown once the jobs in flight finish.
     */
    std::vector<SweepOutcome>
    runAll(const std::vector<SweepJob> &batch,
           const ProgressFn &progress = {}) const;

  private:
    int jobs_;
    obs::TelemetrySink *telemetry_ = nullptr;  ///< not owned
    CompletionFn onComplete_;
};

} // namespace mop::sweep

#endif // MOP_SWEEP_EXECUTOR_HH
