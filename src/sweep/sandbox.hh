/**
 * @file
 * Process-isolated sweep workers + deterministic sweep-layer chaos.
 *
 * runIsolated() computes one SweepJob in a forked child and ships the
 * result back over a pipe in a CRC frame holding the compute seconds,
 * the instruction count and the record's cache-file bytes
 * (encodeRecordV2, read back with decodeRecord: the record has one
 * codec, on disk and on the pipe). A SIGSEGV / abort / OOM-kill /
 * runaway loop in one configuration is thus a *classified, recorded
 * failure* instead of a dead sweep. The parent enforces a wall-clock deadline (SIGKILL on
 * expiry) and classifies every ending:
 *
 *   Ok            child exited 0 with a CRC-valid result frame
 *   Crash         child died on a signal (segfault, abort, OOM kill)
 *   Timeout       deadline expired; child was killed
 *   CorruptResult child exited 0 but the frame was truncated or its
 *                 CRC failed (torn pipe write, memory corruption)
 *   Error         child reported a C++ exception (message carried)
 *
 * SweepFaultPlan extends the src/verify fault-injection philosophy to
 * the sweep layer itself: a seeded, deterministic plan of worker
 * misbehaviour (--sweep-inject=crash|hang|corrupt-record|short-write)
 * used by tests and CI to prove every recovery path end-to-end.
 * Victims are chosen per (kind, job fingerprint) — execution order
 * never matters — and fire on the first `failAttempts` attempts of
 * that job, so a plan with failAttempts < the retry budget always
 * recovers to a byte-identical sweep, and one with failAttempts >=
 * the budget deterministically exercises quarantine.
 */

#ifndef MOP_SWEEP_SANDBOX_HH
#define MOP_SWEEP_SANDBOX_HH

#include <array>
#include <string>

#include "sweep/executor.hh"
#include "sweep/fingerprint.hh"

namespace mop::sweep
{

/** Worker misbehaviour the chaos plan can schedule. */
enum class SweepFault : uint8_t
{
    Crash,          ///< child raises SIGSEGV before computing
    Hang,           ///< child stalls until the watchdog kills it
    CorruptRecord,  ///< child flips a payload bit after CRC framing
    ShortWrite,     ///< child writes only a prefix of the frame
    kCount,
};

constexpr size_t kNumSweepFaults = size_t(SweepFault::kCount);

const char *sweepFaultName(SweepFault k);

/** Seeded deterministic chaos plan for sweep workers. */
struct SweepFaultPlan
{
    struct Rule
    {
        double rate = 0;      ///< fraction of jobs victimized, (0, 1]
        int failAttempts = 0; ///< attempts 1..N of a victim job fail
    };

    std::array<Rule, kNumSweepFaults> rules{};
    uint64_t seed = 1;

    bool any() const;

    /**
     * Parse "kind[:rate[:attempts]][,kind...]" (the --sweep-inject
     * argument); rate defaults to 1.0, attempts to 1. Throws
     * std::invalid_argument naming the offending token.
     */
    static SweepFaultPlan parse(const std::string &spec,
                                uint64_t seed = 1);

    /** Canonical "kind:rate:attempts,..." form (reports and logs). */
    std::string toString() const;

    /**
     * Should fault @p k fire for job @p fp on 1-based attempt
     * @p attempt? Deterministic in (seed, k, fp): the victim draw
     * ignores attempt, which only gates against failAttempts.
     */
    bool fires(SweepFault k, const Fingerprint &fp, int attempt) const;
};

/** How an isolated worker ended. */
enum class WorkerStatus : uint8_t
{
    Ok,
    Crash,
    Timeout,
    CorruptResult,
    Error,
};

const char *workerStatusName(WorkerStatus s);

struct WorkerResult
{
    WorkerStatus status = WorkerStatus::Error;
    int signal = 0;        ///< terminating signal for Crash
    std::string error;     ///< exception message for Error
    SweepOutcome outcome;  ///< valid when status == Ok
};

/**
 * Compute @p job in a forked child with a wall-clock deadline of
 * @p timeout_seconds. @p plan (may be null) and the 1-based
 * @p attempt drive chaos injection inside the child. @p fp is the
 * job's fingerprint (chaos victim selection key).
 *
 * The child's compute time crosses the pipe, so Ok outcomes carry the
 * same seconds/simulatedInsts accounting as in-process computeJob().
 */
WorkerResult runIsolated(const SweepJob &job, const Fingerprint &fp,
                         double timeout_seconds,
                         const SweepFaultPlan *plan = nullptr,
                         int attempt = 1);

} // namespace mop::sweep

#endif // MOP_SWEEP_SANDBOX_HH
