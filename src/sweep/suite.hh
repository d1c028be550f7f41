/**
 * @file
 * The figure/table suite: one driver for every harness.
 *
 * A figure registers a name, a one-line title and a render function
 * written against Context. The driver runs each selected figure's
 * render twice:
 *
 *   1. Plan pass, output discarded: every Context::run() /
 *      distance() / grouping() call records its job (deduplicated by
 *      fingerprint across all figures) and returns a zeroed result.
 *      Figure bodies request a fixed set of runs regardless of result
 *      values, so the plan enumerates exactly the work the render
 *      needs without duplicating the enumeration in a second place.
 *   2. After the deduplicated misses are resolved -- persistent cache
 *      first, then the thread-pool executor -- a render pass replays
 *      the same calls against the resolved results and prints the
 *      table.
 *
 * Because results are resolved per-fingerprint and rendering is
 * serial in registration order, `mopsuite --jobs N` output is
 * byte-identical to a `--jobs 1` run of the same selection.
 */

#ifndef MOP_SWEEP_SUITE_HH
#define MOP_SWEEP_SUITE_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/cli_opts.hh"
#include "sweep/executor.hh"
#include "sweep/result_cache.hh"

namespace mop::sweep
{

struct SuiteOptions;
int runSuite(const SuiteOptions &opts, std::ostream &out);

/** Figure-side handle for requesting runs; see file comment. */
class Context
{
  public:
    /** Simulate @p bench under @p cfg (budget: insts()). */
    pipeline::SimResult run(const std::string &bench,
                            const sim::RunConfig &cfg);

    /** Base-machine IPC used for normalization. */
    double baseIpc(const std::string &bench, int iq_entries);

    /** Figure 6 / Figure 7 machine-independent characterizations. */
    analysis::DistanceResult distance(const std::string &bench);
    analysis::GroupingResult grouping(const std::string &bench,
                                      int max_mop_size);

    /** Per-run instruction budget (fixed at suite start). */
    uint64_t insts() const { return insts_; }

  private:
    friend int runSuite(const SuiteOptions &opts, std::ostream &out);
    enum class Mode { Plan, Render };

    const CacheRecord &resolve(const SweepJob &job,
                               const Fingerprint &fp);

    Mode mode_ = Mode::Plan;
    uint64_t insts_ = 0;
    /** Sweep-wide wrong-path overlay (--wrong-path[=depth]): applied
     *  to every figure-requested RunConfig before fingerprinting, so
     *  enabled sweeps key (and cache) separately while the default
     *  sweep's keys stay untouched. */
    bool wrongPath_ = false;
    int wrongPathDepth_ = 64;
    std::map<Fingerprint, size_t> *jobIndex_ = nullptr;  // fp -> jobs_[i]
    std::vector<SweepJob> *jobs_ = nullptr;
    const std::map<Fingerprint, CacheRecord> *results_ = nullptr;
    std::vector<Fingerprint> *touched_ = nullptr;  // per-figure uses
};

struct Figure
{
    std::string name;   ///< --only key, e.g. "fig14"
    std::string title;  ///< one line for --list
    std::function<void(Context &, std::ostream &)> render;
};

/** Global figure registry (populated by bench::registerAllFigures). */
class Suite
{
  public:
    static Suite &instance();
    void add(Figure f);
    const std::vector<Figure> &figures() const { return figures_; }
    const Figure *find(const std::string &name) const;

  private:
    std::vector<Figure> figures_;
};

struct SuiteOptions
{
    int jobs = 0;  ///< worker threads; 0 = hardware_concurrency()
    std::vector<std::string> only;  ///< empty = all figures
    std::string jsonPath;           ///< results JSON ("" = none)
    std::string perfJsonPath;       ///< perf JSON ("" = none)
    /** Time the compute phase this many times (--repeat): passes
     *  1..N-1 discard results, the final pass persists; the perf JSON
     *  reports the per-pass insts/s samples with median and spread. */
    int repeat = 1;
    /** Perf trajectory file for --perf-gate / --perf-pin. */
    std::string perfBaselinePath = "BENCH_core.json";
    /** Fail (exit 4) when the measured insts/s median falls more than
     *  this % below the last pinned trajectory entry; < 0 = off. */
    double perfGatePct = -1;
    /** Append this run's median to the trajectory under this label
     *  ("" = don't pin). */
    std::string perfPinLabel;
    std::string cacheDir;           ///< "" = ResultCache::defaultDir()
    bool useCache = true;
    uint64_t insts = 0;  ///< 0 = MOP_INSTS env or 200k default
    bool verbose = false;  ///< progress lines on stderr
    /** Prometheus-style telemetry text file, rewritten atomically as
     *  runs complete ("" = off). */
    std::string telemetryPath;
    /** Single updating TTY progress line on stderr (replaces the
     *  per-run verbose lines). */
    bool progress = false;
    /** Write the self-contained sweep-dashboard HTML here after the
     *  render pass ("" = off). Pulls the perf trajectory from
     *  perfBaselinePath and telemetry counters from the live sink. */
    std::string renderDashPath;

    /** Verify every cache record (CRC check; damaged and pre-CRC
     *  records are quarantined, and the next sweep recomputes them)
     *  and exit instead of sweeping. */
    bool cacheVerify = false;
    /** Evict least-recently-used cache records beyond this many bytes
     *  after the sweep (0 = no budget). */
    uint64_t cacheMaxBytes = 0;
    /** Run every figure with true wrong-path execution
     *  (--wrong-path[=depth]). Folded into each run's fingerprint
     *  only when enabled, so default sweeps keep their cache keys and
     *  figure bytes. */
    bool wrongPath = false;
    int wrongPathDepth = 64;
};

/** mopsuite's option table; its rows store into @p o, @p list and
 *  @p help. */
std::vector<sim::Opt> suiteOptions(SuiteOptions &o, bool &list, bool &help);

/**
 * CLI driver behind the mopsuite binary. Exit codes: 0 clean, 1
 * runtime failure (a failed job, or corruption found by
 * --cache-verify), 2 usage error (rejected before any work), 4 perf
 * gate. 3 is retired.
 */
int suiteMain(int argc, char **argv);

} // namespace mop::sweep

#endif // MOP_SWEEP_SUITE_HH
