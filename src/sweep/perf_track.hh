/**
 * @file
 * Per-PR simulator-throughput trajectory (BENCH_core.json).
 *
 * `mopsuite --perf` measures one sweep; this module turns those
 * measurements into a durable trajectory the repository carries
 * forward: each pinned entry records the median-of-N simulated
 * insts/s (with min/max spread) for one revision, and the CI perf
 * gate compares a fresh measurement against the most recent pin.
 *
 * The file is append-only by construction — pinning never rewrites
 * earlier entries, so the history of every PR's throughput survives
 * in one committed artifact:
 *
 *   {
 *     "schema": "mop-core-perf-1",
 *     "entries": [
 *       {"label": "...", "sim_version": "...", "jobs": 1, ...},
 *       ...
 *     ]
 *   }
 *
 * Entries are written one per line so the reader here can stay a
 * line-oriented scanner instead of a JSON parser; re-pin via
 * `mopsuite --perf-pin` rather than editing by hand (DESIGN.md).
 */

#ifndef MOP_SWEEP_PERF_TRACK_HH
#define MOP_SWEEP_PERF_TRACK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mop::sweep
{

/** One pinned trajectory point (one PR / revision). */
struct PerfEntry
{
    std::string label;       ///< e.g. "pr7-soa-cycle-skip"
    std::string simVersion;  ///< kSimVersion at measurement time
    int jobs = 1;
    uint64_t instsPerRun = 0;
    int repeats = 1;
    double ipsMedian = 0;  ///< simulated insts/s, median over repeats
    double ipsMin = 0;
    double ipsMax = 0;
};

/** Median of @p samples (empty -> 0). */
double medianOf(std::vector<double> samples);

/** Append @p e to the trajectory at @p path, creating the file with
 *  the schema header when absent.
 *  @throws std::runtime_error naming @p path on I/O failure. */
void appendPerfEntry(const std::string &path, const PerfEntry &e);

/** Read the whole trajectory at @p path in file (pin) order; empty
 *  when the file is absent or holds no entries.
 *  @throws std::invalid_argument naming the path and line of the
 *  first malformed entry: a missing or non-numeric field, trailing
 *  text, or a negative or non-finite number. */
std::vector<PerfEntry> readPerfEntries(const std::string &path);

/**
 * Compare a fresh measurement against the last pinned entry:
 * passes when @p measured_median >= (1 - tolerance_pct/100) * pinned
 * median. A missing baseline passes (first PR pins it). @p message
 * always receives a one-line human-readable verdict. Reads the file
 * through readPerfEntries, and throws as it does.
 */
bool gatePerf(const std::string &baseline_path, double measured_median,
              double tolerance_pct, std::string &message);

} // namespace mop::sweep

#endif // MOP_SWEEP_PERF_TRACK_HH
