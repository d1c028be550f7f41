#include "obs/telemetry.hh"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace mop::obs
{

namespace
{

/** See injectTelemetryShortWriteForTest(). Not atomic: the hook is a
 *  test-only toggle flipped before single-threaded flush() calls. */
bool gInjectShortWrite = false;

} // namespace

void
injectTelemetryShortWriteForTest(bool enable)
{
    gInjectShortWrite = enable;
}

std::string
promEscapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

TelemetrySink::TelemetrySink(std::string path, int workers)
    : path_(std::move(path)), workers_(workers < 1 ? 1 : workers)
{
}

void
TelemetrySink::beginBatch(uint64_t total_runs, uint64_t cache_hits)
{
    std::lock_guard<std::mutex> lk(mu_);
    totalRuns_ = total_runs;
    cacheHits_ = cache_hits;
    completedRuns_ = 0;
    simulatedInsts_ = 0;
    busySeconds_ = 0;
    cacheCorrupt_ = 0;
    cacheEvictions_ = 0;
    start_ = Clock::now();
    flushedOnce_ = false;
}

void
TelemetrySink::setBatchLabel(std::string label)
{
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = std::move(label);
}

void
TelemetrySink::setCacheHealth(uint64_t corrupt, uint64_t evictions)
{
    std::lock_guard<std::mutex> lk(mu_);
    cacheCorrupt_ = corrupt;
    cacheEvictions_ = evictions;
}

void
TelemetrySink::onRunCompleted(double seconds, uint64_t insts)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++completedRuns_;
    busySeconds_ += seconds;
    simulatedInsts_ += insts;
}

TelemetrySink::Snapshot
TelemetrySink::snapshotLocked() const
{
    Snapshot s;
    s.batch = batch_;
    s.totalRuns = totalRuns_;
    s.completedRuns = completedRuns_;
    s.cacheHits = cacheHits_;
    uint64_t done = completedRuns_ + cacheHits_;
    s.queuedRuns = totalRuns_ > done ? totalRuns_ - done : 0;
    s.simulatedInsts = simulatedInsts_;
    s.cacheCorrupt = cacheCorrupt_;
    s.cacheEvictions = cacheEvictions_;
    s.workers = workers_;
    s.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    s.busySeconds = busySeconds_;
    double span = s.elapsedSeconds * double(workers_);
    s.utilization = span > 0 ? busySeconds_ / span : 0;
    if (s.utilization > 1)
        s.utilization = 1;
    if (completedRuns_ > 0 && s.queuedRuns > 0) {
        double meanRun = busySeconds_ / double(completedRuns_);
        s.etaSeconds = double(s.queuedRuns) * meanRun / double(workers_);
    }
    return s;
}

TelemetrySink::Snapshot
TelemetrySink::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return snapshotLocked();
}

std::string
renderPrometheus(const TelemetrySink::Snapshot &s)
{
    std::ostringstream os;
    // No-label batches keep the bare `name value` series the
    // existing consumers (and golden tests) expect.
    const std::string labels =
        s.batch.empty()
            ? std::string()
            : "{batch=\"" + promEscapeLabelValue(s.batch) + "\"}";
    // Counts stream as exact integers; only the seconds and the
    // utilization are doubles (default 6-significant-digit text).
    auto series = [&os, &labels](const char *name, const char *type,
                                 const char *help, auto v) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " " << type << "\n"
           << name << labels << " " << v << "\n";
    };
    series("mop_sweep_runs_total", "gauge", "Jobs in the sweep batch.",
           s.totalRuns);
    series("mop_sweep_runs_completed", "gauge",
           "Jobs simulated to completion.", s.completedRuns);
    series("mop_sweep_runs_cached", "gauge",
           "Jobs satisfied by the result cache.", s.cacheHits);
    series("mop_sweep_runs_queued", "gauge", "Jobs not yet finished.",
           s.queuedRuns);
    series("mop_sweep_workers", "gauge", "Executor worker threads.",
           s.workers);
    series("mop_sweep_elapsed_seconds", "gauge",
           "Wall time since batch start.", s.elapsedSeconds);
    series("mop_sweep_busy_seconds", "gauge", "Summed per-run worker time.",
           s.busySeconds);
    series("mop_sweep_worker_utilization", "gauge",
           "busy_seconds / (elapsed * workers), 0-1.", s.utilization);
    series("mop_sweep_eta_seconds", "gauge",
           "Estimated seconds until the batch drains.", s.etaSeconds);
    series("mop_sweep_simulated_insts_total", "gauge",
           "Instructions simulated so far.", s.simulatedInsts);
    series("mop_sweep_cache_corrupt_total", "counter",
           "Damaged cache records detected and quarantined.",
           s.cacheCorrupt);
    series("mop_sweep_cache_evictions_total", "counter",
           "Cache records evicted by the size budget.", s.cacheEvictions);
    return os.str();
}

std::string
renderProgressLine(const TelemetrySink::Snapshot &s)
{
    uint64_t done = s.completedRuns + s.cacheHits;
    char buf[160];
    if (s.queuedRuns > 0 && s.etaSeconds > 0) {
        std::snprintf(buf, sizeof buf,
                      "runs %llu/%llu (%llu cached, %llu queued) | "
                      "workers %d @ %3.0f%% | eta %.0fs",
                      (unsigned long long)done,
                      (unsigned long long)s.totalRuns,
                      (unsigned long long)s.cacheHits,
                      (unsigned long long)s.queuedRuns, s.workers,
                      100.0 * s.utilization, std::ceil(s.etaSeconds));
    } else {
        std::snprintf(buf, sizeof buf,
                      "runs %llu/%llu (%llu cached, %llu queued) | "
                      "workers %d @ %3.0f%%",
                      (unsigned long long)done,
                      (unsigned long long)s.totalRuns,
                      (unsigned long long)s.cacheHits,
                      (unsigned long long)s.queuedRuns, s.workers,
                      100.0 * s.utilization);
    }
    return buf;
}

std::string
TelemetrySink::prometheusText() const
{
    return renderPrometheus(snapshot());
}

std::string
TelemetrySink::progressLine() const
{
    return renderProgressLine(snapshot());
}

void
TelemetrySink::flush()
{
    Snapshot s;
    std::string path;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (path_.empty())
            return;
        s = snapshotLocked();
        path = path_;
        lastFlush_ = Clock::now();
        flushedOnce_ = true;
    }
    const std::string text = renderPrometheus(s);
    const std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write telemetry: " + tmp);
    // A short write or a failed close means the temp file does not
    // hold a complete snapshot: never rename it into place -- a
    // half-written exposition would be served as truth by whatever
    // scrapes the published path.
    size_t wrote = std::fwrite(text.data(), 1, text.size(), f);
    if (gInjectShortWrite)
        wrote = wrote / 2;
    if (wrote != text.size()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        throw std::runtime_error("short write to telemetry: " + tmp);
    }
    if (std::fclose(f) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot finish telemetry: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot publish telemetry: " + path);
    }
}

void
TelemetrySink::maybeFlush(double min_interval_s)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (path_.empty())
            return;
        if (flushedOnce_) {
            double since = std::chrono::duration<double>(Clock::now() -
                                                         lastFlush_)
                               .count();
            if (since < min_interval_s)
                return;
        }
    }
    flush();
}

} // namespace mop::obs
