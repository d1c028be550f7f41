#include "sweep/suite.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/render.hh"
#include "sim/cli_opts.hh"
#include "sweep/perf_track.hh"
#include "sweep/supervisor.hh"

namespace mop::sweep
{

namespace
{

/** Per-run budget when neither --insts nor $MOP_INSTS sets one. */
constexpr uint64_t kDefaultInsts = 200000;

/** Discards everything written to it (plan-pass output sink). */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    return ss.str();
}

/**
 * Stand-in record for a quarantined job: every double is NaN (which
 * stats::Table renders as FAILED) and every counter zero, with the
 * full field set present so unpack*() still succeeds and the figure
 * renders with explicit holes instead of aborting.
 */
CacheRecord
poisonRecordFor(JobKind kind)
{
    const double nan = std::nan("");
    switch (kind) {
      case JobKind::Sim: {
        pipeline::SimResult r;
        r.ipc = nan;
        r.avgIqOccupancy = nan;
        return packSimResult(r);
      }
      case JobKind::Distance:
        return packDistance({});
      case JobKind::Grouping:
        return packGrouping({});
    }
    return {};
}

} // namespace

// --- Context -----------------------------------------------------------

const CacheRecord &
Context::resolve(const SweepJob &job, const Fingerprint &fp)
{
    static const CacheRecord kEmpty;
    if (touched_)
        touched_->push_back(fp);
    if (mode_ == Mode::Plan) {
        if (jobIndex_->find(fp) == jobIndex_->end()) {
            jobIndex_->emplace(fp, jobs_->size());
            jobs_->push_back(job);
        }
        return kEmpty;
    }
    auto it = results_->find(fp);
    if (it == results_->end()) {
        if (failed_ && failed_->count(fp)) {
            // Quarantined hole: hand back a poisoned record so the
            // cell prints FAILED (per-kind, cached across calls).
            static std::map<int, CacheRecord> poisons;
            auto [pit, fresh] =
                poisons.try_emplace(int(job.kind), CacheRecord{});
            if (fresh)
                pit->second = poisonRecordFor(job.kind);
            return pit->second;
        }
        throw std::logic_error(
            "sweep: render requested a run the plan pass did not "
            "enumerate (figure body depends on result values?)");
    }
    return it->second;
}

pipeline::SimResult
Context::run(const std::string &bench, const sim::RunConfig &cfg)
{
    sim::RunConfig effective = cfg;
    if (wrongPath_) {
        effective.wrongPath = true;
        effective.wrongPathDepth = wrongPathDepth_;
    }
    SweepJob job;
    job.kind = JobKind::Sim;
    job.bench = bench;
    job.cfg = effective;
    job.insts = insts_;
    Fingerprint fp = fingerprintSim(bench, effective, insts_);
    pipeline::SimResult r;
    unpackSimResult(resolve(job, fp), r);  // plan pass: stays zeroed
    return r;
}

double
Context::baseIpc(const std::string &bench, int iq_entries)
{
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::Base;
    cfg.iqEntries = iq_entries;
    return run(bench, cfg).ipc;
}

analysis::DistanceResult
Context::distance(const std::string &bench)
{
    SweepJob job;
    job.kind = JobKind::Distance;
    job.bench = bench;
    job.insts = insts_;
    Fingerprint fp = fingerprintAnalysis(JobKind::Distance, bench, insts_);
    analysis::DistanceResult r;
    unpackDistance(resolve(job, fp), r);
    return r;
}

analysis::GroupingResult
Context::grouping(const std::string &bench, int max_mop_size)
{
    SweepJob job;
    job.kind = JobKind::Grouping;
    job.bench = bench;
    job.insts = insts_;
    job.maxMopSize = max_mop_size;
    Fingerprint fp = fingerprintAnalysis(JobKind::Grouping, bench, insts_,
                                         max_mop_size);
    analysis::GroupingResult r;
    unpackGrouping(resolve(job, fp), r);
    return r;
}

// --- Suite registry ----------------------------------------------------

Suite &
Suite::instance()
{
    static Suite s;
    return s;
}

void
Suite::add(Figure f)
{
    if (!find(f.name))
        figures_.push_back(std::move(f));
}

const Figure *
Suite::find(const std::string &name) const
{
    for (const auto &f : figures_)
        if (f.name == name)
            return &f;
    return nullptr;
}

// --- Driver ------------------------------------------------------------

namespace
{

struct FigurePerf
{
    std::string name;
    size_t runs = 0;
    size_t cacheHits = 0;
    double computeSeconds = 0;
    double renderSeconds = 0;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reject option combinations that cannot run (a malformed chaos
 *  plan, chaos without --isolate, --repeat with --isolate, a malformed
 *  $MOP_INSTS) before any work; returns the parsed chaos plan. */
SweepFaultPlan
checkOptions(const SuiteOptions &opts)
{
    if (!opts.insts)
        sim::benchInsts(kDefaultInsts);  // throws on a bad $MOP_INSTS
    SweepFaultPlan plan;
    if (!opts.sweepInject.empty()) {
        plan = SweepFaultPlan::parse(opts.sweepInject, opts.sweepSeed);
        if (plan.any() && !opts.isolate)
            throw std::invalid_argument(
                "--sweep-inject requires --isolate (faults fire inside "
                "sandboxed workers)");
    }
    if (opts.repeat > 1 && opts.isolate)
        throw std::invalid_argument(
            "--repeat measures the in-process executor; drop --isolate");
    return plan;
}

} // namespace

int
runSuite(const SuiteOptions &opts, std::ostream &out)
{
    double wall0 = now();

    // --cache-verify: integrity maintenance pass instead of a sweep.
    if (opts.cacheVerify) {
        if (!opts.useCache) {
            std::cerr << "mopsuite: --cache-verify needs the cache "
                         "enabled (drop --no-cache)\n";
            return 2;
        }
        ResultCache cache(opts.cacheDir.empty()
                              ? ResultCache::defaultDir()
                              : opts.cacheDir);
        CacheVerifyStats st = cache.verify();
        uint64_t evicted = opts.cacheMaxBytes
                               ? cache.evictToBudget(opts.cacheMaxBytes)
                               : 0;
        out << "[cache] " << st.checked << " record(s): " << st.ok
            << " ok, " << st.upgraded << " upgraded, " << st.corrupt
            << " corrupt (quarantined), " << evicted << " evicted, "
            << st.bytes << " bytes\n";
        return st.corrupt ? 1 : 0;
    }

    // Chaos plan: enacted inside sandboxed children only.
    const SweepFaultPlan plan = checkOptions(opts);

    // Figure selection, preserving registration order.
    std::vector<const Figure *> selected;
    if (opts.only.empty()) {
        for (const auto &f : Suite::instance().figures())
            selected.push_back(&f);
    } else {
        for (const auto &name : opts.only) {
            const Figure *f = Suite::instance().find(name);
            if (!f) {
                std::cerr << "mopsuite: unknown figure '" << name
                          << "' (see --list)\n";
                return 2;
            }
            selected.push_back(f);
        }
    }

    uint64_t insts =
        opts.insts ? opts.insts : sim::benchInsts(kDefaultInsts);

    // Plan pass: enumerate every run each figure needs, deduplicated
    // across figures by fingerprint.
    std::map<Fingerprint, size_t> jobIndex;
    std::vector<SweepJob> jobs;
    std::vector<std::vector<Fingerprint>> touched(selected.size());
    NullBuf nullbuf;
    std::ostream nullout(&nullbuf);
    for (size_t i = 0; i < selected.size(); ++i) {
        Context ctx;
        ctx.mode_ = Context::Mode::Plan;
        ctx.insts_ = insts;
        ctx.wrongPath_ = opts.wrongPath;
        ctx.wrongPathDepth_ = opts.wrongPathDepth;
        ctx.jobIndex_ = &jobIndex;
        ctx.jobs_ = &jobs;
        ctx.touched_ = &touched[i];
        selected[i]->render(ctx, nullout);
    }

    // Resolve: persistent cache first, then compute.
    ResultCache cache(opts.useCache
                          ? (opts.cacheDir.empty()
                                 ? ResultCache::defaultDir()
                                 : opts.cacheDir)
                          : std::string());

    std::map<Fingerprint, CacheRecord> results;
    std::map<Fingerprint, double> jobSeconds;
    std::set<Fingerprint> cachedFps;
    std::vector<SweepJob> misses;
    std::vector<Fingerprint> missFps;
    std::vector<Fingerprint> jobFps(jobs.size());
    for (const auto &[fp, idx] : jobIndex)
        jobFps[idx] = fp;

    size_t cacheHits = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        CacheRecord rec;
        if (cache.load(jobFps[i], rec)) {
            results.emplace(jobFps[i], std::move(rec));
            cachedFps.insert(jobFps[i]);
            ++cacheHits;
        } else {
            misses.push_back(jobs[i]);
            missFps.push_back(jobFps[i]);
        }
    }

    if (opts.verbose) {
        std::cerr << "[sweep] " << selected.size() << " figure(s), "
                  << jobs.size() << " unique run(s), "
                  << (jobs.size() - misses.size()) << " cached, "
                  << misses.size() << " to compute\n";
    }

    SweepExecutor exec(opts.jobs);
    std::unique_ptr<obs::TelemetrySink> telemetry;
    if (!opts.telemetryPath.empty() || opts.progress ||
        !opts.renderDashPath.empty()) {
        telemetry = std::make_unique<obs::TelemetrySink>(
            opts.telemetryPath, exec.jobs());
        std::string batch;
        for (const auto &name : opts.only)
            batch += (batch.empty() ? "" : ",") + name;
        telemetry->setBatchLabel(opts.only.empty() ? "all" : batch);
        telemetry->beginBatch(jobs.size(), jobs.size() - misses.size());
        telemetry->flush();
    }
    SweepExecutor::ProgressFn progress;
    if (opts.progress) {
        obs::TelemetrySink *sink = telemetry.get();
        progress = [sink](size_t, size_t) {
            std::cerr << "\r[sweep] " << sink->progressLine()
                      << std::flush;
        };
    } else if (opts.verbose) {
        progress = [](size_t done, size_t total) {
            std::cerr << "[sweep] " << done << "/" << total
                      << " runs done\n";
        };
    }

    // One pool for both compute paths; --isolate swaps only the
    // per-job body. The completion hook (invoked serialized, under the
    // pool lock) persists each successful job as it finishes: a killed
    // sweep keeps every finished job in the cache, and a rerun with the
    // same cache computes only what is missing.
    uint64_t simulatedInsts = 0;
    std::map<Fingerprint, FailedJob> failed;

    // Per-pass compute-phase throughput samples (simulated insts per
    // wall second). With --repeat N the first N-1 passes only time the
    // work and discard the results; the final pass is the one that
    // persists, so cache contents are repeat-invariant.
    std::vector<double> ipsSamples;
    double computeT0 = now();
    for (int r = 0; r + 1 < opts.repeat; ++r) {
        uint64_t passInsts = 0;
        exec.setCompletion([&](size_t, const SweepOutcome &o) {
            passInsts += o.simulatedInsts;
        });
        double t0 = now();
        exec.runAll(misses);
        double w = now() - t0;
        if (w > 0 && passInsts)
            ipsSamples.push_back(double(passInsts) / w);
        if (opts.verbose)
            std::cerr << "[sweep] timing pass " << (r + 1) << "/"
                      << opts.repeat << ": "
                      << uint64_t(w > 0 ? double(passInsts) / w : 0)
                      << " insts/s\n";
        computeT0 = now();
    }
    exec.setTelemetry(telemetry.get());
    exec.setCompletion([&](size_t k, const SweepOutcome &o) {
        cache.store(missFps[k], o.record);
        jobSeconds[missFps[k]] = o.seconds;
        simulatedInsts += o.simulatedInsts;
        results.emplace(missFps[k], o.record);
    });
    if (!opts.isolate) {
        exec.runAll(misses, progress);
    } else {
        SupervisorOptions sopts;
        sopts.jobTimeoutSeconds =
            opts.jobTimeout > 0 ? opts.jobTimeout
                                : 10.0 + double(insts) / 10000.0;
        sopts.retry.maxAttempts = opts.maxAttempts;
        if (plan.any())
            sopts.plan = &plan;
        std::vector<JobReport> reports = exec.run(
            misses.size(),
            [&](size_t k) {
                return superviseJob(misses[k], missFps[k], sopts,
                                    telemetry.get());
            },
            progress);
        for (size_t k = 0; k < reports.size(); ++k)
            if (!reports[k].ok)
                failed.emplace(missFps[k], reports[k].failure);
    }
    {
        double w = now() - computeT0;
        if (w > 0 && simulatedInsts)
            ipsSamples.push_back(double(simulatedInsts) / w);
    }
    if (opts.cacheMaxBytes)
        cache.evictToBudget(opts.cacheMaxBytes);
    if (telemetry) {
        telemetry->setCacheHealth(cache.corrupt(), cache.evictions());
        telemetry->flush();
        if (opts.progress)
            std::cerr << "\r[sweep] " << telemetry->progressLine()
                      << "\n";
    }

    // Render pass, serial in selection order: byte-identical for any
    // --jobs by construction.
    std::vector<FigurePerf> perf(selected.size());
    std::vector<std::string> rendered(selected.size());
    std::set<Fingerprint> attributed;
    for (size_t i = 0; i < selected.size(); ++i) {
        Context ctx;
        ctx.mode_ = Context::Mode::Render;
        ctx.insts_ = insts;
        ctx.wrongPath_ = opts.wrongPath;
        ctx.wrongPathDepth_ = opts.wrongPathDepth;
        ctx.results_ = &results;
        ctx.failed_ = &failed;
        double t0 = now();
        std::ostringstream body;
        selected[i]->render(ctx, body);
        rendered[i] = body.str();
        out << rendered[i];

        // Explicit per-figure note for every quarantined run the body
        // touched: holes are never silent.
        std::set<Fingerprint> noted;
        for (const Fingerprint &fp : touched[i]) {
            auto fit = failed.find(fp);
            if (fit == failed.end() || !noted.insert(fp).second)
                continue;
            const FailedJob &f = fit->second;
            out << "[FAILED] " << selected[i]->name << ": "
                << describeJob(jobs[jobIndex.at(fp)]) << ": "
                << failureKindName(f.kind);
            if (f.signal)
                out << " (signal " << f.signal << ")";
            out << " after " << f.attempts << " attempt(s)";
            if (!f.message.empty())
                out << ": " << f.message;
            out << "\n";
        }

        FigurePerf &p = perf[i];
        p.name = selected[i]->name;
        std::set<Fingerprint> uniq(touched[i].begin(), touched[i].end());
        p.runs = uniq.size();
        for (const Fingerprint &fp : uniq) {
            if (cachedFps.count(fp))
                ++p.cacheHits;
            // Attribute each computed job to the first figure using it.
            else if (attributed.insert(fp).second)
                p.computeSeconds += jobSeconds[fp];
        }
        p.renderSeconds = now() - t0;
    }

    double wallSeconds = now() - wall0;

    // Aggregate IPC per machine configuration over the unique runs.
    std::map<std::string, std::pair<double, size_t>> machineIpc;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kind != JobKind::Sim)
            continue;
        auto rit = results.find(jobFps[i]);  // absent for quarantined
        pipeline::SimResult r;
        if (rit == results.end() || !unpackSimResult(rit->second, r))
            continue;
        auto &[sum, n] = machineIpc[sim::machineName(jobs[i].cfg.machine)];
        sum += r.ipc;
        ++n;
    }

    double ipsMedian = medianOf(ipsSamples);
    if (!opts.perfJsonPath.empty()) {
        std::ofstream jf(opts.perfJsonPath, std::ios::trunc);
        jf << "{\n"
           << "  \"schema\": \"mop-sweep-perf-3\",\n"
           << "  \"sim_version\": \"" << jsonEscape(kSimVersion)
           << "\",\n"
           << "  \"jobs\": " << exec.jobs() << ",\n"
           << "  \"insts_per_run\": " << insts << ",\n"
           << "  \"wall_seconds\": " << jsonNum(wallSeconds) << ",\n"
           << "  \"unique_runs\": " << jobs.size() << ",\n"
           << "  \"cache_hits\": " << cacheHits << ",\n"
           << "  \"quarantined\": " << failed.size() << ",\n"
           << "  \"computed_runs\": " << misses.size() << ",\n"
           << "  \"simulated_insts\": " << simulatedInsts << ",\n"
           << "  \"simulated_insts_per_second\": "
           << jsonNum(wallSeconds > 0 ? double(simulatedInsts) /
                                            wallSeconds
                                      : 0)
           << ",\n"
           << "  \"repeats\": " << opts.repeat << ",\n"
           << "  \"ips_samples\": [";
        for (size_t i = 0; i < ipsSamples.size(); ++i)
            jf << (i ? ", " : "") << jsonNum(ipsSamples[i]);
        jf << "],\n"
           << "  \"ips_median\": " << jsonNum(ipsMedian) << ",\n"
           << "  \"ips_min\": "
           << jsonNum(ipsSamples.empty()
                          ? 0
                          : *std::min_element(ipsSamples.begin(),
                                              ipsSamples.end()))
           << ",\n"
           << "  \"ips_max\": "
           << jsonNum(ipsSamples.empty()
                          ? 0
                          : *std::max_element(ipsSamples.begin(),
                                              ipsSamples.end()))
           << ",\n"
           << "  \"aggregate_ipc\": {";
        bool first = true;
        for (const auto &[name, acc] : machineIpc) {
            jf << (first ? "" : ", ") << "\"" << jsonEscape(name)
               << "\": " << jsonNum(acc.first / double(acc.second));
            first = false;
        }
        jf << "},\n  \"figures\": [\n";
        for (size_t i = 0; i < perf.size(); ++i) {
            jf << "    {\"name\": \"" << jsonEscape(perf[i].name)
               << "\", \"runs\": " << perf[i].runs
               << ", \"cache_hits\": " << perf[i].cacheHits
               << ", \"compute_seconds\": "
               << jsonNum(perf[i].computeSeconds)
               << ", \"render_seconds\": "
               << jsonNum(perf[i].renderSeconds) << "}"
               << (i + 1 < perf.size() ? "," : "") << "\n";
        }
        jf << "  ]\n}\n";
    }

    if (!opts.jsonPath.empty()) {
        std::ofstream jf(opts.jsonPath, std::ios::trunc);
        jf << "{\n"
           << "  \"schema\": \"mop-sweep-results-1\",\n"
           << "  \"sim_version\": \"" << jsonEscape(kSimVersion)
           << "\",\n"
           << "  \"insts_per_run\": " << insts << ",\n"
           << "  \"figures\": [\n";
        for (size_t i = 0; i < selected.size(); ++i) {
            jf << "    {\"name\": \"" << jsonEscape(selected[i]->name)
               << "\", \"title\": \"" << jsonEscape(selected[i]->title)
               << "\", \"output\": \"" << jsonEscape(rendered[i])
               << "\"}" << (i + 1 < selected.size() ? "," : "") << "\n";
        }
        jf << "  ],\n  \"runs\": [\n";
        size_t emitted = 0, simJobs = 0;
        for (const auto &job : jobs)
            simJobs += job.kind == JobKind::Sim;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const SweepJob &job = jobs[i];
            if (job.kind != JobKind::Sim)
                continue;
            pipeline::SimResult r;
            bool hole = failed.count(jobFps[i]) != 0;
            if (auto rit = results.find(jobFps[i]);
                rit != results.end())
                unpackSimResult(rit->second, r);
            const sim::RunConfig &c = job.cfg;
            jf << "    {\"fingerprint\": \"" << jobFps[i].hex()
               << "\", \"bench\": \"" << jsonEscape(job.bench)
               << "\", \"machine\": \""
               << jsonEscape(sim::machineName(c.machine))
               << "\", \"iq\": " << c.iqEntries
               << ", \"extra_stages\": " << c.extraStages
               << ", \"mop_size\": " << c.mopSize
               << ", \"sched_depth\": " << c.schedDepth
               << ", \"cached\": " << (cachedFps.count(jobFps[i]) != 0);
            // Quarantined holes are marked instead of faking numbers;
            // clean runs keep the exact field set (and bytes) of old.
            if (hole)
                jf << ", \"failed\": true";
            jf << ", \"ipc\": " << jsonNum(r.ipc)
               << ", \"cycles\": " << r.cycles
               << ", \"insts\": " << r.insts << "}"
               << (++emitted < simJobs ? "," : "") << "\n";
        }
        jf << "  ]\n}\n";
    }

    if (opts.verbose) {
        std::cerr << "[sweep] done in " << jsonNum(wallSeconds)
                  << "s (" << misses.size() << " computed, "
                  << (jobs.size() - misses.size()) << " cached)\n";
    }

    // Perf trajectory: gate against the last pinned entry first, then
    // (optionally) pin this measurement as the new trajectory point.
    bool gateFailed = false;
    if (opts.perfGatePct >= 0) {
        if (ipsSamples.empty()) {
            std::cerr << "mopsuite: --perf-gate needs computed runs to "
                         "measure; rerun with --no-cache\n";
            return 2;
        }
        std::string msg;
        gateFailed = !gatePerf(opts.perfBaselinePath, ipsMedian,
                               opts.perfGatePct, msg);
        std::cerr << "mopsuite: " << msg << "\n";
    }
    if (!opts.perfPinLabel.empty()) {
        if (ipsSamples.empty()) {
            std::cerr << "mopsuite: --perf-pin needs computed runs to "
                         "measure; rerun with --no-cache\n";
            return 2;
        }
        PerfEntry e;
        e.label = opts.perfPinLabel;
        e.simVersion = kSimVersion;
        e.jobs = exec.jobs();
        e.instsPerRun = insts;
        e.repeats = opts.repeat;
        e.ipsMedian = ipsMedian;
        e.ipsMin = *std::min_element(ipsSamples.begin(), ipsSamples.end());
        e.ipsMax = *std::max_element(ipsSamples.begin(), ipsSamples.end());
        if (!appendPerfEntry(opts.perfBaselinePath, e)) {
            std::cerr << "mopsuite: cannot write trajectory to "
                      << opts.perfBaselinePath << "\n";
            return 2;
        }
        std::cerr << "mopsuite: pinned \"" << e.label << "\" ("
                  << uint64_t(e.ipsMedian) << " insts/s median of "
                  << ipsSamples.size() << ") to "
                  << opts.perfBaselinePath << "\n";
    }

    // Sweep dashboard, after gating/pinning so a --perf-pin from this
    // same invocation already appears in the trajectory chart.
    if (!opts.renderDashPath.empty()) {
        obs::DashModel dm;
        dm.simVersion = kSimVersion;
        dm.jobs = exec.jobs();
        dm.instsPerRun = insts;
        dm.uniqueRuns = jobs.size();
        dm.cacheHits = cacheHits;
        dm.computedRuns = misses.size();
        dm.quarantined = failed.size();
        dm.simulatedInsts = simulatedInsts;
        dm.wallSeconds = wallSeconds;
        for (size_t i = 0; i < perf.size(); ++i)
            dm.figures.push_back({perf[i].name, selected[i]->title,
                                  perf[i].runs, perf[i].cacheHits,
                                  perf[i].computeSeconds,
                                  perf[i].renderSeconds});
        for (const auto &[name, acc] : machineIpc)
            dm.machineIpc.emplace_back(name,
                                       acc.first / double(acc.second));
        for (const PerfEntry &e : readPerfEntries(opts.perfBaselinePath))
            dm.trajectory.push_back(
                {e.label, e.simVersion, e.ipsMedian, e.ipsMin, e.ipsMax});
        if (telemetry) {
            dm.hasTelemetry = true;
            dm.telemetry = telemetry->snapshot();
        }
        std::string html = obs::renderDashHtml(dm);
        std::ofstream df(opts.renderDashPath,
                         std::ios::trunc | std::ios::binary);
        df.write(html.data(), std::streamsize(html.size()));
        df.close();
        if (!df) {
            std::cerr << "mopsuite: cannot write dashboard to "
                      << opts.renderDashPath << "\n";
            return 2;
        }
        std::cerr << "mopsuite: dashboard (" << html.size()
                  << " bytes) -> " << opts.renderDashPath << "\n";
    }

    if (!failed.empty()) {
        std::cerr << "mopsuite: " << failed.size()
                  << " run(s) quarantined; tables contain FAILED "
                     "cells\n";
        return 3;  // partial results rendered, holes explicit
    }
    return gateFailed ? 4 : 0;
}

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: mopsuite [options]\n"
          "  --jobs N        worker threads (default: all cores)\n"
          "  --only A[,B]    run only the named figures (repeatable)\n"
          "  --list          list registered figures and exit\n"
          "  --insts N       per-run instruction budget "
          "(default: $MOP_INSTS or 200000)\n"
          "  --json PATH     write figure outputs + per-run results\n"
          "  --perf PATH     write sweep perf metrics "
          "(default: BENCH_sweep.json)\n"
          "  --repeat N      time the compute phase N times (median +\n"
          "                  spread land in the perf JSON; the final\n"
          "                  pass is the one that persists results)\n"
          "  --perf-baseline PATH\n"
          "                  perf trajectory file for --perf-gate /\n"
          "                  --perf-pin (default: BENCH_core.json)\n"
          "  --perf-gate PCT fail (exit 4) when this run's insts/s\n"
          "                  median is more than PCT% below the last\n"
          "                  pinned trajectory entry\n"
          "  --perf-pin LABEL\n"
          "                  append this run's median to the perf\n"
          "                  trajectory under LABEL\n"
          "  --cache-dir D   persistent result cache directory\n"
          "                  (default: $MOP_CACHE_DIR or "
          "~/.cache/mopsim)\n"
          "  --no-cache      disable the persistent result cache\n"
          "  --quiet         suppress progress lines on stderr\n"
          "  --progress      single updating progress line on stderr\n"
          "                  (runs done/queued, cache hits, worker\n"
          "                  utilization, ETA)\n"
          "  --telemetry F   write live batch telemetry to F as a\n"
          "                  Prometheus-style text file (rewritten\n"
          "                  atomically as runs complete)\n"
          "  --render-dash F write a self-contained sweep-dashboard\n"
          "                  HTML to F after the render pass (stat\n"
          "                  tiles, perf trajectory, per-machine IPC,\n"
          "                  per-figure cost, telemetry counters)\n"
          "  --isolate       compute each uncached run in a forked,\n"
          "                  watchdogged child: a crash/hang/OOM is a\n"
          "                  retried-then-quarantined FAILED cell, not\n"
          "                  a dead sweep (exit 3 marks partial tables)\n"
          "  --job-timeout S per-run wall-clock deadline with --isolate\n"
          "                  (default: derived from --insts)\n"
          "  --max-attempts N  tries per run before quarantine "
          "(default 3)\n"
          "  --cache-verify  CRC-check every cache record (quarantine\n"
          "                  damage, upgrade v1) and exit\n"
          "  --cache-max-bytes N\n"
          "                  evict least-recently-used cache records\n"
          "                  beyond N bytes after the sweep\n"
          "  --sweep-inject KIND[:RATE[:ATTEMPTS]][,...]\n"
          "                  chaos testing (requires --isolate): inject\n"
          "                  crash|hang|corrupt-record|short-write\n"
          "                  faults into workers, deterministically by\n"
          "                  (--sweep-seed, run fingerprint)\n"
          "  --sweep-seed N  chaos victim-selection seed (default 1)\n"
          "  --wrong-path[=N]\n"
          "                  run every figure with true wrong-path\n"
          "                  execution (N µops per mispredict episode,\n"
          "                  default 64); enabled sweeps get their own\n"
          "                  cache keys, default sweeps are untouched\n";
}

/** Flag parsing for suiteMain; throws std::invalid_argument on a
 *  malformed value. Returns an exit code >= 0 when parsing already
 *  finished the program. */
int
parseArgs(int argc, char **argv, SuiteOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(std::string(what) +
                                            " requires a value");
            return argv[++i];
        };
        if (a == "--jobs") {
            opts.jobs =
                int(sim::parseIntOption("--jobs", value("--jobs"), 1, 256));
        } else if (a == "--only") {
            std::stringstream ss(value("--only"));
            std::string tok;
            const size_t named = opts.only.size();
            while (std::getline(ss, tok, ','))
                if (!tok.empty())
                    opts.only.push_back(tok);
            if (opts.only.size() == named)
                throw std::invalid_argument(
                    "--only names no figure (see --list)");
        } else if (a == "--insts") {
            opts.insts = sim::parseUintOption("--insts", value("--insts"),
                                              1, uint64_t(1) << 40);
        } else if (a == "--json") {
            opts.jsonPath = value("--json");
        } else if (a == "--perf") {
            opts.perfJsonPath = value("--perf");
        } else if (a == "--repeat") {
            opts.repeat = int(
                sim::parseIntOption("--repeat", value("--repeat"), 1, 100));
        } else if (a == "--perf-baseline") {
            opts.perfBaselinePath = value("--perf-baseline");
        } else if (a == "--perf-gate") {
            opts.perfGatePct = double(sim::parseUintOption(
                "--perf-gate", value("--perf-gate"), 0, 100));
        } else if (a == "--perf-pin") {
            opts.perfPinLabel = value("--perf-pin");
        } else if (a == "--cache-dir") {
            opts.cacheDir = value("--cache-dir");
        } else if (a == "--no-cache") {
            opts.useCache = false;
        } else if (a == "--telemetry") {
            opts.telemetryPath = value("--telemetry");
        } else if (a == "--render-dash") {
            opts.renderDashPath = value("--render-dash");
        } else if (a == "--isolate") {
            opts.isolate = true;
        } else if (a == "--job-timeout") {
            opts.jobTimeout = double(sim::parseUintOption(
                "--job-timeout", value("--job-timeout"), 1, 86400));
        } else if (a == "--max-attempts") {
            opts.maxAttempts = int(sim::parseIntOption(
                "--max-attempts", value("--max-attempts"), 1, 100));
        } else if (a == "--cache-verify") {
            opts.cacheVerify = true;
        } else if (a == "--cache-max-bytes") {
            opts.cacheMaxBytes = sim::parseUintOption(
                "--cache-max-bytes", value("--cache-max-bytes"), 1,
                uint64_t(1) << 50);
        } else if (a == "--sweep-inject") {
            opts.sweepInject = value("--sweep-inject");
        } else if (a == "--sweep-seed") {
            opts.sweepSeed = sim::parseUintOption(
                "--sweep-seed", value("--sweep-seed"), 0,
                ~uint64_t(0) >> 1);
        } else if (a == "--wrong-path") {
            opts.wrongPath = true;
        } else if (a.rfind("--wrong-path=", 0) == 0) {
            opts.wrongPath = true;
            opts.wrongPathDepth = int(sim::parseIntOption(
                "--wrong-path", a.substr(13), 1, 4096));
        } else if (a == "--progress") {
            opts.progress = true;
        } else if (a == "--quiet") {
            opts.verbose = false;
        } else if (a == "--verbose") {
            opts.verbose = true;
        } else if (a == "--list") {
            for (const auto &f : Suite::instance().figures())
                std::cout << f.name << "\t" << f.title << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "mopsuite: unknown option '" << a << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    return -1;
}

} // namespace

int
suiteMain(int argc, char **argv)
{
    SuiteOptions opts;
    opts.perfJsonPath = "BENCH_sweep.json";
    opts.verbose = true;
    try {
        int done = parseArgs(argc, argv, opts);
        if (done >= 0)
            return done;
        checkOptions(opts);
    } catch (const std::exception &e) {
        std::cerr << "mopsuite: " << e.what() << "\n";
        return 2;
    }
    try {
        return runSuite(opts, std::cout);
    } catch (const std::exception &e) {
        std::cerr << "mopsuite: " << e.what() << "\n";
        return 1;
    }
}

} // namespace mop::sweep
