#include "sweep/suite.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/render.hh"
#include "sim/cli_opts.hh"
#include "sweep/perf_track.hh"

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
    if (it == results_->end())
        throw std::logic_error(
            "sweep: render requested a run the plan pass did not "
            "enumerate (figure body depends on result values?)");
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

/** The rules that link mopsuite's options, checked before any work
 *  (throws std::invalid_argument). */
void
checkOptions(const SuiteOptions &opts)
{
    if (opts.cacheVerify && !opts.useCache)
        throw std::invalid_argument(
            "--cache-verify needs the cache enabled (drop --no-cache)");
    // Cached runs are not timed: a warm cache leaves the gate or pin
    // nothing to measure, a partly warm one only the missing runs.
    if (opts.useCache && (opts.perfGatePct >= 0 || !opts.perfPinLabel.empty()))
        throw std::invalid_argument(
            std::string(opts.perfGatePct >= 0 ? "--perf-gate" : "--perf-pin") +
            " measures computed runs: it needs --no-cache");
    // The trajectory is read before any run: a malformed entry is a
    // usage error, never a gate that passes on a misread number.
    if (opts.perfGatePct >= 0 || !opts.perfPinLabel.empty() ||
        !opts.renderDashPath.empty())
        readPerfEntries(opts.perfBaselinePath);
    if (!opts.insts)
        sim::benchInsts(kDefaultInsts);
}

} // namespace

int
runSuite(const SuiteOptions &opts, std::ostream &out)
{
    double wall0 = now();
    try {
        checkOptions(opts);
    } catch (const std::invalid_argument &e) {
        std::cerr << "mopsuite: " << e.what() << "\n";
        return 2;
    }

    // --cache-verify: integrity maintenance pass instead of a sweep.
    if (opts.cacheVerify) {
        ResultCache cache(opts.cacheDir.empty()
                              ? ResultCache::defaultDir()
                              : opts.cacheDir);
        CacheVerifyStats st = cache.verify();
        uint64_t evicted = opts.cacheMaxBytes
                               ? cache.evictToBudget(opts.cacheMaxBytes)
                               : 0;
        out << "[cache] " << st.checked << " record(s): " << st.ok
            << " ok, " << st.corrupt << " corrupt (quarantined), "
            << evicted << " evicted, " << st.bytes << " bytes\n";
        return st.corrupt ? 1 : 0;
    }

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
    // Only simulation runs are timed: table1 plans no run, and fig6 and
    // fig7 plan characterization runs only.
    if ((opts.perfGatePct >= 0 || !opts.perfPinLabel.empty()) &&
        std::none_of(jobs.begin(), jobs.end(), [](const SweepJob &j) {
            return j.kind == JobKind::Sim;
        })) {
        std::cerr << "mopsuite: "
                  << (opts.perfGatePct >= 0 ? "--perf-gate" : "--perf-pin")
                  << " needs simulation runs to measure; the selected "
                     "figures plan none\n";
        return 2;
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

    // The completion hook (invoked serialized, under the pool lock)
    // persists each successful job as it finishes: a killed or failed
    // sweep keeps every finished job in the cache, and a rerun with
    // the same cache computes only what is missing.
    uint64_t simulatedInsts = 0;

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
    exec.runAll(misses, progress);
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
        double t0 = now();
        std::ostringstream body;
        selected[i]->render(ctx, body);
        rendered[i] = body.str();
        out << rendered[i];

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
        pipeline::SimResult r;
        if (!unpackSimResult(results.at(jobFps[i]), r))
            continue;
        auto &[sum, n] = machineIpc[sim::machineName(jobs[i].cfg.machine)];
        sum += r.ipc;
        ++n;
    }

    double ipsMedian = medianOf(ipsSamples);
    if (!opts.perfJsonPath.empty()) {
        sim::OutputFile file(opts.perfJsonPath);
        std::ostream &jf = file.stream();
        jf << "{\n"
           << "  \"schema\": \"mop-sweep-perf-4\",\n"
           << "  \"sim_version\": \"" << jsonEscape(kSimVersion)
           << "\",\n"
           << "  \"jobs\": " << exec.jobs() << ",\n"
           << "  \"insts_per_run\": " << insts << ",\n"
           << "  \"wall_seconds\": " << jsonNum(wallSeconds) << ",\n"
           << "  \"unique_runs\": " << jobs.size() << ",\n"
           << "  \"cache_hits\": " << cacheHits << ",\n"
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
        file.commit();
    }

    if (!opts.jsonPath.empty()) {
        sim::OutputFile file(opts.jsonPath);
        std::ostream &jf = file.stream();
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
            unpackSimResult(results.at(jobFps[i]), r);
            const sim::RunConfig &c = job.cfg;
            jf << "    {\"fingerprint\": \"" << jobFps[i].hex()
               << "\", \"bench\": \"" << jsonEscape(job.bench)
               << "\", \"machine\": \""
               << jsonEscape(sim::machineName(c.machine))
               << "\", \"iq\": " << c.iqEntries
               << ", \"extra_stages\": " << c.extraStages
               << ", \"mop_size\": " << c.mopSize
               << ", \"sched_depth\": " << c.schedDepth
               << ", \"cached\": " << (cachedFps.count(jobFps[i]) != 0)
               << ", \"ipc\": " << jsonNum(r.ipc)
               << ", \"cycles\": " << r.cycles
               << ", \"insts\": " << r.insts << "}"
               << (++emitted < simJobs ? "," : "") << "\n";
        }
        jf << "  ]\n}\n";
        file.commit();
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
        std::string msg;
        gateFailed = !gatePerf(opts.perfBaselinePath, ipsMedian,
                               opts.perfGatePct, msg);
        std::cerr << "mopsuite: " << msg << "\n";
    }
    if (!opts.perfPinLabel.empty()) {
        PerfEntry e;
        e.label = opts.perfPinLabel;
        e.simVersion = kSimVersion;
        e.jobs = exec.jobs();
        e.instsPerRun = insts;
        e.repeats = opts.repeat;
        e.ipsMedian = ipsMedian;
        e.ipsMin = *std::min_element(ipsSamples.begin(), ipsSamples.end());
        e.ipsMax = *std::max_element(ipsSamples.begin(), ipsSamples.end());
        appendPerfEntry(opts.perfBaselinePath, e);
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
        sim::OutputFile df(opts.renderDashPath);
        df.stream() << html;
        df.commit();
        std::cerr << "mopsuite: dashboard (" << html.size()
                  << " bytes) -> " << opts.renderDashPath << "\n";
    }

    return gateFailed ? 4 : 0;
}

std::vector<sim::Opt>
suiteOptions(SuiteOptions &o, bool &list, bool &help)
{
    using namespace sim;
    return {
        numOpt("--jobs", "N", parseIntOption, 1, 256,
               "worker threads (default: all cores)", into(o.jobs)),
        {"--only", "A[,B]", "run only these figures (repeatable)",
         [&o](const std::string &v) {
             std::stringstream ss(v);
             const size_t named = o.only.size();
             for (std::string tok; std::getline(ss, tok, ',');)
                 if (!tok.empty())
                     o.only.push_back(tok);
             if (o.only.size() == named)
                 throw std::invalid_argument(
                     "--only names no figure (see --list)");
         }},
        switchOpt("--list", "list registered figures and exit", list),
        numOpt("--insts", "N", parseUintOption, 1, kMaxInsts,
               "per-run budget (default: $MOP_INSTS or 200000): a run ends "
               "in the first cycle whose commits reach N (up to 3 more commit)",
               into(o.insts)),
        {"--json", "PATH", "figure outputs and per-run results",
         into(o.jsonPath)},
        {"--perf", "PATH", "sweep perf metrics (BENCH_sweep.json)",
         into(o.perfJsonPath)},
        numOpt("--repeat", "N", parseIntOption, 1, 100,
               "time the compute phase N times", into(o.repeat)),
        {"--perf-baseline", "PATH", "perf trajectory (BENCH_core.json)",
         into(o.perfBaselinePath)},
        numOpt("--perf-gate", "PCT", parseUintOption, 0, 100,
               "exit 4 when insts/s is PCT% under the trajectory; needs "
               "--no-cache",
               into(o.perfGatePct)),
        {"--perf-pin", "LABEL", "pin insts/s as LABEL; needs --no-cache",
         into(o.perfPinLabel)},
        {"--cache-dir", "DIR", "result cache ($MOP_CACHE_DIR, ~/.cache/mopsim)",
         into(o.cacheDir)},
        switchOpt("--no-cache", "no persistent result cache", o.useCache,
                  false),
        switchOpt("--quiet", "no progress lines on stderr", o.verbose, false),
        switchOpt("--verbose", "progress lines on stderr (default)",
                  o.verbose),
        switchOpt("--progress", "one updating progress line", o.progress),
        {"--telemetry", "FILE", "live batch telemetry", into(o.telemetryPath)},
        {"--render-dash", "FILE", "sweep dashboard (HTML)",
         into(o.renderDashPath)},
        switchOpt("--cache-verify", "CRC-check the cache, then exit",
                  o.cacheVerify),
        numOpt("--cache-max-bytes", "N", parseUintOption, 1,
               uint64_t(1) << 50, "evict LRU records beyond N bytes",
               into(o.cacheMaxBytes)),
        numOpt("--wrong-path", "N", parseIntOption, 1, 4096,
               "wrong-path execution, N µops per mispredict (default 64)",
               into(o.wrongPathDepth), [&o] { o.wrongPath = true; }),
        switchOpt("--help", "print this help (also -h)", help),
    };
}

namespace
{

/** suiteMain, before its check of standard output. */
int
runMopsuite(int argc, char **argv)
{
    SuiteOptions opts;
    opts.perfJsonPath = "BENCH_sweep.json";
    opts.verbose = true;
    bool list = false, help = false;
    try {
        const std::vector<sim::Opt> table = suiteOptions(opts, list, help);
        sim::parseArgs(table, argc, argv);
        if (help) {
            std::cout << "usage: mopsuite [options]\n";
            sim::printUsage(std::cout, table);
            return 0;
        }
        if (list) {
            for (const auto &f : Suite::instance().figures())
                std::cout << f.name << "\t" << f.title << "\n";
            return 0;
        }
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

} // namespace

int
suiteMain(int argc, char **argv)
{
    return sim::flushStdout("mopsuite", runMopsuite(argc, argv));
}

} // namespace mop::sweep
