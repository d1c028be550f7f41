/**
 * @file
 * mopbench — the mopsim benchmark driver.
 *
 *   mopbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--insts N] [--out DIR]
 *   mopbench --selftest [--out DIR]
 *
 * Each workload runs as a closed loop (the next run starts when the
 * previous one finishes) for --seconds, checks every run's simulated
 * output, and prints its metrics: human-readable lines first, then one
 * JSON object as the last line of stdout. --trace 0 reports the
 * end-to-end metrics of untraced runs; --trace 1 makes a separate
 * traced run and reports the per-layer metrics. The simulator is
 * driven only through its public library calls. Workloads, metrics,
 * seeds and pins are documented in README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "figures/figures.hh"
#include "layers.hh"
#include "sim/config.hh"
#include "stats/stats.hh"
#include "sweep/fingerprint.hh"
#include "sweep/suite.hh"
#include "trace/profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace fs = std::filesystem;
using namespace mop;
using mopbench::Metrics;
using mopbench::nowNs;
using mopbench::nowSec;
using mopbench::SpanRecorder;

namespace
{

/** Seed reserved for checking later performance claims (README.md);
 *  never used while tuning a change. */
constexpr uint64_t kHeldOutSeed = 7;

/** Set-up-only samples taken before a single-thread closed loop. */
constexpr int kExtraSetups = 20;

struct Workload
{
    const char *name;
    const char *bench;      ///< "" for the suite slice
    sim::Machine machine;
    int iq;
    bool obs;               ///< stall attribution + binary lifecycle trace
    uint64_t insts;         ///< per-run instruction budget
    uint64_t chunk;         ///< instructions per timed chunk
    int tailChunks;         ///< chunks per inst_ns_tail sample
    /** FNV-1a digest of one run's output at seed 0 and the default
     *  budget: SimResult fields + addStats dump, or for the suite slice
     *  the rendered figure text. Re-pin as README.md describes. */
    uint64_t pin;
};

// Run lengths keep the µop count of every stream window well between
// two capacity doublings of the simulator's per-tag vectors, so peak RSS
// does not jump with the seed.
const Workload kWorkloads[] = {
    {"mop-dense", "gzip", sim::Machine::MopWiredOr, 32, false, 1400000,
     10000, 10, 0x92ec5e1dd71f006aULL},
    {"mem-bigiq", "mcf", sim::Machine::Base, 128, false, 1400000, 10000,
     10, 0x19c2e46def5a8a8aULL},
    {"obs-mcf", "mcf", sim::Machine::Base, 32, true, 350000, 5000, 10,
     0x3fd0e496d01903f4ULL},
    {"suite-cold", "", sim::Machine::Base, 0, false, 200000, 0, 0,
     0x2364b3f7a467b8b8ULL},
};

/** The suite slice and its representative run for the traced layers. */
const std::vector<std::string> kSuiteFigures = {"table2", "fig15"};
constexpr int kSuiteJobs = 2;
const char *const kSuiteRepBench = "gzip";
constexpr sim::Machine kSuiteRepMachine = sim::Machine::MopWiredOr;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    uint64_t insts = 0;  ///< 0 = the workload's budget
    std::string out = ".bench_build/mopbench-run";
    bool selftest = false;
};

// ---------------------------------------------------------------------
// Small helpers

uint64_t
fnv1a(const std::string &s, uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t
dirBytes(const fs::path &dir)
{
    uint64_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec)
            break;
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

/**
 * Where in the benchmark's dynamic µop stream a run starts. Seed 0
 * simulates the stream from its first µop (the pinned default); any
 * other seed discards a seed-chosen multiple of 50k µops first, so the
 * core receives a different window of the same calibrated program.
 */
uint64_t
streamOffset(uint64_t seed)
{
    return seed ? (1 + splitmix64(seed) % 63) * 50000 : 0;
}

/** Canonical text of a finished run: every SimResult field plus the
 *  full addStats dump. @p with_skip = false drops the two cycle-skip
 *  fields, which legitimately differ between skip and step runs. */
std::string
resultText(const pipeline::OooCore &core, bool with_skip = true)
{
    const pipeline::SimResult &r = core.result();
    std::ostringstream os;
    os.precision(17);
    os << "cycles " << r.cycles << "\ninsts " << r.insts << "\nuops "
       << r.uops << "\nipc " << r.ipc << "\ngroups";
    for (uint64_t g : r.groupCounts)
        os << " " << g;
    os << "\niqEntriesInserted " << r.iqEntriesInserted
       << "\nuopsInserted " << r.uopsInserted << "\nreplays " << r.replays
       << "\nmispredicts " << r.mispredicts << "\nfilterDeletions "
       << r.filterDeletions << "\navgIqOccupancy " << r.avgIqOccupancy
       << "\nstallWidth " << r.stallWidth << "\nstalls";
    for (uint64_t s : r.stallSlots)
        os << " " << s;
    os << "\n";
    if (with_skip)
        os << "skippedCycles " << r.skippedCycles << "\n";
    stats::StatGroup g("sim");
    core.addStats(g);
    std::ostringstream csv;
    csv.precision(17);
    g.printCsv(csv);
    std::istringstream lines(csv.str());
    for (std::string line; std::getline(lines, line);) {
        if (!with_skip && line.find("skippedCycles") != std::string::npos)
            continue;
        os << line << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// One single-thread simulation run

/** A simulator instance with stable addresses (the core keeps a
 *  reference to its source). */
struct Instance
{
    std::unique_ptr<trace::SyntheticSource> src;
    std::unique_ptr<mopbench::TimedSource> timed;
    std::unique_ptr<pipeline::OooCore> core;
};

/** @p skip µops are generated and discarded before the core is built;
 *  @p skip_s (if given) receives the time that took. */
Instance
buildInstance(const trace::WorkloadProfile &prof,
              pipeline::CoreParams params, SpanRecorder *rec,
              uint64_t skip = 0, double *skip_s = nullptr)
{
    Instance in;
    in.src = std::make_unique<trace::SyntheticSource>(prof);
    double s0 = nowSec();
    isa::MicroOp u;
    for (uint64_t i = 0; i < skip; ++i)
        in.src->next(u);
    if (skip_s)
        *skip_s = nowSec() - s0;
    trace::TraceSource *feed = in.src.get();
    if (rec) {
        in.timed = std::make_unique<mopbench::TimedSource>(*in.src, *rec);
        feed = in.timed.get();
    }
    // As sim::runBenchmark: wrong-path synthesis follows the profile.
    params.wrongPathSeed = trace::wrongPathSeed(prof.seed);
    in.core = std::make_unique<pipeline::OooCore>(params, *feed);
    return in;
}

struct RunSpec
{
    trace::WorkloadProfile prof;
    pipeline::CoreParams params;
    uint64_t insts = 0;
    uint64_t chunk = 0;  ///< 0 = one chunk
    uint64_t skip = 0;   ///< µops discarded first (streamOffset)
    int tailChunks = 1;  ///< chunks per tail sample
    /** Closed-loop runs scale every set-up and chunk time by the probe
     *  timed right after it (see HostProbe); null = raw host time. */
    mopbench::HostProbe *probe = nullptr;
};

struct RunOutcome
{
    double setupS = 0;  ///< source + core construction + first cycle
    double simS = 0;    ///< simulate phase
    double wallS = 0;   ///< setupS + simS
    double meanFactor = 1;  ///< mean host-speed factor (probe runs)
    uint64_t insts = 0;
    uint64_t cycles = 0;
    uint64_t skipped = 0;
    uint64_t steps = 0;  ///< step() calls (traced runs only)
    double ipc = 0;
    uint64_t digest = 0;
    std::vector<double> chunkNsPerInst;  ///< one per chunk
    std::vector<double> tailNsPerInst;   ///< one per tailChunks chunks
    uint64_t traceEvents = 0;
    uint64_t traceBytes = 0;
    double decodeNsPerEvent = 0;
};

/**
 * Simulate @p spec.insts instructions on a fresh instance. Untraced
 * runs advance through OooCore::run() with absolute chunk targets (one
 * host-time sample per chunk); traced runs (@p rec) step one cycle at a
 * time, each step() a span with the fetches inside it as child spans.
 * Observability runs always step, because run() finalizes the
 * lifecycle trace. Every run ends with run(0), which finalizes the
 * result without simulating. @p inspect sees the finished core.
 * Throws on any failed output check.
 */
RunOutcome
simulate(const RunSpec &spec, SpanRecorder *rec,
         const std::function<void(const pipeline::OooCore &)> &inspect = {})
{
    RunOutcome o;
    const bool obs = spec.params.obs.enabled;
    const std::string trace_path = spec.params.obs.traceOut;
    uint32_t step_span = rec ? rec->name("pipeline.step") : 0;

    double t0 = nowSec();
    double skip_s = 0;
    Instance in =
        buildInstance(spec.prof, spec.params, rec, spec.skip, &skip_s);
    pipeline::OooCore &core = *in.core;
    auto step = [&] {
        if (!rec)
            return core.step();
        rec->begin(step_span);
        bool more = core.step();
        rec->end();
        ++o.steps;
        return more;
    };
    step();  // the first simulated cycle ends set-up
    double t1 = nowSec();
    auto factor = [&] { return spec.probe ? spec.probe->factor() : 1.0; };
    double setup_factor = factor();

    uint64_t chunk = spec.chunk ? spec.chunk : spec.insts;
    uint64_t target = 0, group_insts = 0;
    double group_ns = 0, sim_ns = 0, factor_sum = setup_factor;
    int in_group = 0;
    while (core.result().insts < spec.insts) {
        target = std::min(target + chunk, spec.insts);
        uint64_t before = core.result().insts;
        if (before >= target)
            continue;
        int64_t c0 = nowNs();
        if (rec || obs) {
            while (core.result().insts < target && step()) {
            }
        } else {
            core.run(target - before);
        }
        int64_t c1 = nowNs();
        double f = factor();
        factor_sum += f;
        double ns = double(c1 - c0) * f;
        sim_ns += ns;
        uint64_t done = core.result().insts - before;
        if (done == 0)
            throw std::runtime_error("simulation made no progress");
        o.chunkNsPerInst.push_back(ns / double(done));
        group_ns += ns;
        group_insts += done;
        if (++in_group == std::max(spec.tailChunks, 1)) {
            o.tailNsPerInst.push_back(group_ns / double(group_insts));
            group_ns = 0;
            group_insts = 0;
            in_group = 0;
        }
    }
    core.run(0);
    double t2 = nowSec();

    const pipeline::SimResult &r = core.result();
    o.setupS = (t1 - t0 - skip_s) * setup_factor;
    o.simS = spec.probe ? sim_ns * 1e-9 : t2 - t1;
    o.wallS = o.setupS + o.simS;
    o.meanFactor = factor_sum / double(o.chunkNsPerInst.size() + 1);
    o.insts = r.insts;
    o.cycles = r.cycles;
    o.skipped = r.skippedCycles;
    o.ipc = r.ipc;
    o.digest = fnv1a(resultText(core));

    if (obs) {
        uint64_t slots = std::accumulate(r.stallSlots.begin(),
                                         r.stallSlots.end(), uint64_t(0));
        if (r.stallWidth == 0 || slots != uint64_t(r.stallWidth) * r.cycles)
            throw std::runtime_error(
                "stall slots " + std::to_string(slots) +
                " != width x cycles " +
                std::to_string(uint64_t(r.stallWidth) * r.cycles));
        o.traceEvents = core.observer()->traceEventsEmitted();
        if (!trace_path.empty()) {
            o.traceBytes = fs::file_size(trace_path);
            trace::EventTraceReader reader(trace_path);
            trace::CycleEvent ev;
            uint64_t n = 0;
            int64_t d0 = nowNs();
            while (reader.next(ev))
                ++n;
            int64_t d1 = nowNs();
            if (n != o.traceEvents)
                throw std::runtime_error(
                    "trace re-read " + std::to_string(n) + " events, " +
                    std::to_string(o.traceEvents) + " emitted");
            o.decodeNsPerEvent = n ? double(d1 - d0) / double(n) : 0;
        }
    }
    if (inspect)
        inspect(core);
    return o;
}

pipeline::CoreParams
workloadParams(const Workload &w, const std::string &trace_path)
{
    sim::RunConfig cfg;
    cfg.machine = w.machine;
    cfg.iqEntries = w.iq;
    pipeline::CoreParams p = sim::makeCoreParams(cfg);
    if (w.obs) {
        p.obs.enabled = true;
        p.obs.traceOut = trace_path;
    }
    return p;
}

// ---------------------------------------------------------------------
// The suite slice

/** Timestamps every "runs done" progress line the suite writes to
 *  stderr; runSuite serializes those writes under its pool lock. */
class CompletionClock : public std::streambuf
{
  public:
    std::vector<int64_t> stamps;
    int64_t computeStart = 0;

  protected:
    int
    overflow(int c) override
    {
        if (c == traits_type::eof())
            return 0;
        if (c != '\n') {
            line_.push_back(char(c));
            return c;
        }
        if (line_.find("runs done") != std::string::npos)
            stamps.push_back(nowNs());
        else if (line_.find("to compute") != std::string::npos)
            computeStart = nowNs();
        line_.clear();
        return c;
    }

  private:
    std::string line_;
};

struct SuiteRun
{
    std::string text;
    uint64_t runs = 0;
    uint64_t cached = 0;
    uint64_t insts = 0;
    double ipcSum = 0;
};

/** Parse the per-run lines of a results JSON file (mopsuite --json). */
void
readSuiteResults(const std::string &path, SuiteRun &s)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("suite wrote no results file " + path);
    auto field = [](const std::string &line, const char *key) {
        size_t at = line.find(key);
        if (at == std::string::npos)
            throw std::runtime_error(std::string("results line lacks ") +
                                     key);
        return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
    };
    for (std::string line; std::getline(f, line);) {
        if (line.find("\"fingerprint\"") == std::string::npos)
            continue;
        ++s.runs;
        s.cached += field(line, "\"cached\": ") != 0;
        s.ipcSum += field(line, "\"ipc\": ");
        s.insts += uint64_t(field(line, "\"insts\": "));
    }
}

SuiteRun
runSlice(const std::vector<std::string> &figures, int jobs,
         uint64_t insts, const fs::path &cache_dir,
         const fs::path &json_path, CompletionClock *clock)
{
    sweep::SuiteOptions opts;
    opts.only = figures;
    opts.jobs = jobs;
    opts.insts = insts;
    opts.cacheDir = cache_dir.string();
    opts.jsonPath = json_path.string();
    opts.verbose = clock != nullptr;
    std::ostringstream out;
    std::streambuf *saved = nullptr;
    if (clock)
        saved = std::cerr.rdbuf(clock);
    int rc = 0;
    try {
        rc = sweep::runSuite(opts, out);
    } catch (...) {
        if (clock)
            std::cerr.rdbuf(saved);
        throw;
    }
    if (clock)
        std::cerr.rdbuf(saved);
    if (rc != 0)
        throw std::runtime_error("runSuite exited " + std::to_string(rc));
    SuiteRun s;
    s.text = out.str();
    readSuiteResults(json_path.string(), s);
    fs::remove(json_path);
    return s;
}

/** Times HostProbe on its own thread every few milliseconds while the
 *  suite's workers run; stop() returns the median factor. */
class ProbeSampler
{
  public:
    ProbeSampler()
        : thread_([this](std::stop_token st) {
              mopbench::HostProbe probe;
              while (!st.stop_requested()) {
                  double f = probe.factor();
                  {
                      std::lock_guard<std::mutex> lock(mu_);
                      samples_.push_back(f);
                  }
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
          })
    {
    }
    ProbeSampler(const ProbeSampler &) = delete;
    ProbeSampler &operator=(const ProbeSampler &) = delete;

    double
    stop()
    {
        thread_.request_stop();
        thread_.join();
        return samples_.empty() ? 1.0 : mopbench::median(samples_);
    }

  private:
    std::mutex mu_;
    std::vector<double> samples_;  ///< guarded by mu_ while running
    std::jthread thread_;          ///< last: stops before the samples go
};

struct SliceOutcome
{
    double coldS = 0;
    std::vector<double> warmS;  ///< one per warm pass
    double factor = 1;          ///< host-speed factor of the cold pass
    SuiteRun cold, warm;
    uint64_t cacheBytes = 0;
    std::vector<double> runNsPerInst;
};

/** Cold pass into a fresh private cache, then @p warm_passes warm
 *  reruns that must read every record back and render byte-identical
 *  text. With @p probe (the closed loop), pass times are scaled by the
 *  host-speed factor: sampled on a side thread during the cold pass,
 *  timed right after each warm pass. */
SliceOutcome
coldWarm(const std::vector<std::string> &figures, int jobs, uint64_t insts,
         const fs::path &dir, int warm_passes,
         mopbench::HostProbe *probe)
{
    SliceOutcome o;
    fs::remove_all(dir);
    fs::path cache = dir / "cache";
    CompletionClock clock;
    std::optional<ProbeSampler> sampler;
    if (probe)
        sampler.emplace();
    double t0 = nowSec();
    o.cold = runSlice(figures, jobs, insts, cache, dir / "cold.json",
                      probe ? &clock : nullptr);
    double t1 = nowSec();
    if (sampler)
        o.factor = sampler->stop();
    o.cacheBytes = dirBytes(cache);
    for (int i = 0; i < warm_passes; ++i) {
        double w0 = nowSec();
        o.warm = runSlice(figures, jobs, insts, cache, dir / "warm.json",
                          nullptr);
        double dt = nowSec() - w0;
        o.warmS.push_back(probe ? dt * probe->factor() : dt);
        if (o.warm.text != o.cold.text)
            throw std::runtime_error(
                "warm pass text differs from cold pass");
    }
    fs::remove_all(dir);
    o.coldS = (t1 - t0) * o.factor;

    if (o.cold.cached != 0)
        throw std::runtime_error("cold pass found cached records");
    if (o.warm.cached != o.warm.runs)
        throw std::runtime_error("warm pass recomputed " +
                                 std::to_string(o.warm.runs -
                                                o.warm.cached) +
                                 " runs");
    if (probe && o.cold.runs) {
        // Per-run cost: the gap between consecutive completions, times
        // the worker count, per instruction of the per-run budget.
        int64_t prev = clock.computeStart ? clock.computeStart
                                          : int64_t(t0 * 1e9);
        for (int64_t t : clock.stamps) {
            o.runNsPerInst.push_back(double(t - prev) * o.factor * jobs /
                                     double(insts));
            prev = t;
        }
    }
    return o;
}

/** Per-run budget of the suite slice: the suite default at seed 0;
 *  other seeds shift it by a few instructions, because the sweep looks
 *  profiles up by name and cannot take a rewritten profile seed. */
uint64_t
suiteBudget(const Options &o, const Workload &w)
{
    if (o.insts)
        return o.insts;
    return w.insts + (o.seed ? 64 * (o.seed % 16) : 0);
}

void
registerBenchFigure(const std::string &name, const std::string &bench,
                    const sim::RunConfig &cfg)
{
    if (sweep::Suite::instance().find(name))
        return;
    sweep::Suite::instance().add(
        {name, "one run of a benchmark workload",
         [bench, cfg](sweep::Context &ctx, std::ostream &os) {
             os << bench << " ipc " << ctx.run(bench, cfg).ipc << "\n";
         }});
}

// ---------------------------------------------------------------------
// Result reporting

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        std::cout << "FAILED: " << what << "\n";
    }
};

void
printResult(const Tally &t, const Metrics &m)
{
    std::cout << "attempted " << t.attempted << ", failed " << t.failed
              << " (failed_frac "
              << (t.attempted ? double(t.failed) / double(t.attempted) : 1)
              << ")\n";
    m.print(std::cout);
    std::cout << "{\"correct\": "
              << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
              << ", \"attempted\": " << t.attempted
              << ", \"failed\": " << t.failed << ", \"metrics\": ";
    m.writeJson(std::cout);
    std::cout << "}" << std::endl;
}

bool
pinApplies(const Options &o, const Workload &w)
{
    return o.seed == 0 && o.insts == 0 && w.pin != 0;
}

void
checkDigest(const Options &o, const Workload &w, uint64_t digest,
            uint64_t &first, Tally &t, const char *what)
{
    if (first == 0)
        first = digest;
    std::cout << what << " digest " << hex(digest)
              << (pinApplies(o, w) && digest == w.pin ? " (matches pin)" : "")
              << "\n";
    if (digest != first)
        t.fail(std::string(what) + ": output differs between runs");
    else if (pinApplies(o, w) && digest != w.pin)
        t.fail(std::string(what) + ": digest " + hex(digest) +
               " != pinned " + hex(w.pin));
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics of untraced runs

/** Human-readable sample summary of one closed loop. */
void
printSamples(const char *unit, size_t runs, uint64_t insts,
             const std::vector<double> &tail_samples, double pct,
             double factor)
{
    std::cout << runs << " " << unit << " of " << insts
              << " insts; inst_ns_tail = p" << pct << " of "
              << tail_samples.size()
              << " samples; median host-speed factor " << factor << "\n";
}

void
measureSingle(const Options &o, const Workload &w, Tally &t, Metrics &m)
{
    fs::path trace_path = fs::path(o.out) / "obs-mcf.evt";
    RunSpec spec{trace::profileFor(w.bench),
                 workloadParams(w, trace_path.string()),
                 o.insts ? o.insts : w.insts, w.chunk, streamOffset(o.seed),
                 w.tailChunks};
    if (o.insts) {
        spec.chunk = std::max<uint64_t>(spec.insts / 20, 100);
        spec.tailChunks = 2;
    }

    mopbench::HostProbe probe;
    spec.probe = &probe;

    std::vector<double> setup, wall, chunks, tails, factors;
    uint64_t first = 0, trace_bytes = 0, insts = 0;
    double ipc = 0, rss = 0;
    double deadline = nowSec() + o.seconds;
    // Set-up alone is a few milliseconds: sample it more often than the
    // closed loop below does.
    for (int i = 0; i < kExtraSetups; ++i) {
        double t0 = nowSec(), skip_s = 0;
        Instance in = buildInstance(spec.prof, spec.params, nullptr,
                                    spec.skip, &skip_s);
        in.core->step();
        double dt = nowSec() - t0 - skip_s;
        setup.push_back(dt * probe.factor());
    }
    do {
        ++t.attempted;
        try {
            RunOutcome r = simulate(spec, nullptr);
            if (wall.empty())
                rss = peakRssMb();
            setup.push_back(r.setupS);
            wall.push_back(r.wallS);
            factors.push_back(r.meanFactor);
            chunks.insert(chunks.end(), r.chunkNsPerInst.begin(),
                          r.chunkNsPerInst.end());
            tails.insert(tails.end(), r.tailNsPerInst.begin(),
                         r.tailNsPerInst.end());
            ipc = r.ipc;
            trace_bytes = r.traceBytes;
            insts = r.insts;
            checkDigest(o, w, r.digest, first, t, w.name);
        } catch (const std::exception &e) {
            t.fail(e.what());
        }
    } while (nowSec() < deadline);
    fs::remove(trace_path);
    if (wall.empty())
        throw std::runtime_error("no run completed");

    double pct = 0;
    double tail = mopbench::tailValue(tails, pct);
    printSamples("runs", wall.size(), spec.insts, tails, pct,
                 mopbench::median(factors));
    if (w.obs)
        std::cout << "trace_bytes_per_inst "
                  << double(trace_bytes) / double(insts) << "\n";
    m.set("sim_ips", 1e9 / mopbench::fastDecile(chunks), "insts/s");
    m.set("wall_s", mopbench::fastDecile(wall), "s");
    m.set("setup_s", mopbench::fastDecile(setup), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("inst_ns_tail", tail, "ns/inst");
    m.set("ipc", ipc, "insts/cycle");
}

void
measureSuite(const Options &o, const Workload &w, Tally &t, Metrics &m)
{
    bench::registerAllFigures();
    uint64_t budget = suiteBudget(o, w);
    fs::path dir = fs::path(o.out) / ("suite-" + std::to_string(getpid()));
    mopbench::HostProbe probe;
    std::vector<double> setup, ns_per_inst, wall, runs, factors;
    uint64_t first = 0;
    double ipc = 0, rss = 0;
    double deadline = nowSec() + o.seconds;
    do {
        ++t.attempted;
        try {
            SliceOutcome s = coldWarm(kSuiteFigures, kSuiteJobs, budget,
                                      dir, 5, &probe);
            factors.push_back(s.factor);
            if (wall.empty())
                rss = peakRssMb();
            setup.insert(setup.end(), s.warmS.begin(), s.warmS.end());
            wall.push_back(s.coldS);
            ns_per_inst.push_back(s.coldS * 1e9 / double(s.cold.insts));
            runs.insert(runs.end(), s.runNsPerInst.begin(),
                        s.runNsPerInst.end());
            ipc = s.cold.ipcSum / double(s.cold.runs);
            checkDigest(o, w, fnv1a(s.cold.text), first, t, w.name);
        } catch (const std::exception &e) {
            fs::remove_all(dir);
            t.fail(e.what());
        }
    } while (nowSec() < deadline);
    if (wall.empty())
        throw std::runtime_error("no sweep completed");

    double pct = 0;
    double tail = mopbench::tailValue(runs, pct);
    printSamples("sweeps", wall.size(), budget, runs, pct,
                 mopbench::median(factors));
    m.set("sim_ips", 1e9 / mopbench::fastDecile(ns_per_inst), "insts/s");
    m.set("wall_s", mopbench::fastDecile(wall), "s");
    m.set("setup_s", mopbench::fastDecile(setup), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("inst_ns_tail", tail, "ns/inst");
    m.set("ipc", ipc, "insts/cycle");
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics of a separate traced run

/** Alternate @p a and @p b for at least @p min_pairs pairs and until
 *  @p budget_s has passed; returns the per-pair results. */
std::vector<std::pair<RunOutcome, RunOutcome>>
pairs(const std::function<RunOutcome()> &a,
      const std::function<RunOutcome()> &b, int min_pairs, double budget_s)
{
    std::vector<std::pair<RunOutcome, RunOutcome>> out;
    double end = nowSec() + budget_s;
    for (int i = 0; i < min_pairs || nowSec() < end; ++i) {
        if (i % 2 == 0) {
            RunOutcome ra = a();
            out.push_back({ra, b()});
        } else {
            RunOutcome rb = b();
            out.push_back({a(), rb});
        }
    }
    return out;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** Counters read from each layer's const accessors after a run. */
void
layerCounters(const pipeline::OooCore &c, Metrics &m)
{
    const pipeline::SimResult &r = c.result();
    m.set("pipeline.cycles_skipped", double(r.skippedCycles), "count");
    m.set("pipeline.skip_frac", ratio(double(r.skippedCycles),
                                      double(r.cycles)), "frac");

    const core::MopDetector &d = c.detector();
    const core::MopPointerCache &pc = c.pointerCache();
    const core::Formation &f = c.formation();
    m.set("core.dependent_pairs", double(d.dependentPairs()), "count");
    m.set("core.independent_pairs", double(d.independentPairs()), "count");
    m.set("core.detect_rejects", double(d.cycleRejects() +
                                        d.budgetRejects() +
                                        d.ctrlRejects()), "count");
    m.set("core.ptr_writes", double(pc.writes()), "count");
    m.set("core.ptr_entries", double(pc.size()), "count");
    m.set("core.ptr_filter_deletions", double(pc.filterDeletions()),
          "count");
    m.set("core.groups_formed", double(f.groupsFormed()), "count");
    m.set("core.pending_expired", double(f.pendingExpired()), "count");
    m.set("core.grouped_frac", r.groupedFrac(), "frac");
    m.set("core.form_waste_frac",
          ratio(double(f.pendingExpired()),
                double(f.groupsFormed() + f.pendingExpired())), "frac");

    const sched::Scheduler &s = c.scheduler();
    m.set("sched.entries_inserted", double(s.insertedEntries()), "count");
    m.set("sched.entries_per_op", ratio(double(s.insertedEntries()),
                                        double(s.insertedOps())),
          "entries/op");
    m.set("sched.ops_issued", double(s.issuedOps()), "count");
    m.set("sched.issue_useful_frac",
          std::min(1.0, ratio(double(s.insertedOps()),
                              double(s.issuedOps()))), "frac");
    m.set("sched.replays", double(s.replayInvalidations()), "count");
    m.set("sched.collisions", double(s.collisions()), "count");
    m.set("sched.avg_occupancy", s.occupancyAvg().mean(), "entries");

    const mem::MemoryHierarchy &mh = c.memory();
    m.set("mem.il1_miss_rate", mh.il1().missRate(), "frac");
    m.set("mem.dl1_miss_rate", mh.dl1().missRate(), "frac");
    m.set("mem.l2_miss_rate", mh.l2().missRate(), "frac");

    const bpred::BranchPredictor &bp = c.predictor();
    m.set("bpred.lookups", double(bp.lookups()), "count");
    m.set("bpred.mispredict_rate", ratio(double(bp.dirMispredicts()),
                                         double(bp.lookups())), "frac");
}

/**
 * The traced run of one single-thread configuration: an untraced and a
 * traced run of the same spec (their ratio is the tracing overhead),
 * skip-vs-step and obs-on-vs-off pairs in alternating order, the
 * isolated layer replays on the recorded µop stream, and the sweep
 * layer's cost for this configuration.
 */
void
traceSingle(const Options &o, const RunSpec &base, const std::string &tag,
            SpanRecorder &rec, Tally &t, Metrics &m)
{
    const fs::path out(o.out);
    const uint64_t n = base.insts;
    RunSpec spec = base;

    // Untraced reference, then the traced run of the same spec.
    ++t.attempted;
    rec.setRun(1);
    RunOutcome plain = simulate(spec, nullptr);
    rec.setRun(2);
    RunOutcome traced = simulate(spec, &rec, [&](const pipeline::OooCore &c) {
        layerCounters(c, m);
    });
    if (traced.digest != plain.digest)
        t.fail("traced run output differs from the untraced run");
    if (traced.steps + traced.skipped != traced.cycles)
        t.fail("cycles_stepped + cycles_skipped != cycles");
    const auto &next = rec.aggregate(rec.name("trace.next"));
    const auto &step = rec.aggregate(rec.name("pipeline.step"));
    m.set("trace.next_ns", ratio(double(next.totalNs), double(next.count)),
          "ns");
    m.set("pipeline.step_ns", ratio(double(step.selfNs), double(step.count)),
          "ns");
    m.set("pipeline.cycles_stepped", double(traced.steps), "count");
    m.set("bench.untraced_wall_s", plain.simS, "s");
    m.set("bench.traced_wall_s", traced.simS, "s");
    m.set("bench.trace_overhead", traced.simS / plain.simS, "x");

    // Paired skip-vs-step (observability off: it forces stepping).
    RunSpec quiet = spec;
    quiet.params.obs = {};
    quiet.insts = std::max<uint64_t>(n / 2, 1000);
    quiet.chunk = 0;
    auto skip_on = [&] { return simulate(quiet, nullptr); };
    RunSpec stepped = quiet;
    stepped.params.cycleSkip = false;
    auto skip_off = [&] { return simulate(stepped, nullptr); };
    std::vector<double> speed;
    uint64_t check_on = 0, check_off = 0;
    for (auto &[on, off] : pairs(skip_on, skip_off, 3, o.seconds * 0.2)) {
        speed.push_back(off.simS / on.simS);
        if (on.cycles != off.cycles || on.insts != off.insts ||
            off.skipped != 0)
            t.fail("skip and step runs disagree");
    }
    // Stats identity of skip vs step, apart from the skip fields.
    simulate(quiet, nullptr, [&](const pipeline::OooCore &c) {
        check_on = fnv1a(resultText(c, false));
    });
    simulate(stepped, nullptr, [&](const pipeline::OooCore &c) {
        check_off = fnv1a(resultText(c, false));
    });
    if (check_on != check_off)
        t.fail("skip and step stats differ");
    m.set("pipeline.skip_speedup", mopbench::median(speed), "x");

    // Paired observability on (stall attribution + lifecycle trace) vs
    // off.
    fs::path evt = out / ("pair-" + tag + ".evt");
    RunSpec with_obs = quiet;
    with_obs.params.obs.enabled = true;
    with_obs.params.obs.traceOut = evt.string();
    auto obs_on = [&] { return simulate(with_obs, nullptr); };
    std::vector<double> extra;
    RunOutcome last_on, last_off;
    for (auto &[on, off] : pairs(obs_on, skip_on, 3, o.seconds * 0.2)) {
        extra.push_back((on.simS - off.simS) * 1e9 / double(on.insts));
        if (on.cycles != off.cycles || on.insts != off.insts)
            t.fail("observability perturbed the simulation");
        last_on = on;
        last_off = off;
    }
    fs::remove(evt);
    m.set("obs.step_ns_extra", mopbench::median(extra), "ns/inst");
    m.set("obs.cycles_stepped_extra",
          double(last_on.cycles - last_on.skipped) -
              double(last_off.cycles - last_off.skipped),
          "count");
    // The workload's own trace when it has one, else the pair's.
    const RunOutcome &tr = spec.params.obs.enabled ? traced : last_on;
    m.set("obs.trace_events", double(tr.traceEvents), "count");
    m.set("obs.trace_bytes", double(tr.traceBytes), "bytes");
    m.set("obs.bytes_per_event",
          ratio(double(tr.traceBytes), double(tr.traceEvents)),
          "bytes/event");
    m.set("obs.trace_bytes_per_inst",
          ratio(double(tr.traceBytes), double(tr.insts)), "bytes/inst");
    m.set("obs.decode_ns_per_event", tr.decodeNsPerEvent, "ns/event");

    // Isolated replays over the workload's own µop stream.
    std::vector<isa::MicroOp> uops;
    {
        trace::SyntheticSource src(spec.prof);
        isa::MicroOp u;
        for (uint64_t i = 0; i < spec.skip; ++i)
            src.next(u);
        uops.resize(std::min<uint64_t>(n, 200000));
        for (auto &v : uops)
            src.next(v);
    }
    uint32_t build_span = rec.name("trace.build");
    std::vector<double> build_ms;
    for (int i = 0; i < 3; ++i) {
        rec.begin(build_span);
        int64_t b0 = nowNs();
        trace::SyntheticSource src(spec.prof);
        build_ms.push_back(double(nowNs() - b0) * 1e-6);
        rec.end();
    }
    m.set("trace.build_ms", mopbench::median(build_ms), "ms");
    std::vector<int> lat;
    rec.begin(rec.name("mem.replay"));
    mopbench::ReplayCost mem_cost = mopbench::replayMemory(uops, spec.params,
                                                           lat);
    rec.end();
    rec.begin(rec.name("core.replay"));
    mopbench::ReplayCost det = mopbench::replayDetector(uops, spec.params);
    rec.end();
    rec.begin(rec.name("sched.replay"));
    mopbench::ReplayCost sch =
        mopbench::replayScheduler(uops, spec.params, lat);
    rec.end();
    m.set("core.detect_ns", det.nsPerOp, "ns");
    m.set("sched.tick_ns", sch.nsPerOp, "ns");
    m.set("sched.insert_ns", sch.nsPerOp2, "ns");
    m.set("mem.access_ns", mem_cost.nsPerOp, "ns");
}

/** sweep.fingerprint_ns for one configuration. */
void
fingerprintCost(const std::string &bench, const sim::RunConfig &cfg,
                uint64_t insts, Metrics &m)
{
    constexpr int kCalls = 2000;
    int64_t t0 = nowNs();
    for (int i = 0; i < kCalls; ++i)
        sweep::fingerprintSim(bench, cfg, insts + uint64_t(i));
    int64_t dt = nowNs() - t0;
    m.set("sweep.fingerprint_ns", double(dt) / kCalls, "ns");
}

void
sweepMetrics(const SliceOutcome &s, Metrics &m)
{
    m.set("sweep.cold_s", s.coldS, "s");
    m.set("sweep.warm_s", mopbench::median(s.warmS), "s");
    m.set("sweep.runs_computed", double(s.cold.runs - s.cold.cached),
          "count");
    m.set("sweep.warm_hit_frac", ratio(double(s.warm.cached),
                                       double(s.warm.runs)), "frac");
    m.set("sweep.cache_bytes", double(s.cacheBytes), "bytes");
}

void
traceWorkload(const Options &o, const Workload &w, Tally &t, Metrics &m)
{
    SpanRecorder rec;
    const fs::path out(o.out);
    const bool suite = w.bench[0] == '\0';
    std::string bench = suite ? kSuiteRepBench : w.bench;
    sim::RunConfig cfg;
    cfg.machine = suite ? kSuiteRepMachine : w.machine;
    cfg.iqEntries = suite ? 32 : w.iq;

    uint64_t insts = suite ? suiteBudget(o, w) : (o.insts ? o.insts : w.insts);
    Workload rep = w;
    rep.machine = cfg.machine;
    rep.iq = cfg.iqEntries;
    RunSpec spec{trace::profileFor(bench),
                 workloadParams(rep, (out / ("traced-" + std::string(w.name) +
                                             ".evt")).string()),
                 insts, 0, streamOffset(o.seed)};

    uint32_t sweep_span = rec.name("sweep.cold_warm");
    rec.setRun(3);
    rec.begin(sweep_span);
    SliceOutcome s;
    if (suite) {
        bench::registerAllFigures();
        s = coldWarm(kSuiteFigures, kSuiteJobs, insts,
                     out / ("trace-suite-" + std::to_string(getpid())), 1,
                     nullptr);
    } else {
        // The sweep layer's cost for this workload's configuration: one
        // run, cold then warm.
        std::string fig = std::string("mopbench-") + w.name;
        registerBenchFigure(fig, bench, cfg);
        s = coldWarm({fig}, 1, std::max<uint64_t>(insts / 20, 1000),
                     out / ("trace-sweep-" + std::to_string(getpid())), 1,
                     nullptr);
    }
    rec.end();
    sweepMetrics(s, m);
    fingerprintCost(bench, cfg, insts, m);

    traceSingle(o, spec, w.name, rec, t, m);
    fs::remove(spec.params.obs.traceOut);

    fs::path spans = out / ("spans-" + std::string(w.name) + ".json");
    rec.write(spans.string());
    std::cout << "spans written to " << spans.string() << "\n";
    for (const auto &a : rec.aggregates()) {
        if (a.count && a.minSelfNs < 0)
            t.fail("span " + a.name + " has a negative self time");
    }
}

// ---------------------------------------------------------------------
// --selftest: the invariants the measurement rests on

int
selftest(const Options &o)
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
        failures += !ok;
    };
    fs::create_directories(o.out);

    // Chunked run() with absolute targets == one run().
    for (const Workload &w : kWorkloads) {
        if (w.bench[0] == '\0')
            continue;
        fs::path evt = fs::path(o.out) / "selftest.evt";
        RunSpec one{trace::profileFor(w.bench),
                    workloadParams(w, evt.string()), 30000, 0, 0};
        uint64_t single = 0;
        {
            Instance in = buildInstance(one.prof, one.params, nullptr);
            in.core->run(one.insts);
            in.core->run(0);
            single = fnv1a(resultText(*in.core));
        }
        RunSpec chunked = one;
        chunked.chunk = 7000;
        RunOutcome c = simulate(chunked, nullptr);
        expect(c.digest == single,
               std::string(w.name) + ": chunked run == single run()");
        SpanRecorder rec;
        RunOutcome traced = simulate(one, &rec);
        expect(traced.digest == single,
               std::string(w.name) + ": traced step() run == single run()");
        expect(traced.steps + traced.skipped == traced.cycles,
               std::string(w.name) +
                   ": cycles_stepped + cycles_skipped == cycles");
        bool nonneg = true;
        for (const auto &s : rec.kept())
            nonneg &= s.selfNs >= 0 && s.endNs >= s.startNs;
        for (const auto &a : rec.aggregates())
            nonneg &= a.count == 0 || a.minSelfNs >= 0;
        expect(nonneg && !rec.kept().empty() && rec.idle(),
               std::string(w.name) + ": no span has a negative self time");
        fs::remove(evt);
    }
    {
        // Skipping must actually fire somewhere for the identity above
        // to mean anything.
        Workload w = kWorkloads[1];
        RunSpec spec{trace::profileFor(w.bench), workloadParams(w, ""),
                     30000, 0, 0};
        SpanRecorder rec;
        RunOutcome r = simulate(spec, &rec);
        expect(r.skipped > 0, "mem-bigiq skips cycles");
    }
    {
        // Tail percentile rule: ten samples beyond the reported one.
        std::vector<double> v(100);
        std::iota(v.begin(), v.end(), 1.0);
        double pct = 0;
        expect(mopbench::tailValue(v, pct) == 90.0 && pct == 90.0,
               "tail of 1..100 is p90 = 90");
    }
    std::cout << (failures ? "selftest: FAILED\n" : "selftest: ok\n");
    return failures ? 1 : 0;
}

// ---------------------------------------------------------------------
// CLI

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "error: " << msg
              << "\nusage: mopbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--insts N] [--out DIR]\n"
                 "       mopbench --selftest [--out DIR]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

uint64_t
parseU64(const std::string &opt, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(opt + " needs a non-negative integer, got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::exception &) {
        usage(opt + " is out of range: '" + v + "'");
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseU64(a, value());
        } else if (a == "--seconds") {
            std::string v = value();
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 3600)
                usage("--seconds needs a number in (0, 3600], got '" + v +
                      "'");
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1, got '" + v + "'");
            o.trace = v == "1";
        } else if (a == "--insts") {
            o.insts = parseU64(a, value());
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--selftest") {
            o.selftest = true;
        } else {
            usage("unknown option '" + a + "'");
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    if (o.selftest)
        return selftest(o);

    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (o.workload == cand.name)
            w = &cand;
    if (!w)
        usage("unknown or missing --workload '" + o.workload + "'");

    try {
        fs::create_directories(o.out);
        std::cout << "workload " << w->name << ", seed " << o.seed
                  << (o.seed == kHeldOutSeed ? " (held out)" : "")
                  << ", " << o.seconds << " s, trace " << o.trace << "\n";
        Tally t;
        Metrics m;
        if (o.trace)
            traceWorkload(o, *w, t, m);
        else if (w->bench[0] == '\0')
            measureSuite(o, *w, t, m);
        else
            measureSingle(o, *w, t, m);
        printResult(t, m);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
