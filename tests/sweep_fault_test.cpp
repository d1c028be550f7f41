/**
 * @file
 * End-to-end tests for crash-isolated, resumable sweeps: sandbox
 * classification of every worker ending (fork-based), the supervisor's
 * retry/quarantine loop over real children, and the suite driver under
 * chaos — byte-identical recovery when the retry budget covers the
 * injected faults, explicit FAILED holes and exit code 3 when it does
 * not, cache-driven resume after a simulated mid-sweep kill, the
 * --cache-verify maintenance mode, and a cache store that fails at
 * close.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats/table.hh"
#include "sweep/result_cache.hh"
#include "sweep/suite.hh"
#include "sweep/supervisor.hh"

namespace
{

using namespace mop;
using sweep::Fingerprint;
using sweep::SweepFaultPlan;
using sweep::WorkerStatus;

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Value of the series @p name in a Prometheus textfile. */
double
promValue(const std::string &prom, const std::string &name)
{
    std::istringstream in(prom);
    for (std::string line; std::getline(in, line);)
        if (line.rfind(name + "{", 0) == 0 || line.rfind(name + " ", 0) == 0)
            return std::stod(line.substr(line.rfind(' ') + 1));
    ADD_FAILURE() << name << " missing from:\n" << prom;
    return -1;
}

/** Value of the top-level integer @p key in the suite's perf JSON. */
uint64_t
perfValue(const std::string &json, const std::string &key)
{
    const std::string field = "\n  \"" + key + "\": ";
    size_t at = json.find(field);
    if (at == std::string::npos) {
        ADD_FAILURE() << key << " missing from:\n" << json;
        return ~uint64_t(0);
    }
    return std::stoull(json.substr(at + field.size()));
}

sweep::SweepJob
simJob(const std::string &bench = "gzip", uint64_t insts = 2000)
{
    sweep::SweepJob job;
    job.kind = sweep::JobKind::Sim;
    job.bench = bench;
    job.insts = insts;
    return job;
}

Fingerprint
fpOf(const sweep::SweepJob &job)
{
    // fingerprintSim hashes the workload profile, so it throws for an
    // unknown benchmark before the sandbox ever runs; those jobs get a
    // fixed dummy key (the fingerprint only drives chaos selection).
    try {
        return sweep::fingerprintSim(job.bench, job.cfg, job.insts);
    } catch (const std::exception &) {
        return Fingerprint{0xdead, 0xbeef};
    }
}

// --- Sandbox: classification of every worker ending ---------------------

TEST(SandboxTest, OkResultIsBitIdenticalToInProcess)
{
    sweep::SweepJob job = simJob();
    sweep::WorkerResult r = sweep::runIsolated(job, fpOf(job), 30.0);
    ASSERT_EQ(r.status, WorkerStatus::Ok);

    sweep::SweepOutcome ref = sweep::computeJob(job);
    EXPECT_EQ(r.outcome.record.fields, ref.record.fields);
    EXPECT_EQ(r.outcome.simulatedInsts, ref.simulatedInsts);
    EXPECT_GT(r.outcome.seconds, 0.0);
}

TEST(SandboxTest, CrashIsClassifiedWithSignal)
{
    sweep::SweepJob job = simJob();
    SweepFaultPlan plan = SweepFaultPlan::parse("crash:1.0:99", 1);
    sweep::WorkerResult r =
        sweep::runIsolated(job, fpOf(job), 30.0, &plan, 1);
    EXPECT_EQ(r.status, WorkerStatus::Crash);
    EXPECT_EQ(r.signal, SIGSEGV);
}

TEST(SandboxTest, HangIsKilledByWatchdog)
{
    sweep::SweepJob job = simJob();
    SweepFaultPlan plan = SweepFaultPlan::parse("hang:1.0:99", 1);
    sweep::WorkerResult r =
        sweep::runIsolated(job, fpOf(job), 0.2, &plan, 1);
    EXPECT_EQ(r.status, WorkerStatus::Timeout);
}

TEST(SandboxTest, CorruptedFrameIsNeverConsumed)
{
    sweep::SweepJob job = simJob();
    SweepFaultPlan plan =
        SweepFaultPlan::parse("corrupt-record:1.0:99", 1);
    sweep::WorkerResult r =
        sweep::runIsolated(job, fpOf(job), 30.0, &plan, 1);
    EXPECT_EQ(r.status, WorkerStatus::CorruptResult);
    EXPECT_TRUE(r.outcome.record.fields.empty());
}

TEST(SandboxTest, ShortWriteIsDetected)
{
    sweep::SweepJob job = simJob();
    SweepFaultPlan plan = SweepFaultPlan::parse("short-write:1.0:99", 1);
    sweep::WorkerResult r =
        sweep::runIsolated(job, fpOf(job), 30.0, &plan, 1);
    EXPECT_EQ(r.status, WorkerStatus::CorruptResult);
}

TEST(SandboxTest, ChildExceptionCrossesThePipe)
{
    sweep::SweepJob job = simJob("no-such-benchmark");
    sweep::WorkerResult r = sweep::runIsolated(job, fpOf(job), 30.0);
    EXPECT_EQ(r.status, WorkerStatus::Error);
    EXPECT_FALSE(r.error.empty());
}

TEST(SandboxTest, FaultsStopAfterFailAttempts)
{
    // failAttempts=2: attempts 1..2 crash, attempt 3 computes cleanly.
    sweep::SweepJob job = simJob();
    SweepFaultPlan plan = SweepFaultPlan::parse("crash:1.0:2", 1);
    EXPECT_EQ(sweep::runIsolated(job, fpOf(job), 30.0, &plan, 1).status,
              WorkerStatus::Crash);
    EXPECT_EQ(sweep::runIsolated(job, fpOf(job), 30.0, &plan, 2).status,
              WorkerStatus::Crash);
    EXPECT_EQ(sweep::runIsolated(job, fpOf(job), 30.0, &plan, 3).status,
              WorkerStatus::Ok);
}

// --- Supervisor: retry / quarantine over real children ------------------

TEST(SupervisorTest, TransientCrashRecoversWithinBudget)
{
    sweep::SupervisorOptions o;
    o.jobTimeoutSeconds = 30;
    o.retry.maxAttempts = 3;
    o.sleeper = [](double) {};  // no real backoff in tests
    SweepFaultPlan plan = SweepFaultPlan::parse("crash:1.0:2", 1);
    o.plan = &plan;

    sweep::SweepJob job = simJob();
    sweep::JobReport r = sweep::superviseJob(job, fpOf(job), o);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(r.retries, 2);
    EXPECT_EQ(r.outcome.record.fields,
              sweep::computeJob(job).record.fields);
}

TEST(SupervisorTest, PersistentCrashIsQuarantined)
{
    sweep::SupervisorOptions o;
    o.jobTimeoutSeconds = 30;
    o.retry.maxAttempts = 2;
    o.sleeper = [](double) {};
    SweepFaultPlan plan = SweepFaultPlan::parse("crash:1.0:99", 1);
    o.plan = &plan;

    sweep::SweepJob job = simJob();
    sweep::JobReport r = sweep::superviseJob(job, fpOf(job), o);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failure.kind, sweep::FailureKind::Crash);
    EXPECT_EQ(r.failure.signal, SIGSEGV);
    EXPECT_EQ(r.failure.attempts, 2);
}

TEST(SupervisorTest, DeterministicErrorIsNeverRetried)
{
    sweep::SupervisorOptions o;
    o.jobTimeoutSeconds = 30;
    o.retry.maxAttempts = 5;
    int sleeps = 0;
    o.sleeper = [&](double) { ++sleeps; };

    sweep::SweepJob job = simJob("no-such-benchmark");
    sweep::JobReport r = sweep::superviseJob(job, fpOf(job), o);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failure.kind, sweep::FailureKind::Error);
    EXPECT_EQ(r.failure.attempts, 1);
    EXPECT_EQ(sleeps, 0);
    EXPECT_FALSE(r.failure.message.empty());
}

TEST(SupervisorTest, RunAllKeepsGoodWorkAroundHoles)
{
    std::vector<sweep::SweepJob> batch = {simJob("gzip"),
                                          simJob("no-such-benchmark"),
                                          simJob("gcc")};
    std::vector<Fingerprint> fps;
    for (const auto &j : batch)
        fps.push_back(fpOf(j));

    sweep::SupervisorOptions o;
    o.jobTimeoutSeconds = 30;
    o.sleeper = [](double) {};
    std::vector<sweep::JobReport> reports = sweep::SweepExecutor(2).run(
        batch.size(),
        [&](size_t i) { return sweep::superviseJob(batch[i], fps[i], o); });
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok);
    EXPECT_FALSE(reports[1].ok);
    EXPECT_TRUE(reports[2].ok);
    EXPECT_EQ(reports[0].outcome.record.fields,
              sweep::computeJob(batch[0]).record.fields);
}

// --- Suite driver under chaos -------------------------------------------

void
registerFaultFigure()
{
    sweep::Suite::instance().add(
        {"_test-fault", "fault-tolerance test figure",
         [](sweep::Context &ctx, std::ostream &out) {
             sim::RunConfig cfg;
             double base = ctx.baseIpc("gzip", 32);
             cfg.machine = sim::Machine::MopWiredOr;
             cfg.iqEntries = 32;
             pipeline::SimResult r = ctx.run("gzip", cfg);
             out << "fault-fig norm "
                 << stats::Table::fmt(r.ipc / base) << "\n";
         }});
}

sweep::SuiteOptions
faultSuiteOpts()
{
    sweep::SuiteOptions opts;
    opts.only = {"_test-fault"};
    opts.insts = 2000;
    opts.useCache = false;
    opts.jobs = 2;
    return opts;
}

TEST(SuiteFaultTest, IsolationOffAndOnAreByteIdentical)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();

    std::ostringstream inProcess, isolated;
    ASSERT_EQ(sweep::runSuite(opts, inProcess), 0);
    opts.isolate = true;
    ASSERT_EQ(sweep::runSuite(opts, isolated), 0);
    EXPECT_FALSE(inProcess.str().empty());
    EXPECT_EQ(inProcess.str(), isolated.str());
}

TEST(SuiteFaultTest, ChaosWithinRetryBudgetRecoversByteIdentically)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();

    std::ostringstream clean;
    ASSERT_EQ(sweep::runSuite(opts, clean), 0);

    // Every job crashes on its first attempt; the budget of 3 covers
    // it, so the sweep must recover to the exact same bytes.
    opts.isolate = true;
    opts.sweepInject = "crash:1.0:1";
    opts.sweepSeed = 42;
    std::ostringstream chaotic;
    ASSERT_EQ(sweep::runSuite(opts, chaotic), 0);
    EXPECT_EQ(clean.str(), chaotic.str());
}

TEST(SuiteFaultTest, IsolatedAndInProcessReportTheSameCounters)
{
    // Both per-job bodies finish through the same pool, so they must
    // count the same runs and instructions; the isolated body adds its
    // retry and crash counters on top.
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.telemetryPath = testing::TempDir() + "mop-fault-counters.prom";
    opts.perfJsonPath = testing::TempDir() + "mop-fault-counters.json";

    std::ostringstream out;
    ASSERT_EQ(sweep::runSuite(opts, out), 0);
    const std::string promIn = slurp(opts.telemetryPath);
    const std::string perfIn = slurp(opts.perfJsonPath);

    // Every job crashes on its first attempt and recovers on its second.
    opts.isolate = true;
    opts.sweepInject = "crash:1.0:1";
    ASSERT_EQ(sweep::runSuite(opts, out), 0);
    const std::string promIso = slurp(opts.telemetryPath);
    const std::string perfIso = slurp(opts.perfJsonPath);

    for (const char *series :
         {"mop_sweep_runs_completed", "mop_sweep_simulated_insts_total"})
        EXPECT_EQ(promValue(promIn, series), promValue(promIso, series))
            << series;
    for (const char *key : {"computed_runs", "simulated_insts"})
        EXPECT_EQ(perfValue(perfIn, key), perfValue(perfIso, key)) << key;
    const double computed = double(perfValue(perfIso, "computed_runs"));
    EXPECT_GT(computed, 0);
    EXPECT_EQ(promValue(promIn, "mop_sweep_retries_total"), 0);
    EXPECT_EQ(promValue(promIso, "mop_sweep_retries_total"), computed);
    EXPECT_EQ(promValue(promIso, "mop_sweep_crashes_total"), computed);
    std::remove(opts.telemetryPath.c_str());
    std::remove(opts.perfJsonPath.c_str());
}

TEST(SuiteFaultTest, ExhaustedBudgetRendersFailedCellsAndExits3)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.isolate = true;
    opts.sweepInject = "crash:1.0:99";  // outlasts any retry budget
    opts.maxAttempts = 2;

    std::ostringstream out;
    EXPECT_EQ(sweep::runSuite(opts, out), 3);
    // The quarantined runs appear as explicit FAILED cells plus a
    // per-figure note naming the job and failure class.
    EXPECT_NE(out.str().find("FAILED"), std::string::npos);
    EXPECT_NE(out.str().find("[FAILED] _test-fault"), std::string::npos);
    EXPECT_NE(out.str().find("crash"), std::string::npos);
}

TEST(SuiteFaultTest, InjectWithoutIsolateIsRejected)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.sweepInject = "crash";
    std::ostringstream out;
    EXPECT_THROW(sweep::runSuite(opts, out), std::invalid_argument);
}

/**
 * A sweep killed mid-flight keeps every finished run in the cache.
 * Simulate a kill after the first run finished by deleting every
 * record but one; the rerun must print the same bytes, take that one
 * record from the cache and compute only the rest, and a third run
 * must compute nothing.
 */
void
expectRerunResumesFromCache(bool isolate, const std::string &name)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.useCache = true;
    opts.cacheDir = freshDir(name);
    opts.isolate = isolate;
    opts.perfJsonPath = testing::TempDir() + name + "-perf.json";

    std::ostringstream first;
    ASSERT_EQ(sweep::runSuite(opts, first), 0);
    std::vector<std::string> records;
    for (const auto &e : std::filesystem::directory_iterator(opts.cacheDir))
        if (e.path().extension() == ".res")
            records.push_back(e.path().string());
    ASSERT_GE(records.size(), 2u);
    std::sort(records.begin(), records.end());
    for (size_t i = 1; i < records.size(); ++i)
        std::filesystem::remove(records[i]);

    std::ostringstream resumed;
    ASSERT_EQ(sweep::runSuite(opts, resumed), 0);
    EXPECT_EQ(first.str(), resumed.str());
    std::string perf = slurp(opts.perfJsonPath);
    EXPECT_NE(perf.find("\n  \"unique_runs\": " +
                        std::to_string(records.size()) + ",\n"),
              std::string::npos)
        << perf;
    EXPECT_NE(perf.find("\n  \"cache_hits\": 1,\n"), std::string::npos)
        << perf;
    EXPECT_NE(perf.find("\n  \"computed_runs\": " +
                        std::to_string(records.size() - 1) + ",\n"),
              std::string::npos)
        << perf;

    std::ostringstream third;
    ASSERT_EQ(sweep::runSuite(opts, third), 0);
    EXPECT_EQ(first.str(), third.str());
    perf = slurp(opts.perfJsonPath);
    EXPECT_NE(perf.find("\n  \"computed_runs\": 0,\n"), std::string::npos)
        << perf;
    std::remove(opts.perfJsonPath.c_str());
}

TEST(SuiteFaultTest, KilledSweepResumesFromTheCache)
{
    expectRerunResumesFromCache(false, "mop-fault-resume");
}

TEST(SuiteFaultTest, KilledIsolatedSweepResumesFromTheCache)
{
    expectRerunResumesFromCache(true, "mop-fault-resume-isolated");
}

TEST(SuiteFaultTest, CacheVerifyModeRepairsAndReports)
{
    registerFaultFigure();
    std::string dir = freshDir("mop-fault-verify");

    // Populate the cache, then damage one record on disk.
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.useCache = true;
    opts.cacheDir = dir;
    std::ostringstream out;
    ASSERT_EQ(sweep::runSuite(opts, out), 0);

    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".res")
            files.push_back(e.path().string());
    ASSERT_FALSE(files.empty());
    {
        std::string bytes = slurp(files[0]);
        bytes[bytes.size() / 2] ^= 0x01;
        std::ofstream f(files[0], std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), std::streamsize(bytes.size()));
    }

    sweep::SuiteOptions verify = opts;
    verify.cacheVerify = true;
    std::ostringstream report;
    EXPECT_EQ(sweep::runSuite(verify, report), 1);  // damage found
    EXPECT_NE(report.str().find("1 corrupt"), std::string::npos)
        << report.str();

    // The damage is gone (quarantined); a second pass is clean, and a
    // fresh sweep recomputes the missing record to the same bytes.
    std::ostringstream cleanReport;
    EXPECT_EQ(sweep::runSuite(verify, cleanReport), 0);
    std::ostringstream again;
    ASSERT_EQ(sweep::runSuite(opts, again), 0);
    EXPECT_EQ(out.str(), again.str());
}

TEST(SuiteFaultTest, CorruptCacheRecordIsRecomputedInSweep)
{
    registerFaultFigure();
    std::string dir = freshDir("mop-fault-corrupt-sweep");
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.useCache = true;
    opts.cacheDir = dir;

    std::ostringstream cold;
    ASSERT_EQ(sweep::runSuite(opts, cold), 0);

    // Damage every cached record: the warm run must detect all of
    // them, recompute, and still produce identical bytes.
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".res")
            continue;
        std::string bytes = slurp(e.path().string());
        bytes[0] ^= 0x40;
        std::ofstream f(e.path().string(),
                        std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), std::streamsize(bytes.size()));
    }
    std::ostringstream warm;
    ASSERT_EQ(sweep::runSuite(opts, warm), 0);
    EXPECT_EQ(cold.str(), warm.str());
}

// --- Cache store that cannot reach the disk ----------------------------

TEST(ResultCacheFaultTest, FailedStoreLeavesNoRecordBehind)
{
    // A child with a zero file-size limit (SIGXFSZ ignored, so the
    // write fails with EFBIG instead) stores one record: the bytes sit
    // in the stream buffer until close, where the flush fails. Nothing
    // may be left behind -- no empty record renamed into place, no temp
    // file -- so the next load is a plain miss, not a corrupt record.
    std::string dir = freshDir("mop-fault-fsize");
    std::filesystem::create_directories(dir);
    sweep::ResultCache cache(dir);
    const Fingerprint fp{1, 2};
    sweep::CacheRecord rec;
    rec.add("cycles", 42);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        struct rlimit none = {0, 0};
        if (::setrlimit(RLIMIT_FSIZE, &none) != 0)
            ::_exit(2);
        cache.store(fp, rec);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    for (const auto &e : std::filesystem::directory_iterator(dir))
        ADD_FAILURE() << "store left " << e.path().filename();
    sweep::CacheRecord out;
    EXPECT_FALSE(cache.load(fp, out));
    EXPECT_EQ(cache.corrupt(), 0u);
}

} // namespace
