/**
 * @file
 * End-to-end tests for the result cache as the sweep's fault
 * tolerance: telemetry and the perf JSON count the same work, a job
 * that fails mid-sweep ends it with exit 1 while the finished jobs
 * stay cached for the rerun, cache-driven resume after a simulated
 * mid-sweep kill, corrupt records met by a sweep and by the
 * --cache-verify maintenance mode, output files that cannot be
 * written, and a cache store that fails at close.
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
#include "tool_test.hh"

namespace
{

using namespace mop;
using sweep::Fingerprint;

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

// --- Suite driver -------------------------------------------------------

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

TEST(SuiteFaultTest, TelemetryAndPerfJsonReportTheSameCounters)
{
    // Both count through the executor's one completion path, so the
    // live series must agree with the perf JSON written at the end.
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.telemetryPath = testing::TempDir() + "mop-fault-counters.prom";
    opts.perfJsonPath = testing::TempDir() + "mop-fault-counters.json";

    std::ostringstream out;
    ASSERT_EQ(sweep::runSuite(opts, out), 0);
    const std::string prom = slurp(opts.telemetryPath);
    const std::string perf = slurp(opts.perfJsonPath);

    const uint64_t computed = perfValue(perf, "computed_runs");
    EXPECT_GT(computed, 0u);
    EXPECT_EQ(promValue(prom, "mop_sweep_runs_completed"), double(computed));
    EXPECT_EQ(promValue(prom, "mop_sweep_simulated_insts_total"),
              double(perfValue(perf, "simulated_insts")));
    std::remove(opts.telemetryPath.c_str());
    std::remove(opts.perfJsonPath.c_str());
}

/** Turns the failing figure's refused run into a runnable one. */
bool gFailingRunFixed = false;

/**
 * Three runs: gzip on base at iq 32, gzip on MOP-wiredOR at iq 1 and
 * gcc on base at iq 32. The core refuses a MOP machine with a 1-entry
 * queue when it is built, so that run throws inside computeJob, after
 * planning; gFailingRunFixed turns it into iq 2.
 */
void
registerFailingFigure()
{
    sweep::Suite::instance().add(
        {"_test-failing-job", "a figure with one run the core refuses",
         [](sweep::Context &ctx, std::ostream &out) {
             double base = ctx.baseIpc("gzip", 32);
             sim::RunConfig cfg;
             cfg.machine = sim::Machine::MopWiredOr;
             cfg.iqEntries = gFailingRunFixed ? 2 : 1;
             pipeline::SimResult r = ctx.run("gzip", cfg);
             out << "failing-fig norm " << stats::Table::fmt(r.ipc / base)
                 << " gcc " << stats::Table::fmt(ctx.baseIpc("gcc", 32))
                 << "\n";
         }});
}

TEST(SuiteFaultTest, ThrowingJobEndsTheSweepAndKeepsTheRestCached)
{
    registerFailingFigure();
    gFailingRunFixed = false;
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.only = {"_test-failing-job"};
    opts.useCache = true;
    opts.cacheDir = freshDir("mop-fault-failed-job");
    opts.perfJsonPath = testing::TempDir() + "mop-fault-failed-job.json";

    // The failed job ends the sweep, named alone; nothing renders, and
    // the two jobs that finished are already in the cache.
    std::ostringstream out;
    try {
        sweep::runSuite(opts, out);
        ADD_FAILURE() << "a refused run must fail the sweep";
    } catch (const sweep::SweepBatchError &e) {
        ASSERT_EQ(e.failures().size(), 1u) << e.what();
        EXPECT_NE(e.failures()[0].job.find("gzip machine=MOP-wiredOR iq=1 "),
                  std::string::npos)
            << e.failures()[0].job;
    }
    EXPECT_EQ(out.str(), "");
    size_t records = 0;
    for (const auto &e : std::filesystem::directory_iterator(opts.cacheDir))
        records += e.path().extension() == ".res";
    EXPECT_EQ(records, 2u);

    // Through the CLI: exit 1, empty stdout, one stderr line naming
    // the job.
    const test::Outcome cli = test::runEntry(
        sweep::suiteMain,
        {"mopsuite", "--only", "_test-failing-job", "--insts", "2000",
         "--jobs", "2", "--no-cache", "--perf", "", "--quiet"});
    EXPECT_EQ(cli.rc, 1) << cli.err;
    EXPECT_EQ(cli.out, "");
    size_t naming = 0;
    std::istringstream lines(cli.err);
    for (std::string line; std::getline(lines, line);)
        naming += line.find("machine=MOP-wiredOR iq=1 ") != std::string::npos;
    EXPECT_EQ(naming, 1u) << cli.err;

    // The rerun computes only the repaired run; the other two come
    // from the cache the failed sweep filled.
    gFailingRunFixed = true;
    std::ostringstream rerun;
    ASSERT_EQ(sweep::runSuite(opts, rerun), 0);
    gFailingRunFixed = false;
    EXPECT_EQ(rerun.str().rfind("failing-fig norm ", 0), 0u) << rerun.str();
    const std::string perf = slurp(opts.perfJsonPath);
    EXPECT_EQ(perfValue(perf, "cache_hits"), 2u) << perf;
    EXPECT_EQ(perfValue(perf, "computed_runs"), 1u) << perf;
    std::remove(opts.perfJsonPath.c_str());
}

/**
 * A sweep killed mid-flight keeps every finished run in the cache.
 * Simulate a kill after the first run finished by deleting every
 * record but one; the rerun must print the same bytes, take that one
 * record from the cache and compute only the rest, and a third run
 * must compute nothing.
 */
void
expectRerunResumesFromCache(const std::string &name)
{
    registerFaultFigure();
    sweep::SuiteOptions opts = faultSuiteOpts();
    opts.useCache = true;
    opts.cacheDir = freshDir(name);
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
    expectRerunResumesFromCache("mop-fault-resume");
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

// --- Output files that cannot be written --------------------------------

TEST(SuiteFaultTest, UnwritableOutputFileExits1AfterTheFigures)
{
    // A missing directory fails at open, /dev/full at the final flush.
    // Either way the figures are already on stdout, and mopsuite exits
    // 1 with one stderr line naming the file.
    registerFaultFigure();
    const std::string dir = freshDir("mop-fault-no-such-dir");
    std::vector<std::string> targets = {dir + "/out"};
    if (std::filesystem::exists("/dev/full"))
        targets.push_back("/dev/full");
    for (const char *flag : {"--json", "--perf", "--render-dash"}) {
        for (const std::string &target : targets) {
            const test::Outcome o = test::runEntry(
                sweep::suiteMain,
                {"mopsuite", "--only", "_test-fault", "--insts", "2000",
                 "--jobs", "2", "--no-cache", "--quiet", "--perf", "", flag,
                 target});
            const std::string what = std::string(flag) + " " + target + ": ";
            EXPECT_EQ(o.rc, 1) << what;
            EXPECT_EQ(o.out.rfind("fault-fig norm ", 0), 0u) << what << o.out;
            EXPECT_EQ(o.err.rfind("mopsuite: ", 0), 0u) << what << o.err;
            EXPECT_NE(o.err.find(target), std::string::npos) << what << o.err;
            EXPECT_EQ(o.err.find('\n'), o.err.size() - 1) << what << o.err;
        }
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
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
