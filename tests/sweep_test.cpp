/**
 * @file
 * Tests for the sweep engine: fingerprint completeness, persistent
 * cache round-trips, executor determinism and parallel equivalence,
 * and the plan/render suite driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "stats/table.hh"
#include "sweep/executor.hh"
#include "sweep/fingerprint.hh"
#include "sweep/result_cache.hh"
#include "sweep/suite.hh"

namespace
{

using namespace mop;
using sweep::Fingerprint;

// --- Fingerprints -------------------------------------------------------

TEST(FingerprintTest, SameInputsSameFingerprint)
{
    sim::RunConfig cfg;
    EXPECT_EQ(sweep::fingerprintSim("gzip", cfg, 1000),
              sweep::fingerprintSim("gzip", cfg, 1000));
}

TEST(FingerprintTest, EveryRunConfigFieldChangesFingerprint)
{
    sim::RunConfig base;
    Fingerprint fp0 = sweep::fingerprintSim("gzip", base, 1000);

    std::vector<std::pair<const char *, sim::RunConfig>> variants;
    auto add = [&](const char *what, auto &&mutate) {
        sim::RunConfig c = base;
        mutate(c);
        variants.emplace_back(what, c);
    };
    add("machine", [](auto &c) { c.machine = sim::Machine::MopWiredOr; });
    add("iqEntries", [](auto &c) { c.iqEntries = 16; });
    add("extraStages", [](auto &c) { c.extraStages = 1; });
    add("detectLatency", [](auto &c) { c.detectLatency = 100; });
    add("lastArrivalFilter", [](auto &c) { c.lastArrivalFilter = false; });
    add("independentMops", [](auto &c) { c.independentMops = false; });
    add("cycleHeuristic", [](auto &c) { c.cycleHeuristic = false; });
    add("mopSize", [](auto &c) { c.mopSize = 3; });
    add("schedDepth", [](auto &c) { c.schedDepth = 3; });
    add("faultRate",
        [](auto &c) { c.faults[verify::FaultKind::SpuriousWakeup] = 0.01; });
    add("faultSeed", [](auto &c) { c.faults.seed = 99; });

    std::set<Fingerprint> seen{fp0};
    for (const auto &[what, cfg] : variants) {
        Fingerprint fp = sweep::fingerprintSim("gzip", cfg, 1000);
        EXPECT_NE(fp, fp0) << what << " not folded into the fingerprint";
        EXPECT_TRUE(seen.insert(fp).second)
            << what << " collides with another variant";
    }
}

TEST(FingerprintTest, BudgetBenchAndVersionChangeFingerprint)
{
    sim::RunConfig cfg;
    Fingerprint fp = sweep::fingerprintSim("gzip", cfg, 1000);
    EXPECT_NE(sweep::fingerprintSim("gzip", cfg, 2000), fp)
        << "instruction budget not folded in";
    EXPECT_NE(sweep::fingerprintSim("bzip", cfg, 1000), fp);
    EXPECT_NE(sweep::fingerprintSim("gzip", cfg, 1000, "other-version"),
              fp)
        << "simulator version must invalidate cached results";
}

TEST(FingerprintTest, AnalysisKindsAreDisjoint)
{
    Fingerprint d = sweep::fingerprintAnalysis(sweep::JobKind::Distance,
                                               "gzip", 1000);
    Fingerprint g2 = sweep::fingerprintAnalysis(sweep::JobKind::Grouping,
                                                "gzip", 1000, 2);
    Fingerprint g8 = sweep::fingerprintAnalysis(sweep::JobKind::Grouping,
                                                "gzip", 1000, 8);
    EXPECT_NE(d, g2);
    EXPECT_NE(g2, g8);
}

// --- Persistent cache ---------------------------------------------------

/** Fresh per-test cache directory (TempDir persists across runs). */
std::string
freshCacheDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ResultCacheTest, RoundTripIsBitExact)
{
    sweep::ResultCache cache(freshCacheDir("mopsim-cache-rt"));
    pipeline::SimResult r = sim::runBenchmark("gzip", {}, 2000);
    Fingerprint fp = sweep::fingerprintSim("gzip", {}, 2000);
    cache.store(fp, sweep::packSimResult(r));

    sweep::CacheRecord rec;
    ASSERT_TRUE(cache.load(fp, rec));
    pipeline::SimResult loaded;
    ASSERT_TRUE(sweep::unpackSimResult(rec, loaded));

    EXPECT_EQ(loaded.cycles, r.cycles);
    EXPECT_EQ(loaded.insts, r.insts);
    EXPECT_EQ(loaded.uops, r.uops);
    // Bit-exact doubles, not formatted-and-reparsed approximations.
    EXPECT_EQ(std::memcmp(&loaded.ipc, &r.ipc, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&loaded.avgIqOccupancy, &r.avgIqOccupancy,
                          sizeof(double)),
              0);
    EXPECT_EQ(loaded.groupCounts, r.groupCounts);
    EXPECT_EQ(loaded.iqEntriesInserted, r.iqEntriesInserted);
    EXPECT_EQ(loaded.filterDeletions, r.filterDeletions);
}

TEST(ResultCacheTest, MissingAndCorruptEntriesMiss)
{
    std::string dir = freshCacheDir("mopsim-cache-corrupt");
    sweep::ResultCache cache(dir);
    Fingerprint fp = sweep::fingerprintSim("gzip", {}, 2000);

    sweep::CacheRecord rec;
    EXPECT_FALSE(cache.load(fp, rec));

    // Bad magic.
    cache.store(fp, sweep::packSimResult(pipeline::SimResult{}));
    {
        std::ofstream f(dir + "/" + fp.hex() + ".res", std::ios::trunc);
        f << "not-a-record 7\ncycles 1\n";
    }
    EXPECT_FALSE(cache.load(fp, rec));

    // A valid record, but a required field is gone: load succeeds at
    // the record level and unpack reports the miss.
    {
        sweep::CacheRecord partial;
        partial.add("cycles", 1);
        std::ofstream f(dir + "/" + fp.hex() + ".res", std::ios::trunc);
        f << sweep::encodeRecordV2(partial);
    }
    ASSERT_TRUE(cache.load(fp, rec));
    pipeline::SimResult out;
    EXPECT_FALSE(sweep::unpackSimResult(rec, out));
}

TEST(ResultCacheTest, DisabledCacheNeverHits)
{
    sweep::ResultCache cache;
    EXPECT_FALSE(cache.enabled());
    Fingerprint fp = sweep::fingerprintSim("gzip", {}, 2000);
    cache.store(fp, sweep::packSimResult(pipeline::SimResult{}));
    sweep::CacheRecord rec;
    EXPECT_FALSE(cache.load(fp, rec));
}

// --- Determinism & parallel equivalence ---------------------------------

TEST(SweepDeterminismTest, SameConfigTwiceIsIdentical)
{
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    pipeline::SimResult a = sim::runBenchmark("gzip", cfg, 3000);
    pipeline::SimResult b = sim::runBenchmark("gzip", cfg, 3000);
    EXPECT_EQ(sweep::packSimResult(a).fields,
              sweep::packSimResult(b).fields);
}

TEST(SweepExecutorTest, ParallelMatchesSerialBitForBit)
{
    std::vector<sweep::SweepJob> batch;
    for (const char *bench : {"gzip", "mcf", "eon"}) {
        for (auto m : {sim::Machine::Base, sim::Machine::TwoCycle,
                       sim::Machine::MopWiredOr}) {
            sweep::SweepJob j;
            j.bench = bench;
            j.cfg.machine = m;
            j.insts = 2000;
            batch.push_back(j);
        }
    }
    sweep::SweepJob d;
    d.kind = sweep::JobKind::Distance;
    d.bench = "gzip";
    d.insts = 2000;
    batch.push_back(d);

    auto serial = sweep::SweepExecutor(1).runAll(batch);
    auto parallel = sweep::SweepExecutor(8).runAll(batch);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].record.fields, parallel[i].record.fields)
            << "job " << i << " diverged across worker counts";
}

TEST(SweepExecutorTest, JobExceptionsPropagate)
{
    std::vector<sweep::SweepJob> batch(3);
    for (auto &j : batch) {
        j.bench = "gzip";
        j.insts = 1000;
    }
    batch[1].bench = "no-such-benchmark";
    EXPECT_THROW(sweep::SweepExecutor(2).runAll(batch),
                 sweep::SweepBatchError);
}

TEST(SweepExecutorTest, BatchErrorNamesEveryFailedJob)
{
    // Two bad jobs in one batch: the aggregate error must report both,
    // in batch order, not just whichever worker lost the race.
    std::vector<sweep::SweepJob> batch(4);
    for (auto &j : batch) {
        j.bench = "gzip";
        j.insts = 1000;
    }
    batch[1].bench = "no-such-benchmark";
    batch[3].bench = "also-missing";
    try {
        sweep::SweepExecutor(4).runAll(batch);
        FAIL() << "expected SweepBatchError";
    } catch (const sweep::SweepBatchError &e) {
        ASSERT_EQ(e.failures().size(), 2u);
        EXPECT_EQ(e.failures()[0].index, 1u);
        EXPECT_EQ(e.failures()[1].index, 3u);
        EXPECT_NE(e.failures()[0].job.find("no-such-benchmark"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("also-missing"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2 of 4"),
                  std::string::npos);
    }
}

TEST(SweepExecutorTest, CompletionHookFiresForSuccessesOnly)
{
    std::vector<sweep::SweepJob> batch(3);
    for (auto &j : batch) {
        j.bench = "gzip";
        j.insts = 1000;
    }
    batch[1].bench = "no-such-benchmark";
    sweep::SweepExecutor exec(2);
    std::vector<size_t> completed;
    exec.setCompletion([&](size_t i, const sweep::SweepOutcome &o) {
        EXPECT_FALSE(o.record.fields.empty());
        completed.push_back(i);
    });
    EXPECT_THROW(exec.runAll(batch), sweep::SweepBatchError);
    std::sort(completed.begin(), completed.end());
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0], 0u);
    EXPECT_EQ(completed[1], 2u);
}

TEST(SweepExecutorTest, HookExceptionEndsTheBatchNotTheProcess)
{
    // A completion hook (or telemetry flush) that throws on a worker
    // thread used to escape it and terminate the process; it must
    // come back out of runAll instead, after the jobs in flight.
    std::vector<sweep::SweepJob> batch(4);
    for (auto &j : batch) {
        j.bench = "gzip";
        j.insts = 1000;
    }
    for (int workers : {1, 2}) {
        sweep::SweepExecutor exec(workers);
        size_t calls = 0;
        exec.setCompletion([&](size_t, const sweep::SweepOutcome &) {
            ++calls;
            throw std::runtime_error("cache disk full");
        });
        try {
            exec.runAll(batch);
            ADD_FAILURE() << workers << " worker(s): must throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "cache disk full");
        }
        // Only jobs already taken finish; none is handed out after.
        EXPECT_GE(calls, 1u);
        EXPECT_LE(calls, size_t(workers));
    }
}

// --- Suite driver -------------------------------------------------------

void
registerTestFigure()
{
    sweep::Suite::instance().add(
        {"_test-mini", "suite-driver test figure",
         [](sweep::Context &ctx, std::ostream &out) {
             sim::RunConfig cfg;
             out << "mini insts=" << ctx.insts() << "\n";
             double base = ctx.baseIpc("gzip", 32);
             cfg.machine = sim::Machine::MopWiredOr;
             cfg.iqEntries = 32;
             pipeline::SimResult r = ctx.run("gzip", cfg);
             out << "norm " << stats::Table::fmt(r.ipc / base) << "\n";
             analysis::GroupingResult g = ctx.grouping("gzip", 2);
             out << "grouped " << stats::Table::pct(g.groupedFrac())
                 << "\n";
         }});
}

TEST(SuiteTest, ParallelRenderMatchesSerialByteForByte)
{
    registerTestFigure();
    sweep::SuiteOptions opts;
    opts.only = {"_test-mini"};
    opts.insts = 2000;
    opts.useCache = false;

    std::ostringstream serial, parallel;
    opts.jobs = 1;
    ASSERT_EQ(sweep::runSuite(opts, serial), 0);
    opts.jobs = 8;
    ASSERT_EQ(sweep::runSuite(opts, parallel), 0);
    EXPECT_FALSE(serial.str().empty());
    EXPECT_EQ(serial.str(), parallel.str());
}

TEST(SuiteTest, WarmCacheRenderIsIdentical)
{
    registerTestFigure();
    sweep::SuiteOptions opts;
    opts.only = {"_test-mini"};
    opts.insts = 2000;
    opts.jobs = 2;
    opts.cacheDir = freshCacheDir("mopsim-cache-suite");

    std::ostringstream cold, warm;
    ASSERT_EQ(sweep::runSuite(opts, cold), 0);
    ASSERT_EQ(sweep::runSuite(opts, warm), 0);
    EXPECT_EQ(cold.str(), warm.str());

    // The warm pass served everything from disk: remove the cache dir
    // and a third run still recomputes the same bytes.
    std::filesystem::remove_all(opts.cacheDir);
    std::ostringstream recomputed;
    ASSERT_EQ(sweep::runSuite(opts, recomputed), 0);
    EXPECT_EQ(cold.str(), recomputed.str());
}

TEST(SuiteTest, UnknownFigureFails)
{
    sweep::SuiteOptions opts;
    opts.only = {"no-such-figure"};
    std::ostringstream out;
    EXPECT_EQ(sweep::runSuite(opts, out), 2);
}

// --- Cached runs --------------------------------------------------------

/** A sim job as the suite plans it for Context::run(). */
sweep::SweepJob
simJob(const std::string &bench, const sim::RunConfig &cfg, uint64_t insts)
{
    sweep::SweepJob job;
    job.kind = sweep::JobKind::Sim;
    job.bench = bench;
    job.cfg = cfg;
    job.insts = insts;
    return job;
}

TEST(RunnerTest, BudgetIsPartOfTheKey)
{
    // Two runs that differ only in budget must not alias cache entries.
    sweep::ResultCache cache(freshCacheDir("mopsim-cache-budget"));
    sim::RunConfig cfg;
    Fingerprint shortFp = sweep::fingerprintSim("gzip", cfg, 1000);
    Fingerprint longFp = sweep::fingerprintSim("gzip", cfg, 4000);
    sweep::CacheRecord a = sweep::computeJob(simJob("gzip", cfg, 1000)).record;
    sweep::CacheRecord b = sweep::computeJob(simJob("gzip", cfg, 4000)).record;
    cache.store(shortFp, a);
    cache.store(longFp, b);

    sweep::CacheRecord loadedA, loadedB;
    ASSERT_TRUE(cache.load(shortFp, loadedA));
    ASSERT_TRUE(cache.load(longFp, loadedB));
    pipeline::SimResult ra, rb;
    ASSERT_TRUE(sweep::unpackSimResult(loadedA, ra));
    ASSERT_TRUE(sweep::unpackSimResult(loadedB, rb));
    EXPECT_LT(ra.insts, rb.insts);

    // And a repeated run is served from its own entry, bit-identically.
    EXPECT_EQ(loadedA.fields, a.fields);
    EXPECT_EQ(loadedB.fields, b.fields);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(RunnerTest, FaultSpecIsPartOfTheKey)
{
    sweep::ResultCache cache(freshCacheDir("mopsim-cache-faults"));
    sim::RunConfig clean;
    sim::RunConfig faulty;
    faulty.faults[verify::FaultKind::SpuriousWakeup] = 0.05;
    faulty.faults.seed = 7;
    Fingerprint cleanFp = sweep::fingerprintSim("gzip", clean, 2000);
    Fingerprint faultyFp = sweep::fingerprintSim("gzip", faulty, 2000);
    EXPECT_NE(cleanFp, faultyFp);

    // With only the clean run stored, the faulty run must miss rather
    // than be served from the clean run's entry.
    sweep::CacheRecord a =
        sweep::computeJob(simJob("gzip", clean, 2000)).record;
    cache.store(cleanFp, a);
    sweep::CacheRecord rec;
    EXPECT_FALSE(cache.load(faultyFp, rec));

    sweep::CacheRecord b =
        sweep::computeJob(simJob("gzip", faulty, 2000)).record;
    cache.store(faultyFp, b);
    ASSERT_TRUE(cache.load(faultyFp, rec));
    EXPECT_EQ(rec.fields, b.fields);
    // Identical records would mean the fault spec changed nothing.
    EXPECT_NE(a.fields, b.fields);
}

} // namespace
