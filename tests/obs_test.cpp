/**
 * @file
 * Tests for the observability subsystem (src/obs): stall-attribution
 * accounting and its slots == width * cycles invariant, folding runs of
 * identical cycles into weighted charges, the cycle-event trace
 * exporter (binary round-trip, failures on its writer thread),
 * zero-perturbation of simulation results when tracing, and the cache
 * / fingerprint compatibility rules for observability runs. The shared
 * JSON checker (tool_test.hh) is self-tested here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.hh"
#include "obs/stall.hh"
#include "obs/trace_export.hh"
#include "sim/config.hh"
#include "sweep/fingerprint.hh"
#include "sweep/result_cache.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"
#include "tool_test.hh"

namespace
{

using namespace mop;

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

using test::JsonChecker;

TEST(JsonChecker, SelfTest)
{
    EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":{}})")
                    .document());
    EXPECT_TRUE(JsonChecker("[]").document());
    EXPECT_FALSE(JsonChecker(R"({"a":1)").document());
    EXPECT_FALSE(JsonChecker(R"({"a" 1})").document());
    EXPECT_FALSE(JsonChecker("[1,2,]x").document());
    EXPECT_FALSE(JsonChecker(R"({"a":1,})").document());
    EXPECT_FALSE(JsonChecker("[1 2]").document());
}

// ---------------------------------------------------------------------
// Stall accounting.
// ---------------------------------------------------------------------

TEST(StallAccounting, ChargeDistributesExactlyWidthSlots)
{
    obs::StallAccounting acc(4);
    sched::StallSnapshot snap;
    snap.issuedSlots = 2;
    snap.readyLosers = 1;
    snap.wakeupWait = 5;
    acc.charge(snap, obs::StallCause::Frontend);

    EXPECT_EQ(acc.cycles(), 1u);
    EXPECT_EQ(acc.slots(obs::StallCause::Useful), 2u);
    EXPECT_EQ(acc.slots(obs::StallCause::SelectLoss), 1u);
    EXPECT_EQ(acc.slots(obs::StallCause::WakeupWait), 1u);
    EXPECT_EQ(acc.totalSlots(), 4u);
    EXPECT_NO_THROW(acc.verifyInvariant());
}

TEST(StallAccounting, EmptyQueueChargesUpstream)
{
    obs::StallAccounting acc(4);
    sched::StallSnapshot snap;  // nothing issued, nothing waiting
    acc.charge(snap, obs::StallCause::RobFull);
    EXPECT_EQ(acc.slots(obs::StallCause::RobFull), 4u);
    acc.charge(snap, obs::StallCause::Drain);
    EXPECT_EQ(acc.slots(obs::StallCause::Drain), 4u);
    EXPECT_EQ(acc.totalSlots(), 8u);
    EXPECT_NO_THROW(acc.verifyInvariant());
}

/** A random snapshot whose buckets sum past @p width now and then, so
 *  the ladder's clamping is exercised too. */
sched::StallSnapshot
randomSnapshot(std::mt19937 &rng, int width)
{
    auto n = [&] { return int(rng() % unsigned(width + 2)); };
    sched::StallSnapshot s;
    s.issuedSlots = n();
    s.readyLosers = n();
    s.missWait = n();
    s.replayWait = n();
    s.wakeupWait = n();
    s.pendingHeads = n();
    s.wrongPath = int(rng() % 2) * n();
    return s;
}

TEST(StallAccounting, WeightedChargeEqualsRepeatedCharges)
{
    std::mt19937 rng(5);
    obs::StallAccounting weighted(4), single(4);
    for (int i = 0; i < 500; ++i) {
        sched::StallSnapshot s = randomSnapshot(rng, 4);
        auto up = obs::StallCause(rng() % obs::kNumStallCauses);
        uint64_t n = 1 + rng() % 40;
        weighted.charge(s, up, n);
        for (uint64_t k = 0; k < n; ++k)
            single.charge(s, up);
    }
    EXPECT_EQ(weighted.slots(), single.slots());
    EXPECT_EQ(weighted.cycles(), single.cycles());
    EXPECT_NO_THROW(weighted.verifyInvariant());
}

TEST(ObserverFold, FoldedRunsMatchPerCycleCharging)
{
    // One Observer folds runs of identical cycles; a reference charges
    // and samples every cycle. The stream mixes long repeats,
    // single-cycle blips (A A B A A) and runs crossing the counter
    // period, so every fold boundary and flush point is hit.
    constexpr int kWidth = 4, kIq = 32, kRob = 128;
    std::string path = tmpPath("obs_fold.evt");
    for (uint32_t seed = 1; seed <= 20; ++seed) {
        std::mt19937 rng(seed);
        obs::ObsConfig cfg;
        cfg.enabled = true;
        cfg.traceOut = path;
        cfg.tracePeriod = 16;
        obs::Observer ob(cfg, kWidth, kIq, kRob);
        obs::StallAccounting acc(kWidth);
        stats::Histogram iq = ob.iqOccupancy(), rob = ob.robOccupancy(),
                         fe = ob.frontendOccupancy(),
                         mop = ob.mopPendingOccupancy();
        std::vector<trace::CycleEvent> rows;

        struct In
        {
            sched::StallSnapshot snap;
            obs::StallCause up;
            int iq, rob, fe, mop;
        };
        auto fresh = [&] {
            return In{randomSnapshot(rng, kWidth),
                      obs::StallCause(rng() % obs::kNumStallCauses),
                      int(rng() % (kIq + 1)), int(rng() % (kRob + 1)),
                      int(rng() % 70), int(rng() % 20)};
        };
        In cur = fresh(), prev = cur;
        sched::Cycle now = 0;
        for (int seg = 0; seg < 300; ++seg) {
            // 0: back to the input before a blip; 1: one field changed;
            // 2: a one-cycle blip; 3: anything.
            const unsigned kind = rng() % 4;
            In next = kind == 0 ? prev : kind == 1 ? cur : fresh();
            if (kind == 1) {
                switch (rng() % 6) {
                  case 0: next.snap.wakeupWait ^= 1; break;
                  case 1: next.up = obs::StallCause(
                              (size_t(next.up) + 1) % obs::kNumStallCauses);
                          break;
                  case 2: next.iq ^= 1; break;
                  case 3: next.rob ^= 1; break;
                  case 4: next.fe ^= 1; break;
                  default: next.mop ^= 1; break;
                }
            }
            prev = cur;
            cur = next;
            const uint64_t len = kind == 2 ? 1 : 1 + rng() % 200;
            for (uint64_t k = 0; k < len; ++k, ++now) {
                ob.onCycle(now, cur.snap, cur.up, cur.iq, cur.rob, cur.fe,
                           cur.mop);
                acc.charge(cur.snap, cur.up);
                iq.sample(cur.iq);
                rob.sample(cur.rob);
                fe.sample(cur.fe);
                mop.sample(cur.mop);
                if (now % cfg.tracePeriod == 0) {
                    trace::CycleEvent ev;
                    ev.kind = trace::CycleEvent::Kind::Counter;
                    ev.insert = now;
                    ev.issue = uint64_t(cur.iq);
                    ev.execStart = uint64_t(cur.rob);
                    ev.complete = uint64_t(cur.fe);
                    ev.commit = uint64_t(cur.mop);
                    rows.push_back(ev);
                }
            }
        }
        ob.finish();

        EXPECT_EQ(ob.stalls().slots(), acc.slots()) << seed;
        EXPECT_EQ(ob.stalls().cycles(), acc.cycles()) << seed;
        const std::pair<const stats::Histogram *, const stats::Histogram *>
            hists[] = {{&ob.iqOccupancy(), &iq},
                       {&ob.robOccupancy(), &rob},
                       {&ob.frontendOccupancy(), &fe},
                       {&ob.mopPendingOccupancy(), &mop}};
        for (auto [got, want] : hists) {
            EXPECT_EQ(got->mean(), want->mean()) << seed;
            EXPECT_EQ(got->percentile(0.50), want->percentile(0.50)) << seed;
            EXPECT_EQ(got->percentile(0.95), want->percentile(0.95)) << seed;
            EXPECT_EQ(got->total(), want->total()) << seed;
            EXPECT_EQ(got->overflow(), want->overflow()) << seed;
            for (size_t b = 0; b < want->numBuckets(); ++b)
                ASSERT_EQ(got->bucketCount(b), want->bucketCount(b)) << seed;
        }
        EXPECT_EQ(trace::readEventTrace(path), rows) << seed;
    }
    std::remove(path.c_str());
}

TEST(ObserverOccupancy, TalliesKeepLittlesLawAndAMissedCycleBreaksIt)
{
    // A random issue queue and ROB fed to an Observer once per cycle,
    // with their arrivals and departures in ledgers stamped with the
    // cycle. The histograms finish() samples from the per-value
    // tallies hold Little's law; an observer that misses one busy
    // cycle breaks it.
    using Check = verify::IntegrityChecker::Check;
    constexpr uint64_t kCycles = 3000;
    struct Queue
    {
        explicit Queue(uint64_t c) : cap(c) {}

        uint64_t cap;
        uint64_t live = 0;
        verify::OccupancyLedger ledger;

        void
        step(std::mt19937 &rng, uint64_t c)
        {
            const uint64_t in = std::min<uint64_t>(rng() % 4, cap - live);
            for (uint64_t i = 0; i < in; ++i)
                ledger.arrive(c);
            live += in;
            const uint64_t out = std::min<uint64_t>(rng() % 4, live);
            ledger.depart(c, out);
            live -= out;
        }
    };
    for (bool missOne : {false, true}) {
        std::mt19937 rng(11);
        obs::ObsConfig cfg;
        cfg.enabled = true;
        obs::Observer ob(cfg, 4, 32, 128);
        Queue iq(32), rob(128);
        bool missed = false;
        for (uint64_t c = 0; c < kCycles; ++c) {
            iq.step(rng, c);
            rob.step(rng, c);
            if (missOne && !missed && c >= kCycles / 2 && iq.live > 0 &&
                rob.live > 0) {
                missed = true;
                continue;
            }
            ob.onCycle(c, sched::StallSnapshot{}, obs::StallCause::Frontend,
                       int(iq.live), int(rob.live), 0, 0);
        }
        ob.finish();
        verify::IntegrityChecker ic;
        auto law = [&](const stats::Histogram &h, const Queue &q) {
            ic.requireOccupancyLaw(Check::IqAccounting, "obs.occ",
                                   uint64_t(h.sum()), h.total(), q.ledger,
                                   q.live, kCycles);
        };
        EXPECT_EQ(ob.iqOccupancy().total(), kCycles - missOne);
        EXPECT_EQ(ob.robOccupancy().total(), kCycles - missOne);
        if (missOne) {
            EXPECT_THROW(law(ob.iqOccupancy(), iq), verify::IntegrityError);
            EXPECT_THROW(law(ob.robOccupancy(), rob), verify::IntegrityError);
        } else {
            EXPECT_NO_THROW(law(ob.iqOccupancy(), iq));
            EXPECT_NO_THROW(law(ob.robOccupancy(), rob));
        }
    }
}

TEST(StallAccounting, InvariantHoldsOnEveryProfile)
{
    // The acceptance criterion of the observability PR: on every
    // benchmark profile, every issue slot of every cycle is charged to
    // exactly one cause.
    for (const auto &b : trace::specCint2000()) {
        sim::RunConfig cfg;
        cfg.machine = sim::Machine::MopWiredOr;
        cfg.iqEntries = 32;
        cfg.obs.enabled = true;
        auto r = sim::runBenchmark(b, cfg, 8000);
        ASSERT_GT(r.stallWidth, 0u) << b;
        uint64_t total = std::accumulate(r.stallSlots.begin(),
                                         r.stallSlots.end(), uint64_t(0));
        EXPECT_EQ(total, uint64_t(r.stallWidth) * r.cycles) << b;
        EXPECT_GT(r.stallSlots[size_t(obs::StallCause::Useful)], 0u) << b;
    }
}

// ---------------------------------------------------------------------
// Trace export.
// ---------------------------------------------------------------------

/** Events per ring the exporter hands to its writer thread. */
constexpr uint64_t kExportRing = 4096;

trace::CycleEvent
makeEvent(uint64_t i)
{
    trace::CycleEvent ev;
    ev.kind = i % 7 == 0 ? trace::CycleEvent::Kind::Counter
                         : trace::CycleEvent::Kind::Uop;
    ev.op = uint8_t(i % 11);
    ev.seq = i;
    ev.pc = 0x400000 + 4 * i;
    ev.insert = i;
    ev.issue = i + 2;
    ev.execStart = i + 3;
    ev.complete = i + 4;
    ev.commit = i + 9;
    return ev;
}

TEST(TraceExport, BinaryRoundTripThroughRing)
{
    // More events than the exporter's ring capacity, so the flush path
    // is exercised, then read the file back record for record.
    std::string path = tmpPath("obs_roundtrip.evt");
    constexpr uint64_t kEvents = 10000;
    {
        obs::TraceExporter exp(path);
        for (uint64_t i = 0; i < kEvents; ++i)
            exp.push(makeEvent(i));
        exp.close();
        EXPECT_EQ(exp.emitted(), kEvents);
    }
    auto events = trace::readEventTrace(path);
    ASSERT_EQ(events.size(), kEvents);
    for (uint64_t i = 0; i < kEvents; ++i)
        ASSERT_EQ(events[i], makeEvent(i)) << i;
    std::remove(path.c_str());
}

TEST(TraceExport, RingsThatOutrunTheWriterLandInOrder)
{
    // Filling a ring here takes microseconds and writing one far
    // longer, so most hand-offs find the writer still busy and this
    // thread writes its ring itself, while the writer writes another:
    // every record must still land at its own place in the file.
    std::string path = tmpPath("obs_outrun.evt");
    constexpr uint64_t kEvents = 16 * kExportRing + 123;
    {
        obs::TraceExporter exp(path);
        for (uint64_t i = 0; i < kEvents; ++i)
            exp.push(makeEvent(i));
        exp.close();
        EXPECT_EQ(exp.emitted(), kEvents);
    }
    EXPECT_EQ(std::filesystem::file_size(path), 16 + 112 * kEvents);
    auto events = trace::readEventTrace(path);
    ASSERT_EQ(events.size(), kEvents);
    for (uint64_t i = 0; i < kEvents; ++i)
        ASSERT_EQ(events[i], makeEvent(i)) << i;
    std::remove(path.c_str());
}

TEST(TraceExport, TracingDoesNotPerturbSimulation)
{
    // Observability is read-only: the same run with no observer, with
    // stall accounting only, and with a full binary trace must produce
    // bit-identical simulation results.
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    auto plain = sim::runBenchmark("gcc", cfg, 10000);

    cfg.obs.enabled = true;
    auto observed = sim::runBenchmark("gcc", cfg, 10000);

    std::string path = tmpPath("obs_perturb.evt");
    cfg.obs.traceOut = path;
    auto traced = sim::runBenchmark("gcc", cfg, 10000);
    std::remove(path.c_str());

    auto sig = [](const pipeline::SimResult &r) {
        sweep::CacheRecord rec = sweep::packSimResult(r);
        // Drop the stall-attribution fields: they only exist on
        // observability runs and are not simulation outputs.
        std::erase_if(rec.fields, [](const auto &kv) {
            return kv.first.rfind("stall", 0) == 0;
        });
        return rec.fields;
    };
    EXPECT_EQ(sig(plain), sig(observed));
    EXPECT_EQ(sig(plain), sig(traced));
}

/** A path that fails every write with ENOSPC: a symlink @p name to
 *  /dev/full in the test temp dir. Empty when the platform has no
 *  /dev/full. */
std::string
fullDevicePath(const char *name)
{
    namespace fs = std::filesystem;
    if (!fs::exists("/dev/full"))
        return "";
    fs::path link = fs::path(::testing::TempDir()) / name;
    fs::remove(link);
    fs::create_symlink("/dev/full", link);
    return link.string();
}

TEST(TraceExport, FullDeviceFailsOnceWithoutAbort)
{
    // Every failure point: the final write in close() (10 events), a
    // ring that failed on the writer thread and is reported by close()
    // (5000), and one reported by the push that hands over the next
    // ring (10000). Each reports one error naming the path; a later
    // close() and the destructor stay silent instead of re-flushing
    // and throwing.
    for (uint64_t events : {uint64_t(10), uint64_t(5000), uint64_t(10000)}) {
        std::string path = fullDevicePath("obs_full.evt");
        if (path.empty())
            GTEST_SKIP() << "no /dev/full";
        int errors = 0;
        uint64_t pushed = 0;
        ::testing::internal::CaptureStderr();
        {
            obs::TraceExporter exp(path);
            try {
                for (; pushed < events; ++pushed)
                    exp.push(makeEvent(pushed));
                exp.close();
            } catch (const std::runtime_error &e) {
                ++errors;
                EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                    << e.what();
            }
            EXPECT_NO_THROW(exp.close());
        }
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
        EXPECT_EQ(errors, 1) << events;
        // The push that fails is the one handing over the second
        // ring; with fewer events the failure waits for close().
        const uint64_t failing_push =
            events >= 2 * kExportRing ? 2 * kExportRing - 1 : events;
        EXPECT_EQ(pushed, failing_push) << events;
        std::filesystem::remove(path);
    }
}

TEST(TraceExport, UnclosedFailureIsReportedByTheDestructor)
{
    // Never closed: the destructor's final flush fails (1 event), or
    // a ring already failed on the writer thread and nothing surfaced
    // it yet (5000). It must join the writer, must not throw (that
    // would terminate) and must report the error exactly once.
    for (uint64_t events : {uint64_t(1), uint64_t(5000)}) {
        std::string path = fullDevicePath("obs_unclosed.evt");
        if (path.empty())
            GTEST_SKIP() << "no /dev/full";
        ::testing::internal::CaptureStderr();
        {
            obs::TraceExporter exp(path);
            for (uint64_t i = 0; i < events; ++i)
                exp.push(makeEvent(i));
        }
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1)
            << events << ": " << err;
        EXPECT_NE(err.find(path), std::string::npos) << err;
        std::filesystem::remove(path);
    }
}

TEST(TraceExport, SimulationOntoFullDeviceThrowsOnce)
{
    // The mopsim path: the run throws out of OooCore::run, and
    // unwinding destroys the exporter without a second report.
    std::string path = fullDevicePath("obs_sim_full.evt");
    if (path.empty())
        GTEST_SKIP() << "no /dev/full";
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::Base;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.obs.traceOut = path;
    ::testing::internal::CaptureStderr();
    EXPECT_THROW(sim::runBenchmark("mcf", cfg, 3000), std::runtime_error);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Fingerprint / cache compatibility.
// ---------------------------------------------------------------------

TEST(ObsFingerprint, DisabledObsLeavesFingerprintUnchanged)
{
    // Pre-observability cache entries must stay valid: the obs block
    // is folded into the key only when enabled.
    sim::RunConfig a, b;
    b.obs.traceOut = "ignored.json";  // enabled == false
    b.obs.tracePeriod = 999;
    EXPECT_EQ(sweep::fingerprintSim("gzip", a, 1000).hex(),
              sweep::fingerprintSim("gzip", b, 1000).hex());
}

TEST(ObsFingerprint, EnabledObsChangesFingerprint)
{
    sim::RunConfig off, on;
    on.obs.enabled = true;
    EXPECT_NE(sweep::fingerprintSim("gzip", off, 1000).hex(),
              sweep::fingerprintSim("gzip", on, 1000).hex());

    sim::RunConfig period = on;
    period.obs.tracePeriod = 64;
    EXPECT_NE(sweep::fingerprintSim("gzip", on, 1000).hex(),
              sweep::fingerprintSim("gzip", period, 1000).hex());

    // The trace path is an output location, not a simulation input.
    sim::RunConfig traced = on;
    traced.obs.traceOut = "somewhere.json";
    EXPECT_EQ(sweep::fingerprintSim("gzip", on, 1000).hex(),
              sweep::fingerprintSim("gzip", traced, 1000).hex());
}

TEST(ObsCacheRecord, StallFieldsRoundTrip)
{
    pipeline::SimResult r;
    r.cycles = 1234;
    r.insts = 1000;
    r.ipc = 0.81037277147487844;
    r.stallWidth = 4;
    for (size_t i = 0; i < obs::kNumStallCauses; ++i)
        r.stallSlots[i] = 100 * i + 7;

    pipeline::SimResult back;
    ASSERT_TRUE(sweep::unpackSimResult(sweep::packSimResult(r), back));
    EXPECT_EQ(back.stallWidth, r.stallWidth);
    EXPECT_EQ(back.stallSlots, r.stallSlots);
    EXPECT_EQ(back.cycles, r.cycles);
}

TEST(ObsCacheRecord, LegacyRecordsWithoutStallFieldsStillLoad)
{
    // Records written before the observability PR have no stall keys;
    // they must unpack cleanly with stallWidth == 0.
    pipeline::SimResult r;
    r.cycles = 10;
    r.insts = 8;
    r.ipc = 0.8;
    sweep::CacheRecord rec = sweep::packSimResult(r);
    EXPECT_TRUE(std::none_of(rec.fields.begin(), rec.fields.end(),
                             [](const auto &kv) {
                                 return kv.first.rfind("stall", 0) == 0;
                             }));
    pipeline::SimResult back;
    ASSERT_TRUE(sweep::unpackSimResult(rec, back));
    EXPECT_EQ(back.stallWidth, 0u);
}

} // namespace
