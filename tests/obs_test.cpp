/**
 * @file
 * Tests for the observability subsystem (src/obs): stall-attribution
 * accounting and its slots == width * cycles invariant, the cycle-event
 * trace exporter (binary round-trip, Chrome-JSON well-formedness),
 * zero-perturbation of simulation results when tracing, and the cache /
 * fingerprint compatibility rules for observability runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observer.hh"
#include "obs/stall.hh"
#include "obs/trace_export.hh"
#include "sim/config.hh"
#include "sweep/fingerprint.hh"
#include "sweep/result_cache.hh"
#include "trace/profiles.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace mop;

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker, so the Chrome-trace
// output can be validated without an external parser dependency.
// ---------------------------------------------------------------------

struct JsonChecker
{
    const char *p;
    const char *end;
    int depth = 0;

    explicit JsonChecker(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    void ws()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool lit(const char *s)
    {
        size_t n = std::strlen(s);
        if (size_t(end - p) < n || std::strncmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
            }
            ++p;
        }
        if (p >= end)
            return false;
        ++p;  // closing quote
        return true;
    }

    bool number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && (std::isdigit(*p) || *p == '.' || *p == 'e' ||
                           *p == 'E' || *p == '+' || *p == '-'))
            ++p;
        return p > start;
    }

    bool value()
    {
        if (++depth > 64)
            return false;
        ws();
        bool ok = false;
        if (p >= end) {
            ok = false;
        } else if (*p == '{') {
            ++p;
            ws();
            if (p < end && *p == '}') {
                ++p;
                ok = true;
            } else {
                for (;;) {
                    ws();
                    if (!string())
                        break;
                    ws();
                    if (p >= end || *p++ != ':')
                        break;
                    if (!value())
                        break;
                    ws();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    ok = p < end && *p == '}';
                    if (ok)
                        ++p;
                    break;
                }
            }
        } else if (*p == '[') {
            ++p;
            ws();
            if (p < end && *p == ']') {
                ++p;
                ok = true;
            } else {
                for (;;) {
                    if (!value())
                        break;
                    ws();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    ok = p < end && *p == ']';
                    if (ok)
                        ++p;
                    break;
                }
            }
        } else if (*p == '"') {
            ok = string();
        } else if (lit("true") || lit("false") || lit("null")) {
            ok = true;
        } else {
            ok = number();
        }
        --depth;
        return ok;
    }

    bool document()
    {
        bool ok = value();
        ws();
        return ok && p == end;
    }
};

TEST(JsonChecker, SelfTest)
{
    EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":{}})")
                    .document());
    EXPECT_TRUE(JsonChecker("[]").document());
    EXPECT_FALSE(JsonChecker(R"({"a":1)").document());
    EXPECT_FALSE(JsonChecker(R"({"a" 1})").document());
    EXPECT_FALSE(JsonChecker("[1,2,]x").document());
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
        EXPECT_FALSE(exp.isJson());
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

TEST(TraceExport, JsonOutputIsWellFormed)
{
    std::string path = tmpPath("obs_trace.json");
    {
        obs::TraceExporter exp(path);
        EXPECT_TRUE(exp.isJson());
        for (uint64_t i = 0; i < 500; ++i)
            exp.push(makeEvent(i));
        exp.close();
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_TRUE(JsonChecker(text).document());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"occupancy\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceExport, SimulationJsonTraceParses)
{
    std::string path = tmpPath("obs_sim_trace.json");
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    cfg.iqEntries = 32;
    cfg.obs.enabled = true;
    cfg.obs.traceOut = path;
    auto r = sim::runBenchmark("gzip", cfg, 5000);
    EXPECT_GT(r.insts, 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_TRUE(JsonChecker(ss.str()).document());
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

/** A path that fails every write with ENOSPC and whose extension picks
 *  the exporter's sink: a symlink @p name to /dev/full in the test
 *  temp dir. Empty when the platform has no /dev/full. */
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
    // Both sinks, both failure points: a ring flush mid-run (more
    // events than the ring holds) and the final flush in close(). Each
    // reports one error naming the path; a later close() and the
    // destructor stay silent instead of re-flushing and throwing.
    for (const char *name : {"obs_full.evt", "obs_full.json"}) {
        for (uint64_t events : {uint64_t(10), uint64_t(10000)}) {
            std::string path = fullDevicePath(name);
            if (path.empty())
                GTEST_SKIP() << "no /dev/full";
            int errors = 0;
            ::testing::internal::CaptureStderr();
            {
                obs::TraceExporter exp(path);
                try {
                    for (uint64_t i = 0; i < events; ++i)
                        exp.push(makeEvent(i));
                    exp.close();
                } catch (const std::runtime_error &e) {
                    ++errors;
                    EXPECT_NE(std::string(e.what()).find(path),
                              std::string::npos)
                        << e.what();
                }
                EXPECT_NO_THROW(exp.close());
            }
            EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
            EXPECT_EQ(errors, 1) << name << " " << events;
            std::filesystem::remove(path);
        }
    }
}

TEST(TraceExport, UnclosedFailureIsReportedByTheDestructor)
{
    // Never closed: the destructor's final flush fails. It must not
    // throw (that would terminate) and must not drop the error.
    for (const char *name : {"obs_unclosed.evt", "obs_unclosed.json"}) {
        std::string path = fullDevicePath(name);
        if (path.empty())
            GTEST_SKIP() << "no /dev/full";
        ::testing::internal::CaptureStderr();
        {
            obs::TraceExporter exp(path);
            exp.push(makeEvent(1));
        }
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
        EXPECT_NE(err.find(path), std::string::npos) << err;
        std::filesystem::remove(path);
    }
}

TEST(TraceExport, SimulationOntoFullDeviceThrowsOnce)
{
    // The mopsim path: the run throws out of OooCore::run, and
    // unwinding destroys the exporter without a second report.
    for (const char *name : {"obs_sim_full.evt", "obs_sim_full.json"}) {
        std::string path = fullDevicePath(name);
        if (path.empty())
            GTEST_SKIP() << "no /dev/full";
        sim::RunConfig cfg;
        cfg.machine = sim::Machine::Base;
        cfg.iqEntries = 32;
        cfg.obs.enabled = true;
        cfg.obs.traceOut = path;
        ::testing::internal::CaptureStderr();
        EXPECT_THROW(sim::runBenchmark("mcf", cfg, 3000),
                     std::runtime_error)
            << name;
        EXPECT_EQ(::testing::internal::GetCapturedStderr(), "") << name;
        std::filesystem::remove(path);
    }
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
