/**
 * @file
 * Tests for the schedule/pipeline visualizer (src/obs/render):
 * golden-pinned kernel waterfall, JSON data-block validity against the
 * mop-render-1 shape, v1 degraded-mode rendering, byte-determinism of
 * repeated renders, windowing/truncation, per-row critpath blame
 * conservation, and the sweep-dashboard surface. Also moptrace's
 * page and Chrome-JSON outputs: `render -o` failures and `json`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "isa/uop.hh"
#include "obs/critpath.hh"
#include "obs/render.hh"
#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sim/config.hh"
#include "trace/trace_file.hh"
#include "tool_test.hh"

namespace
{

using namespace mop;

std::string
tmpPath(const char *name)
{
    // PID-unique: ctest runs each case as its own process in
    // parallel, and cases sharing a literal path race on
    // write/read/remove.
    return std::string(::testing::TempDir()) +
           std::to_string(::getpid()) + "_" + name;
}

/** FNV-1a 64 over the rendered bytes: cheap, stable content pin. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** The fixed render source every test shares: the fib kernel on the
 *  wired-OR MOP machine with tracing on (pure observability, so the
 *  run itself matches the non-traced simulation). */
std::vector<trace::CycleEvent>
kernelEvents()
{
    static const std::vector<trace::CycleEvent> events = [] {
        std::string path = tmpPath("render_fib.evt");
        prog::Program p = prog::assemble(prog::kernelSource("fib"));
        prog::Interpreter src(p);
        sim::RunConfig cfg;
        cfg.machine = sim::Machine::MopWiredOr;
        cfg.iqEntries = 32;
        cfg.obs.enabled = true;
        cfg.obs.traceOut = path;
        pipeline::OooCore core(sim::makeCoreParams(cfg), src);
        core.run(10'000'000);
        auto evs = trace::readEventTrace(path);
        std::remove(path.c_str());
        return evs;
    }();
    return events;
}

using test::JsonChecker;
using test::runEntry;

/** Pull the embedded data block out of a rendered page. */
std::string
dataBlockOf(const std::string &html)
{
    const std::string open =
        "<script id=\"mop-data\" type=\"application/json\">";
    size_t a = html.find(open);
    EXPECT_NE(a, std::string::npos);
    if (a == std::string::npos)
        return {};
    a += open.size();
    size_t b = html.find("</script>", a);
    EXPECT_NE(b, std::string::npos);
    if (b == std::string::npos)
        return {};
    return html.substr(a, b - a);
}

// ---------------------------------------------------------------------
// Golden pin: the fib-kernel waterfall, bytes and all. Regenerate with
// the paste-ready block the failure message prints.
// ---------------------------------------------------------------------

struct GoldenRender
{
    size_t rows;
    size_t groups;
    size_t edges;
    uint64_t windowInsts;
    size_t htmlBytes;
    uint64_t htmlFnv;
};

// clang-format off
const GoldenRender kGoldenFib = {
    113, 38, 132, 113,
    48232, 8781952811572827561ULL};
// clang-format on

TEST(RenderGolden, PinnedKernelWaterfall)
{
    obs::RenderOptions opts;
    opts.critpath = true;
    obs::RenderModel m = obs::buildRenderModel(kernelEvents(), opts);
    std::string html = obs::renderWaterfallHtml(m);
    const GoldenRender &g = kGoldenFib;

    bool match = m.rows.size() == g.rows && m.groups.size() == g.groups &&
                 m.edges.size() == g.edges &&
                 m.windowInsts == g.windowInsts &&
                 html.size() == g.htmlBytes && fnv1a(html) == g.htmlFnv;
    if (match)
        return;

    std::ostringstream diff;
    diff << "fib waterfall render drifted from the pin:\n";
    auto field = [&](const char *name, uint64_t want, uint64_t got) {
        if (want != got)
            diff << "  " << name << ": pinned " << want << ", got "
                 << got << "\n";
    };
    field("rows", g.rows, m.rows.size());
    field("groups", g.groups, m.groups.size());
    field("edges", g.edges, m.edges.size());
    field("windowInsts", g.windowInsts, m.windowInsts);
    field("htmlBytes", g.htmlBytes, html.size());
    field("htmlFnv", g.htmlFnv, fnv1a(html));
    diff << "if the change is intended, re-pin with:\n"
         << "  " << m.rows.size() << ", " << m.groups.size() << ", "
         << m.edges.size() << ", " << m.windowInsts << ",\n  "
         << html.size() << ", " << fnv1a(html) << "ULL};";
    ADD_FAILURE() << diff.str();
}

TEST(Render, DataBlockIsValidJsonWithSchema)
{
    obs::RenderOptions opts;
    opts.critpath = true;
    obs::RenderModel m = obs::buildRenderModel(kernelEvents(), opts);
    std::string html = obs::renderWaterfallHtml(m);
    std::string data = dataBlockOf(html);
    ASSERT_FALSE(data.empty());

    EXPECT_TRUE(JsonChecker(data).document());
    // '<' must never appear raw inside the block, or a pathological
    // opcode/label could terminate the <script> element early.
    EXPECT_EQ(data.find('<'), std::string::npos);

    // Shape check: every top-level key of the mop-render-1 schema, in
    // serialization order (fixed order is part of the determinism
    // contract).
    const char *keys[] = {
        "\"schema\": \"mop-render-1\"", "\"traceVersion\"",
        "\"degraded\"",  "\"summary\"",  "\"window\"",  "\"causes\"",
        "\"opcodes\"",   "\"flagBits\"", "\"stages\"",  "\"rows\"",
        "\"groups\"",    "\"edges\"",    "\"strip\"",   "\"occupancy\"",
        "\"critpath\""};
    size_t at = 0;
    for (const char *k : keys) {
        size_t p = data.find(k, at);
        EXPECT_NE(p, std::string::npos) << "missing or out of order: "
                                        << k;
        if (p == std::string::npos)
            break;
        at = p;
    }
    // A v2 render documents no fallbacks.
    EXPECT_EQ(data.find("\"v1Defaults\""), std::string::npos);
}

TEST(Render, RepeatedRendersAreByteIdentical)
{
    obs::RenderOptions opts;
    opts.critpath = true;
    auto events = kernelEvents();
    std::string a =
        obs::renderWaterfallHtml(obs::buildRenderModel(events, opts));
    std::string b =
        obs::renderWaterfallHtml(obs::buildRenderModel(events, opts));
    EXPECT_EQ(a, b);
    ASSERT_FALSE(a.empty());
}

TEST(Render, WindowAndMaxInstsTruncate)
{
    auto events = kernelEvents();
    obs::RenderModel whole = obs::buildRenderModel(events, {});
    ASSERT_GT(whole.rows.size(), 8u);

    obs::RenderOptions opts;
    opts.maxInsts = 5;
    obs::RenderModel capped = obs::buildRenderModel(events, opts);
    EXPECT_EQ(capped.windowInsts, 5u);
    EXPECT_TRUE(capped.truncated);
    EXPECT_LT(capped.rows.size(), whole.rows.size());

    // A window past the last commit holds nothing.
    obs::RenderOptions late;
    late.windowLo = whole.summary.lastCommit + 1;
    late.windowHi = whole.summary.lastCommit + 100;
    obs::RenderModel empty = obs::buildRenderModel(events, late);
    EXPECT_TRUE(empty.rows.empty());
    EXPECT_FALSE(empty.truncated);

    // Every row's clamped lifetime intersects the requested window.
    obs::RenderOptions mid;
    mid.windowLo = whole.summary.lastCommit / 3;
    mid.windowHi = 2 * whole.summary.lastCommit / 3;
    obs::RenderModel windowed = obs::buildRenderModel(events, mid);
    for (const auto &r : windowed.rows) {
        EXPECT_LE(r.t[0], mid.windowHi);
        EXPECT_GE(r.t[7], mid.windowLo);
    }
}

TEST(Render, PerRowBlameSumsToCritPathComposition)
{
    obs::RenderOptions opts;
    opts.critpath = true;
    obs::RenderModel m = obs::buildRenderModel(kernelEvents(), opts);
    ASSERT_TRUE(m.hasCritPath);

    // The per-row blame is a complete decomposition of the whole-trace
    // composition: same charge ladder, mirrored per commit window.
    std::array<uint64_t, obs::kNumCritCauses> sum{};
    for (const auto &r : m.rows)
        for (const auto &[cause, cycles] : r.blame)
            sum[size_t(cause)] += cycles;
    for (size_t i = 0; i < obs::kNumCritCauses; ++i)
        EXPECT_EQ(sum[i], m.critpath.causeCycles[i])
            << obs::critCauseName(obs::CritCause(i));
    EXPECT_EQ(std::accumulate(sum.begin(), sum.end(), uint64_t(0)),
              m.critpath.cycles);
}

TEST(Render, RowLifecycleIsMonotonicAndSegmentsTile)
{
    obs::RenderModel m = obs::buildRenderModel(kernelEvents(), {});
    ASSERT_FALSE(m.rows.empty());
    for (const auto &r : m.rows) {
        for (int i = 1; i < 8; ++i)
            EXPECT_LE(r.t[i - 1], r.t[i]);
        // Segments tile [fetch, commit] with no overlap, in order.
        uint64_t at = r.t[0];
        for (const auto &s : r.segments) {
            EXPECT_EQ(s.from, at);
            EXPECT_LT(s.from, s.to);
            at = s.to;
        }
        EXPECT_EQ(at, r.t[7]);
    }
}

// ---------------------------------------------------------------------
// v1 degraded mode: hand-write the 64-byte fixed-lifecycle format and
// check the documented defaults hold.
// ---------------------------------------------------------------------

/** Write a v1 MOPEVTRC file: header + n 64-byte records. */
std::string
writeV1Trace(int n)
{
    std::string path = tmpPath("render_v1.evt");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const char magic[8] = {'M', 'O', 'P', 'E', 'V', 'T', 'R', 'C'};
    uint32_t version = 1, reserved = 0;
    f.write(magic, 8);
    f.write(reinterpret_cast<const char *>(&version), 4);
    f.write(reinterpret_cast<const char *>(&reserved), 4);
    for (int i = 0; i < n; ++i) {
        unsigned char rec[64] = {};
        rec[0] = 0;              // kind: Uop
        rec[1] = uint8_t(i % 3); // op
        auto put = [&rec](size_t off, uint64_t v) {
            std::memcpy(rec + off, &v, 8);
        };
        put(8, uint64_t(i));       // seq
        put(16, 0x1000 + 4u * i);  // pc
        put(24, i);                // insert
        put(32, i + 2);            // issue
        put(40, i + 3);            // execStart
        put(48, i + 4);            // complete
        put(56, i + 6);            // commit
        f.write(reinterpret_cast<const char *>(rec), 64);
    }
    return path;
}

TEST(Render, V1TraceRendersDegraded)
{
    std::string path = writeV1Trace(10);
    uint32_t version = 0;
    const auto events = trace::readEventTrace(path, &version);
    std::remove(path.c_str());
    ASSERT_EQ(version, 1u);
    ASSERT_EQ(events.size(), 10u);

    obs::RenderOptions opts;
    opts.traceVersion = 1;
    obs::RenderModel m = obs::buildRenderModel(events, opts);
    EXPECT_TRUE(m.degraded);
    EXPECT_EQ(m.rows.size(), 10u);
    // Documented defaults: fetch == queueReady == insert, ready ==
    // issue, no deps, no MOP groups, every µop is an instruction.
    EXPECT_EQ(m.windowInsts, 10u);
    EXPECT_TRUE(m.edges.empty());
    EXPECT_TRUE(m.groups.empty());
    for (const auto &r : m.rows) {
        EXPECT_EQ(r.t[0], r.t[2]);  // fetch == insert
        EXPECT_EQ(r.t[1], r.t[2]);  // queueReady == insert
        EXPECT_EQ(r.t[3], r.t[4]);  // ready == issue
        EXPECT_EQ(r.dep[0], -1);
        EXPECT_EQ(r.dep[1], -1);
    }

    std::string html = obs::renderWaterfallHtml(m);
    std::string data = dataBlockOf(html);
    EXPECT_TRUE(JsonChecker(data).document());
    EXPECT_NE(data.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(data.find("\"v1Defaults\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Dashboard surface.
// ---------------------------------------------------------------------

obs::DashModel
sampleDash()
{
    obs::DashModel d;
    d.simVersion = "test-sim-v9";
    d.jobs = 4;
    d.instsPerRun = 20000;
    d.uniqueRuns = 12;
    d.cacheHits = 7;
    d.computedRuns = 4;
    d.simulatedInsts = 80000;
    d.wallSeconds = 1.5;
    d.figures.push_back({"fig14", "Fig 14 <speedups>", 6, 3, 0.8, 0.01});
    d.figures.push_back({"tbl3", "Table 3 \"IQ\"", 6, 4, 0.4, 0.02});
    d.machineIpc.emplace_back("base", 1.25);
    d.machineIpc.emplace_back("mop-wiredor", 1.31);
    d.trajectory.push_back({"pin-a", "v1", 1.5e6, 1.4e6, 1.6e6});
    d.trajectory.push_back({"pin-b", "v2", 1.8e6, 1.7e6, 1.9e6});
    d.hasTelemetry = true;
    d.telemetry.batch = "all";
    d.telemetry.totalRuns = 12;
    d.telemetry.completedRuns = 4;
    d.telemetry.cacheHits = 8;
    d.telemetry.workers = 4;
    d.telemetry.utilization = 0.5;
    return d;
}

TEST(RenderDash, JsonValidSelfContainedAndDeterministic)
{
    obs::DashModel d = sampleDash();
    std::string a = obs::renderDashHtml(d);
    std::string b = obs::renderDashHtml(d);
    EXPECT_EQ(a, b);

    std::string data = dataBlockOf(a);
    ASSERT_FALSE(data.empty());
    EXPECT_TRUE(JsonChecker(data).document());
    EXPECT_EQ(data.find('<'), std::string::npos);  // '<' always escaped
    EXPECT_NE(data.find("\"schema\": \"mop-dash-1\""),
              std::string::npos);
    EXPECT_NE(data.find("\"trajectory\""), std::string::npos);
    EXPECT_NE(data.find("pin-b"), std::string::npos);
    EXPECT_NE(data.find("mop-wiredor"), std::string::npos);
    // The marker must be gone and the page self-contained (no
    // external fetches).
    EXPECT_EQ(a.find("__MOP_DASH_DATA__"), std::string::npos);
    EXPECT_EQ(a.find("src=\"http"), std::string::npos);
    EXPECT_EQ(a.find("href=\"http"), std::string::npos);
}

TEST(Render, WaterfallPageIsSelfContained)
{
    obs::RenderModel m = obs::buildRenderModel(kernelEvents(), {});
    std::string html = obs::renderWaterfallHtml(m);
    EXPECT_EQ(html.find("__MOP_RENDER_DATA__"), std::string::npos);
    EXPECT_EQ(html.find("src=\"http"), std::string::npos);
    EXPECT_EQ(html.find("href=\"http"), std::string::npos);
    EXPECT_NE(html.find("<canvas"), std::string::npos);
}

// ---------------------------------------------------------------------
// The moptrace CLI: the rendered page and the Chrome-JSON view.
// ---------------------------------------------------------------------

/** @p events as a MOPEVTRC file of format @p version. */
std::string
writeTrace(const char *name, const std::vector<trace::CycleEvent> &events,
           uint32_t version = 2)
{
    std::string path = tmpPath(name);
    trace::EventTraceWriter w(path, version);
    w.write(events.data(), events.size(), 0);
    w.close();
    return path;
}

TEST(MoptraceRender, PageIsCreatedFirstAndAppearsOnlyWhole)
{
    namespace fs = std::filesystem;
    // The trace is missing too, so an error naming the page shows the
    // page was created before any decode.
    const std::string lost = tmpPath("no-such-dir/x.html");
    test::Outcome r = runEntry(obs::moptraceMain, {"moptrace", "render",
                                                   tmpPath("nosuch.evt"),
                                                   "-o", lost});
    EXPECT_EQ(r.rc, 1);
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(r.err, "moptrace: cannot open " + lost + "\n");

    // A whole trace renders in place; a truncated one leaves no page.
    const std::string trace = writeTrace("render_cut.evt", kernelEvents());
    const std::string page = tmpPath("render_cut.html");
    for (bool cut : {false, true}) {
        if (cut)
            fs::resize_file(trace, fs::file_size(trace) - 50);
        r = runEntry(obs::moptraceMain,
                     {"moptrace", "render", trace, "-o", page});
        EXPECT_EQ(r.rc, cut ? 1 : 0) << r.err;
        EXPECT_EQ(r.err.find("truncated") != std::string::npos, cut) << r.err;
        EXPECT_EQ(fs::exists(page), !cut);
        EXPECT_FALSE(fs::exists(page + ".tmp"));
        fs::remove(page);
    }
    fs::remove(trace);
}

TEST(MoptraceJson, ViewKeepsTheChromeTraceBytes)
{
    // A counter sample, a load and a squashed wrong-path row whose
    // commit field (its squash cycle) is not after its fetch, so its
    // slice lasts 0 cycles.
    using trace::CycleEvent;
    const CycleEvent counter{.kind = CycleEvent::Kind::Counter, .insert = 128,
                             .issue = 17, .execStart = 40, .complete = 9,
                             .commit = 2};
    const CycleEvent load{
        .op = uint8_t(isa::OpClass::Load),
        .flags = CycleEvent::kFlagFirstUop | CycleEvent::kFlagLoad |
                 CycleEvent::kFlagDl1Miss,
        .seq = 41, .pc = 0x400120, .insert = 104, .issue = 107,
        .execStart = 108, .complete = 121, .commit = 125, .fetch = 100,
        .queueReady = 103, .ready = 106, .dep = {40, CycleEvent::kNone}};
    const CycleEvent squashed{.op = uint8_t(isa::OpClass::Branch),
                              .flags = CycleEvent::kFlagWrongPath, .seq = 47,
                              .pc = 0x400200, .insert = 132, .fetch = 130};
    const std::string path =
        writeTrace("json_pin.evt", {counter, load, squashed}, 3);
    test::Outcome r = runEntry(obs::moptraceMain, {"moptrace", "json", path});
    std::remove(path.c_str());
    EXPECT_EQ(r.rc, 0);
    EXPECT_EQ(r.err, "");
    EXPECT_EQ(r.out,
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
              "{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":0,\"ts\":128,"
              "\"args\":{\"iq\":17,\"rob\":40,\"frontend\":9,"
              "\"mopPending\":2}},\n"
              "{\"name\":\"Load\",\"cat\":\"uop\",\"ph\":\"X\",\"pid\":0,"
              "\"tid\":9,\"ts\":100,\"dur\":25,\"args\":{\"seq\":41,"
              "\"pc\":4194592,\"insert\":104,\"ready\":106,\"issue\":107,"
              "\"execStart\":108,\"complete\":121,\"flags\":49}},\n"
              "{\"name\":\"Branch\",\"cat\":\"uop\",\"ph\":\"X\",\"pid\":0,"
              "\"tid\":15,\"ts\":130,\"dur\":0,\"args\":{\"seq\":47,"
              "\"pc\":4194816,\"insert\":132,\"ready\":0,\"issue\":0,"
              "\"execStart\":0,\"complete\":0,\"flags\":128}}\n"
              "]}\n");
    EXPECT_TRUE(JsonChecker(r.out).document());
}

TEST(MoptraceJson, TracesOfEveryVersionConvert)
{
    // One slice or sample per record: the kernel run's trace as v2 and
    // as v3, and a v1 trace with its lifecycle fields defaulted.
    const std::string traces[] = {
        writeTrace("json_v2.evt", kernelEvents()),
        writeTrace("json_v3.evt", kernelEvents(), 3), writeV1Trace(10)};
    for (const std::string &path : traces) {
        const size_t records = trace::readEventTrace(path).size();
        test::Outcome r =
            runEntry(obs::moptraceMain, {"moptrace", "json", path});
        std::remove(path.c_str());
        EXPECT_EQ(r.rc, 0) << r.err;
        EXPECT_EQ(r.err, "");
        EXPECT_TRUE(JsonChecker(r.out).document()) << path;
        size_t slices = 0;
        for (size_t at = 0; (at = r.out.find("\n{", at)) != std::string::npos;
             ++at)
            ++slices;
        EXPECT_EQ(slices, records) << path;
    }
}

TEST(MoptraceJson, FailedStdoutWriteIsOneErrorLine)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    const std::string path = writeTrace("json_full.evt", kernelEvents());
    test::Outcome r =
        test::runEntryToFull(obs::moptraceMain, {"moptrace", "json", path});
    std::remove(path.c_str());
    EXPECT_EQ(r.rc, 1);
    EXPECT_EQ(r.err, "moptrace: json: cannot write stdout\n");
}

TEST(MoptraceCommands, FailedStdoutWriteIsOneErrorLine)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    const std::string path = writeTrace("cmds_full.evt", kernelEvents());
    const std::string page = "cmds_full.html";
    // Every command --help lists, with as many traces as it names.
    const test::Outcome help = runEntry(obs::moptraceMain,
                                        {"moptrace", "--help"});
    size_t commands = 0;
    std::istringstream usage(help.out);
    for (std::string line; std::getline(usage, line);) {
        std::istringstream words(line);
        std::string word, cmd;
        std::vector<std::string> args = {"moptrace"};
        while (words >> word) {
            if (word == "moptrace" && words >> cmd)
                args.push_back(cmd);
            else if (!cmd.empty() && word.starts_with('<'))
                args.push_back(path);
        }
        if (cmd.empty())
            continue;
        ++commands;
        if (cmd == "render") {
            args.push_back("-o");
            args.push_back(page);
        }
        const test::Outcome r = test::runEntryToFull(obs::moptraceMain, args);
        EXPECT_EQ(r.rc, 1) << cmd;
        EXPECT_EQ(r.err, "moptrace: " + cmd + ": cannot write stdout\n");
    }
    EXPECT_EQ(commands, 6u);
    const test::Outcome r =
        test::runEntryToFull(obs::moptraceMain, {"moptrace", "--help"});
    EXPECT_EQ(r.rc, 1);
    EXPECT_EQ(r.err, "moptrace: cannot write stdout\n");
    std::remove(path.c_str());
    std::remove(page.c_str());
}

} // namespace
