/**
 * @file
 * moptrace: offline analysis and views of MOPEVTRC cycle-event
 * traces, one kCommands row per command. Traces come from `mopsim
 * --trace-out` (any MOPEVTRC version; v1 files load with the
 * lifecycle extension defaulted, so report/diff work but critpath
 * attribution degrades). `json` is the Chrome trace-event view.
 */

#include "obs/render.hh"

#include <inttypes.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string_view>

#include "isa/uop.hh"
#include "obs/critpath.hh"
#include "trace/trace_file.hh"

namespace mop::obs
{

namespace
{

using Traces = std::vector<std::string>;

/** "A:B" / "A:" / ":B" -> inclusive cycle window (missing side stays
 *  at the RenderOptions default). */
void
parseWindow(const std::string &spec, RenderOptions &opts)
{
    size_t colon = spec.find(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("--window expects LO:HI, got '" +
                                    spec + "'");
    if (colon > 0)
        opts.windowLo =
            sim::parseUintOption("--window", spec.substr(0, colon), 0, ~0ULL);
    if (colon + 1 < spec.size())
        opts.windowHi =
            sim::parseUintOption("--window", spec.substr(colon + 1), 0, ~0ULL);
}

int
cmdRender(const Traces &paths, const MoptraceArgs &a)
{
    const std::string &path = paths[0];
    const bool evt = path.size() > 4 && path.ends_with(".evt");
    const size_t stem = path.size() - (evt ? 4 : 0);
    const std::string outPath =
        a.out.empty() ? path.substr(0, stem) + ".html" : a.out;
    // Created before the trace is decoded, so an unwritable page fails
    // at once; the page appears only once it is whole.
    sim::OutputFile out(outPath);
    RenderOptions opts = a.render;
    const auto events = trace::readEventTrace(path, &opts.traceVersion);
    if (opts.traceVersion < 2)
        std::cerr << "note: v" << opts.traceVersion
                  << " trace renders in degraded mode (no frontend "
                     "stages, dep edges or MOP groups; see DESIGN.md)\n";
    RenderModel model = buildRenderModel(events, opts);
    std::string html = renderWaterfallHtml(model);
    out.stream() << html;
    out.commit();
    std::cout << "rendered " << model.rows.size() << " row(s) ("
              << model.windowInsts << " inst(s)"
              << (model.truncated ? ", truncated" : "") << ") -> "
              << outPath << " (" << html.size() << " bytes)\n";
    return 0;
}

/** One compared field of the diff: printed, and counted as a
 *  regression when it moved against @p goodDir by more than the
 *  threshold. goodDir > 0 means larger-is-better, < 0 smaller-is-
 *  better, 0 neutral (informational only). */
struct DiffRow
{
    const char *name;
    double a, b;
    int goodDir;
};

int
cmdDiff(const Traces &paths, const MoptraceArgs &a)
{
    const std::string &pa = paths[0], &pb = paths[1];
    const double fail_on = a.failOn;
    const auto ta = trace::readEventTrace(pa), tb = trace::readEventTrace(pb);
    TraceSummary sa = summarizeTrace(ta);
    TraceSummary sb = summarizeTrace(tb);
    CritPathReport ca = analyzeCritPath(ta);
    CritPathReport cb = analyzeCritPath(tb);

    std::vector<DiffRow> rows = {
        {"cycles", double(sa.cycles), double(sb.cycles), -1},
        {"insts", double(sa.insts), double(sb.insts), 0},
        {"uops", double(sa.uops), double(sb.uops), 0},
        {"ipc", sa.ipc, sb.ipc, +1},
        {"mop_coverage", sa.mopCoverage, sb.mopCoverage, +1},
        {"replay_rate", sa.replayRate, sb.replayRate, -1},
        {"dl1_misses", double(sa.dl1Misses), double(sb.dl1Misses), -1},
        {"avg_iq_occ", sa.avgIqOcc, sb.avgIqOcc, 0},
        {"avg_rob_occ", sa.avgRobOcc, sb.avgRobOcc, 0},
    };
    for (size_t i = 0; i < kNumCritCauses; ++i) {
        static std::string names[kNumCritCauses];
        names[i] = std::string("crit_") + critCauseName(CritCause(i));
        // Critical-path stall cycles: smaller is better, except the
        // useful-work segments which are informational.
        CritCause c = CritCause(i);
        int dir = (c == CritCause::ChainLatency ||
                   c == CritCause::Dispatch ||
                   c == CritCause::CommitWait)
                      ? 0
                      : -1;
        rows.push_back({names[i].c_str(), double(ca.causeCycles[i]),
                        double(cb.causeCycles[i]), dir});
    }

    std::printf("%-18s %14s %14s %10s %8s\n", "field", pa.size() > 14
                                                           ? "A"
                                                           : pa.c_str(),
                pb.size() > 14 ? "B" : pb.c_str(), "delta", "pct");
    int regressions = 0;
    for (const auto &row : rows) {
        double delta = row.b - row.a;
        double pct = row.a != 0 ? 100.0 * delta / std::fabs(row.a)
                                : (row.b != 0 ? 100.0 : 0.0);
        bool bad = row.goodDir != 0 && fail_on > 0 &&
                   std::fabs(pct) >= fail_on &&
                   ((row.goodDir > 0) ? delta < 0 : delta > 0);
        if (bad)
            ++regressions;
        std::printf("%-18s %14.4g %14.4g %+10.4g %+7.2f%% %s\n", row.name,
                    row.a, row.b, delta, pct, bad ? "REGRESSED" : "");
    }
    if (regressions) {
        std::printf("%d field(s) regressed beyond %.2f%%\n", regressions,
                    fail_on);
        return 1;
    }
    return 0;
}

/** The Chrome trace-event view of a trace on stdout, streamed record
 *  by record: an "X" slice per µop from fetch to commit, on one of 16
 *  lanes by dynamic id so concurrent µops stack, and a "C" sample per
 *  occupancy counter event. Timestamps are cycles. */
int
cmdJson(const Traces &paths, const MoptraceArgs &)
{
    trace::EventTraceReader rd(paths[0]);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", stdout);
    trace::CycleEvent ev;
    for (bool first = true; !std::ferror(stdout) && rd.next(ev);
         first = false) {
        if (!first)
            std::fputc(',', stdout);
        if (ev.kind == trace::CycleEvent::Kind::Counter) {
            std::printf("\n{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":0,"
                        "\"ts\":%" PRIu64 ",\"args\":{\"iq\":%" PRIu64
                        ",\"rob\":%" PRIu64 ",\"frontend\":%" PRIu64
                        ",\"mopPending\":%" PRIu64 "}}",
                        ev.insert, ev.issue, ev.execStart, ev.complete,
                        ev.commit);
            continue;
        }
        const uint64_t dur = ev.commit >= ev.fetch ? ev.commit - ev.fetch : 0;
        std::printf("\n{\"name\":\"%s\",\"cat\":\"uop\",\"ph\":\"X\","
                    "\"pid\":0,\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                    ",\"args\":{\"seq\":%" PRIu64 ",\"pc\":%" PRIu64
                    ",\"insert\":%" PRIu64 ",\"ready\":%" PRIu64
                    ",\"issue\":%" PRIu64 ",\"execStart\":%" PRIu64
                    ",\"complete\":%" PRIu64 ",\"flags\":%u}}",
                    isa::opClassName(isa::OpClass(ev.op)),
                    unsigned(ev.seq % 16), ev.fetch, dur, ev.seq, ev.pc,
                    ev.insert, ev.ready, ev.issue, ev.execStart, ev.complete,
                    unsigned(ev.flags));
    }
    std::fputs("\n]}\n", stdout);
    return 0;
}

/** One moptrace command: its traces and what it runs. */
struct Command
{
    std::string_view name;
    size_t traces;
    const char *args;  ///< the traces, as --help prints them
    int (*run)(const Traces &, const MoptraceArgs &);
};

constexpr Command kCommands[] = {
    {"report", 1, "<trace.evt>",
     [](const Traces &paths, const MoptraceArgs &) {
         uint32_t version = 0;
         const auto events = trace::readEventTrace(paths[0], &version);
         std::cout << "trace         " << paths[0] << " (MOPEVTRC v"
                   << version << ")\n";
         printSummary(std::cout, summarizeTrace(events));
         return 0;
     }},
    {"timeline", 1, "<trace.evt>",
     [](const Traces &paths, const MoptraceArgs &a) {
         const auto events = trace::readEventTrace(paths[0]);
         printTimeline(std::cout, analyzeTimeline(events, a.interval));
         return 0;
     }},
    {"critpath", 1, "<trace.evt>",
     [](const Traces &paths, const MoptraceArgs &) {
         uint32_t version = 0;
         const auto events = trace::readEventTrace(paths[0], &version);
         if (version < 2)
             std::cerr << "note: v" << version
                       << " trace lacks lifecycle records; attribution is "
                          "coarse\n";
         printCritPath(std::cout, analyzeCritPath(events));
         return 0;
     }},
    {"diff", 2, "<A.evt> <B.evt>", cmdDiff},
    {"render", 1, "<trace.evt>", cmdRender},
    {"json", 1, "<trace.evt>", cmdJson},
};

} // namespace

std::vector<sim::Opt>
moptraceOptions(MoptraceArgs &a, std::string_view command)
{
    using namespace sim;
    // Each row belongs to one command; --help belongs to all of them.
    const std::pair<std::string_view, Opt> rows[] = {
        {"timeline", numOpt("--interval", "CYCLES", parseUintOption, 0, ~0ULL,
                            "timeline: cycles per interval (0: 64 intervals)",
                            into(a.interval))},
        {"diff", numOpt("--fail-on", "PCT", parseDecimalOption, 0, 1e6,
                        "diff: exit 1 if a field regresses PCT% (0: never)",
                        into(a.failOn))},
        {"render", {"-o", "FILE", "render: output page (default: TRACE.html)",
                    into(a.out)}},
        {"render", {"--window", "LO:HI", "render: cycles LO to HI (or A:, :B)",
                    [&a](auto &v) { parseWindow(v, a.render); }}},
        {"render", numOpt("--max-insts", "N", parseUintOption, 0, ~0ULL,
                          "render: stop after N insts (0: no limit)",
                          into(a.render.maxInsts))},
        {"render", switchOpt("--critpath", "render: critical-path blame",
                             a.render.critpath)},
        {command, switchOpt("--help", "print this help (also -h)", a.help)},
    };
    std::vector<Opt> table;
    for (const auto &[cmd, row] : rows)
        if (command.empty() || cmd == command)
            table.push_back(row);
    return table;
}

int
moptraceMain(int argc, char **argv)
{
    // Every argument is parsed and checked before any trace is loaded:
    // a malformed one is a usage error (exit 2), never an altered run.
    MoptraceArgs a;
    try {
        const std::string name = argc > 1 ? argv[1] : "";
        auto cmd = std::find_if(
            std::begin(kCommands), std::end(kCommands),
            [&](const Command &c) { return c.name == name; });
        const bool known = cmd != std::end(kCommands);
        if (!known && !name.starts_with('-'))
            throw std::invalid_argument(name.empty()
                                            ? "missing command (see --help)"
                                            : "unknown command '" + name + "'");
        if (known && size_t(argc) < 2 + cmd->traces)
            throw std::invalid_argument(name + " needs " + cmd->args);
        // A command's options follow its traces, the last of which
        // stands in for argv[0]; without a command only --help parses.
        const int skip = known ? 1 + int(cmd->traces) : 0;
        sim::parseArgs(moptraceOptions(a, name), argc - skip, argv + skip);
        if (a.help) {
            for (const Command &c : kCommands)
                std::cout << (&c == kCommands ? "usage: " : "       ")
                          << "moptrace " << c.name << " " << c.args << "\n";
            sim::printUsage(std::cout, moptraceOptions(a));
            return sim::flushStdout("moptrace", 0);
        }
        if (a.render.windowHi < a.render.windowLo)
            throw std::invalid_argument("--window: HI < LO");
        const int rc = cmd->run({argv + 2, argv + 2 + cmd->traces}, a);
        return sim::flushStdout("moptrace: " + name, rc);
    } catch (const std::invalid_argument &e) {
        std::cerr << "moptrace: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "moptrace: " << e.what() << "\n";
        return 1;
    }
}

} // namespace mop::obs
