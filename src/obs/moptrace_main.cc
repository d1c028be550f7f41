/**
 * @file
 * moptrace: offline analysis of MOPEVTRC cycle-event traces.
 *
 *   moptrace report   <trace>            headline metrics
 *   moptrace timeline <trace> [--interval N]
 *                                        per-interval IPC / MOP coverage /
 *                                        replay rate + phase segmentation
 *   moptrace critpath <trace>            critical-path composition and
 *                                        2-cycle-loop what-if estimate
 *   moptrace diff     <A> <B> [--fail-on PCT]
 *                                        field-level regression triage
 *   moptrace render   <trace> [-o out.html] [--window A:B]
 *                     [--max-insts N] [--critpath]
 *                                        self-contained interactive HTML
 *                                        waterfall (pan/zoom schedule
 *                                        visualization)
 *
 * Traces come from `mopsim --trace-out file.evt` (any MOPEVTRC
 * version; v1 files load with the lifecycle extension defaulted, so
 * report/diff work but critpath attribution degrades gracefully).
 */

#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/critpath.hh"
#include "obs/render.hh"
#include "sim/cli_opts.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace mop;

/** A cycle or instruction count option: an unsigned decimal. */
uint64_t
cycleArg(const char *opt, const std::string &value)
{
    return sim::parseUintOption(opt, value, 0, ~0ULL);
}

int
usage()
{
    std::cerr
        << "usage: moptrace report   <trace.evt>\n"
        << "       moptrace timeline <trace.evt> [--interval CYCLES]\n"
        << "       moptrace critpath <trace.evt>\n"
        << "       moptrace diff     <A.evt> <B.evt> [--fail-on PCT]\n"
        << "       moptrace render   <trace.evt> [-o out.html]"
           " [--window A:B]\n"
        << "                         [--max-insts N] [--critpath]\n";
    return 2;
}

struct LoadedTrace
{
    uint32_t version = 0;
    std::vector<trace::CycleEvent> events;
};

LoadedTrace
load(const std::string &path)
{
    LoadedTrace t;
    trace::EventTraceReader rd(path);
    t.version = rd.version();
    trace::CycleEvent ev;
    while (rd.next(ev))
        t.events.push_back(ev);
    return t;
}

int
cmdReport(const std::string &path)
{
    LoadedTrace t = load(path);
    std::cout << "trace         " << path << " (MOPEVTRC v" << t.version
              << ")\n";
    obs::printSummary(std::cout, obs::summarizeTrace(t.events));
    return 0;
}

int
cmdTimeline(const std::string &path, uint64_t interval)
{
    LoadedTrace t = load(path);
    obs::printTimeline(std::cout, obs::analyzeTimeline(t.events, interval));
    return 0;
}

int
cmdCritpath(const std::string &path)
{
    LoadedTrace t = load(path);
    if (t.version < 2)
        std::cerr << "note: v" << t.version
                  << " trace lacks lifecycle records; attribution is "
                     "coarse\n";
    obs::printCritPath(std::cout, obs::analyzeCritPath(t.events));
    return 0;
}

/** "A:B" / "A:" / ":B" -> inclusive cycle window (missing side stays
 *  at the RenderOptions default). */
void
parseWindow(const std::string &spec, obs::RenderOptions &opts)
{
    size_t colon = spec.find(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("--window expects LO:HI, got '" +
                                    spec + "'");
    if (colon > 0)
        opts.windowLo = cycleArg("--window", spec.substr(0, colon));
    if (colon + 1 < spec.size())
        opts.windowHi = cycleArg("--window", spec.substr(colon + 1));
    if (opts.windowHi < opts.windowLo)
        throw std::invalid_argument("--window: HI < LO");
}

int
cmdRender(const std::string &path, const std::string &outPath,
          obs::RenderOptions opts)
{
    LoadedTrace t = load(path);
    opts.traceVersion = t.version;
    if (t.version < 2)
        std::cerr << "note: v" << t.version
                  << " trace renders in degraded mode (no frontend "
                     "stages, dep edges or MOP groups; see DESIGN.md)\n";
    obs::RenderModel model = obs::buildRenderModel(t.events, opts);
    std::string html = obs::renderWaterfallHtml(model);
    std::ofstream out(outPath, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + outPath);
    out.write(html.data(), std::streamsize(html.size()));
    out.close();
    if (!out)
        throw std::runtime_error("short write to " + outPath);
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
cmdDiff(const std::string &pa, const std::string &pb, double fail_on)
{
    LoadedTrace ta = load(pa), tb = load(pb);
    obs::TraceSummary sa = obs::summarizeTrace(ta.events);
    obs::TraceSummary sb = obs::summarizeTrace(tb.events);
    obs::CritPathReport ca = obs::analyzeCritPath(ta.events);
    obs::CritPathReport cb = obs::analyzeCritPath(tb.events);

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
    for (size_t i = 0; i < obs::kNumCritCauses; ++i) {
        static std::string names[obs::kNumCritCauses];
        names[i] = std::string("crit_") +
                   obs::critCauseName(obs::CritCause(i));
        // Critical-path stall cycles: smaller is better, except the
        // useful-work segments which are informational.
        obs::CritCause c = obs::CritCause(i);
        int dir = (c == obs::CritCause::ChainLatency ||
                   c == obs::CritCause::Dispatch ||
                   c == obs::CritCause::CommitWait)
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    // Every option is parsed before any trace is loaded: a malformed
    // value is a usage error (exit 2), never a silently altered run.
    try {
        if (cmd == "report")
            return cmdReport(argv[2]);
        if (cmd == "critpath")
            return cmdCritpath(argv[2]);
        if (cmd == "timeline") {
            uint64_t interval = 0;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc)
                    interval = cycleArg("--interval", argv[++i]);
                else
                    return usage();
            }
            return cmdTimeline(argv[2], interval);
        }
        if (cmd == "render") {
            const std::string in = argv[2];
            std::string out;
            obs::RenderOptions opts;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
                    out = argv[++i];
                else if (std::strcmp(argv[i], "--window") == 0 &&
                         i + 1 < argc)
                    parseWindow(argv[++i], opts);
                else if (std::strcmp(argv[i], "--max-insts") == 0 &&
                         i + 1 < argc)
                    opts.maxInsts = cycleArg("--max-insts", argv[++i]);
                else if (std::strcmp(argv[i], "--critpath") == 0)
                    opts.critpath = true;
                else
                    return usage();
            }
            if (out.empty()) {
                out = in;
                if (out.size() > 4 &&
                    out.compare(out.size() - 4, 4, ".evt") == 0)
                    out.replace(out.size() - 4, 4, ".html");
                else
                    out += ".html";
            }
            return cmdRender(in, out, opts);
        }
        if (cmd == "diff") {
            if (argc < 4)
                return usage();
            double failOn = 0;
            for (int i = 4; i < argc; ++i) {
                if (std::strcmp(argv[i], "--fail-on") == 0 && i + 1 < argc)
                    failOn = sim::parseDecimalOption("--fail-on", argv[++i],
                                                     0, 1e6);
                else
                    return usage();
            }
            return cmdDiff(argv[2], argv[3], failOn);
        }
    } catch (const std::invalid_argument &e) {
        std::cerr << "moptrace: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "moptrace: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
