#include "obs/render.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "isa/uop.hh"
#include "render_templates.hh"

namespace mop::obs
{

namespace
{

using trace::CycleEvent;

/** JSON string escaping; also escapes '<' so the serialized block can
 *  never form a "</script>" inside the embedding HTML page. */
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
          case '<': out += "\\u003c"; break;
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

/** Deterministic double formatting (shortest round-trip up to 17
 *  significant digits; same idiom as the sweep JSON writers). */
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

std::string
hexPc(uint64_t pc)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx", (unsigned long long)pc);
    return buf;
}

/** Clamped monotonic lifecycle (same folding rule as critpath.cc's
 *  Life): fetch, queueReady, insert, ready, issue, execStart,
 *  complete, commit. */
std::array<uint64_t, 8>
clampLife(const CycleEvent &ev)
{
    std::array<uint64_t, 8> t;
    t[0] = ev.fetch;
    t[1] = std::max(ev.queueReady, t[0]);
    t[2] = std::max(ev.insert, t[1]);
    t[3] = std::max(ev.ready, t[2]);
    t[4] = std::max(ev.issue, t[3]);
    t[5] = std::max(ev.execStart, t[4]);
    t[6] = std::max(ev.complete, t[5]);
    t[7] = std::max(ev.commit, t[6]);
    return t;
}

/** Replace the single occurrence of @p marker in @p tpl with @p data. */
std::string
splice(const char *tpl, const char *marker, const std::string &data)
{
    std::string page(tpl);
    size_t p = page.find(marker);
    if (p == std::string::npos)
        throw std::logic_error(std::string("render template lacks ") +
                               marker);
    page.replace(p, std::string(marker).size(), data);
    return page;
}

} // namespace

RenderModel
buildRenderModel(const std::vector<CycleEvent> &events,
                 const RenderOptions &opts)
{
    RenderModel m;
    m.traceVersion = opts.traceVersion;
    m.degraded = opts.traceVersion < 2;
    m.summary = summarizeTrace(events);
    m.strip = analyzeTimeline(events);
    m.windowLo = opts.windowLo;
    m.windowHi = opts.windowHi == ~0ULL ? m.summary.lastCommit
                                        : opts.windowHi;
    m.maxInsts = opts.maxInsts;

    std::vector<UopBlame> blames;
    if (opts.critpath) {
        m.critpath = analyzeCritPath(events, &blames);
        m.hasCritPath = true;
        // Integrity: the per-row blame vectors are a complete
        // decomposition of the trace's cycle span -- summed over every
        // committed row they must reproduce the whole-trace composition
        // exactly, wrong-path episodes included. A mismatch means the
        // waterfall would show a different story than the aggregate
        // report, so fail loudly instead of rendering it.
        std::array<uint64_t, kNumCritCauses> sum{};
        for (const auto &b : blames)
            for (size_t c = 0; c < kNumCritCauses; ++c)
                sum[c] += b.causeCycles[c];
        if (sum != m.critpath.causeCycles)
            throw std::logic_error(
                "render: per-row blame does not sum to the "
                "critical-path composition");
    }

    // Row selection: lifetime intersects the inclusive cycle window,
    // capped at maxInsts instructions. In degraded (v1) mode no
    // first-µop flags exist, so every µop counts as an instruction.
    std::unordered_map<uint64_t, size_t> rowBySeq;
    std::vector<std::array<uint64_t, 2>> rawDeps;
    size_t uopIdx = 0;
    bool capped = false;
    for (const auto &ev : events) {
        if (ev.kind == CycleEvent::Kind::Counter) {
            m.occupancy.push_back(
                {ev.insert, ev.issue, ev.execStart, ev.complete,
                 ev.commit});
            continue;
        }
        // Wrong-path rows (v3 traces) never committed: they render as
        // a single dimmed squashed band, carry no critpath blame (the
        // analyzer excludes them from the commit spine), and do not
        // count toward the instruction cap.
        bool wp = (ev.flags & CycleEvent::kFlagWrongPath) != 0;
        size_t blameIdx = wp ? ~size_t(0) : uopIdx++;
        std::array<uint64_t, 8> t = clampLife(ev);
        if (t[7] < m.windowLo || t[0] > m.windowHi)
            continue;
        bool instLike =
            !wp && (m.degraded || (ev.flags & CycleEvent::kFlagFirstUop));
        if (capped)
            continue;
        if (m.maxInsts && instLike && m.windowInsts == m.maxInsts) {
            capped = true;
            m.truncated = true;
            continue;
        }
        if (instLike)
            ++m.windowInsts;

        RenderRow row;
        row.seq = ev.seq;
        row.pc = ev.pc;
        row.op = ev.op;
        row.flags = ev.flags;
        row.mopId = ev.mopId;
        row.t = t;
        bool replayed = (ev.flags & CycleEvent::kFlagReplayed) != 0;
        bool miss = (ev.flags & CycleEvent::kFlagDl1Miss) != 0;
        const CritCause stageCause[7] = {
            CritCause::Frontend,
            CritCause::Capacity,
            CritCause::WakeupWait,
            replayed ? CritCause::Replay : CritCause::SelectLoss,
            CritCause::Dispatch,
            miss ? CritCause::DcacheMiss : CritCause::ChainLatency,
            CritCause::CommitWait,
        };
        if (wp) {
            // One span from fetch to squash (t[7] records the squash
            // cycle, not a commit).
            if (t[7] > t[0])
                row.segments.push_back({CritCause::WrongPath, t[0], t[7]});
        } else {
            for (int s = 0; s < 7; ++s)
                if (t[s + 1] > t[s])
                    row.segments.push_back(
                        {stageCause[s], t[s], t[s + 1]});
        }
        if (m.hasCritPath && blameIdx < blames.size()) {
            const UopBlame &b = blames[blameIdx];
            for (size_t c = 0; c < kNumCritCauses; ++c)
                if (b.causeCycles[c])
                    row.blame.emplace_back(int(c), b.causeCycles[c]);
        }
        rowBySeq.emplace(ev.seq, m.rows.size());
        rawDeps.push_back({ev.dep[0], ev.dep[1]});
        m.rows.push_back(std::move(row));
    }

    // Dependence edges between visible rows (one edge per resolved
    // dep slot, deduplicated when both slots name the same producer).
    for (size_t i = 0; i < m.rows.size(); ++i) {
        for (int k = 0; k < 2; ++k) {
            uint64_t d = rawDeps[i][k];
            if (d == CycleEvent::kNone)
                continue;
            auto it = rowBySeq.find(d);
            if (it == rowBySeq.end())
                continue;
            m.rows[i].dep[k] = int64_t(it->second);
            if (k == 1 && m.rows[i].dep[0] == m.rows[i].dep[1])
                continue;
            m.edges.push_back({it->second, i});
        }
    }

    // MOP-group brackets: rows sharing a pairing id, in first-member
    // order; singletons (partner clipped by the window) are dropped --
    // the per-row grouped flag still marks membership.
    std::unordered_map<uint64_t, size_t> groupIndex;
    std::vector<RenderGroup> groups;
    for (size_t i = 0; i < m.rows.size(); ++i) {
        uint64_t id = m.rows[i].mopId;
        if (id == CycleEvent::kNone)
            continue;
        auto [it, fresh] = groupIndex.try_emplace(id, groups.size());
        if (fresh)
            groups.push_back({id, {}});
        groups[it->second].rows.push_back(i);
    }
    for (auto &g : groups)
        if (g.rows.size() >= 2)
            m.groups.push_back(std::move(g));

    return m;
}

std::string
renderModelJson(const RenderModel &m)
{
    std::ostringstream os;
    os << "{\n\"schema\": \"mop-render-1\",\n";
    os << "\"traceVersion\": " << m.traceVersion << ",\n";
    os << "\"degraded\": " << (m.degraded ? "true" : "false") << ",\n";
    const TraceSummary &s = m.summary;
    os << "\"summary\": {\"events\": " << s.events
       << ", \"uops\": " << s.uops << ", \"insts\": " << s.insts
       << ", \"counters\": " << s.counters
       << ", \"firstFetch\": " << s.firstFetch
       << ", \"lastCommit\": " << s.lastCommit
       << ", \"cycles\": " << s.cycles << ", \"ipc\": " << jsonNum(s.ipc)
       << ", \"mopCoverage\": " << jsonNum(s.mopCoverage)
       << ", \"replayRate\": " << jsonNum(s.replayRate)
       << ", \"loads\": " << s.loads << ", \"dl1Misses\": " << s.dl1Misses
       << ", \"wrongPathUops\": " << s.wrongPathUops
       << ", \"avgIqOcc\": " << jsonNum(s.avgIqOcc)
       << ", \"avgRobOcc\": " << jsonNum(s.avgRobOcc) << "},\n";
    os << "\"window\": {\"lo\": " << m.windowLo << ", \"hi\": " << m.windowHi
       << ", \"maxInsts\": " << m.maxInsts
       << ", \"insts\": " << m.windowInsts
       << ", \"truncated\": " << (m.truncated ? "true" : "false")
       << "},\n";
    if (m.degraded) {
        // The documented v1 fallbacks, restated in-band so a viewer
        // needs no external context to explain the collapsed stages.
        os << "\"v1Defaults\": {\"fetch\": \"insert\", \"queueReady\": "
              "\"insert\", \"ready\": \"issue\", \"deps\": \"none\", "
              "\"mop\": \"ungrouped\", \"instUnit\": \"uop\"},\n";
    }
    os << "\"causes\": [";
    for (size_t i = 0; i < kNumCritCauses; ++i)
        os << (i ? ", " : "") << "\""
           << jsonEscape(critCauseName(CritCause(i))) << "\"";
    os << "],\n\"opcodes\": [";
    for (size_t i = 0; i < isa::kNumOpClasses; ++i)
        os << (i ? ", " : "") << "\""
           << jsonEscape(isa::opClassName(isa::OpClass(i))) << "\"";
    os << "],\n";
    os << "\"flagBits\": {\"first\": 1, \"grouped\": 2, \"head\": 4, "
          "\"replayed\": 8, \"load\": 16, \"miss\": 32, "
          "\"mispredict\": 64, \"wrongPath\": 128},\n";
    os << "\"stages\": [\"fetch\", \"queueReady\", \"insert\", "
          "\"ready\", \"issue\", \"execStart\", \"complete\", "
          "\"commit\"],\n";
    os << "\"rows\": [\n";
    for (size_t i = 0; i < m.rows.size(); ++i) {
        const RenderRow &r = m.rows[i];
        os << "{\"seq\": " << r.seq << ", \"pc\": \"" << hexPc(r.pc)
           << "\", \"op\": " << int(r.op)
           << ", \"flags\": " << int(r.flags) << ", \"mop\": ";
        if (r.mopId == CycleEvent::kNone)
            os << "null";
        else
            os << r.mopId;
        os << ", \"dep\": [" << r.dep[0] << ", " << r.dep[1]
           << "], \"t\": [";
        for (int k = 0; k < 8; ++k)
            os << (k ? ", " : "") << r.t[k];
        os << "], \"seg\": [";
        for (size_t k = 0; k < r.segments.size(); ++k)
            os << (k ? ", " : "") << "[" << int(r.segments[k].cause)
               << ", " << r.segments[k].from << ", " << r.segments[k].to
               << "]";
        os << "]";
        if (!r.blame.empty()) {
            os << ", \"blame\": [";
            for (size_t k = 0; k < r.blame.size(); ++k)
                os << (k ? ", " : "") << "[" << r.blame[k].first << ", "
                   << r.blame[k].second << "]";
            os << "]";
        }
        os << "}" << (i + 1 < m.rows.size() ? "," : "") << "\n";
    }
    os << "],\n\"groups\": [";
    for (size_t i = 0; i < m.groups.size(); ++i) {
        os << (i ? ", " : "") << "{\"mop\": " << m.groups[i].mopId
           << ", \"rows\": [";
        for (size_t k = 0; k < m.groups[i].rows.size(); ++k)
            os << (k ? ", " : "") << m.groups[i].rows[k];
        os << "]}";
    }
    os << "],\n\"edges\": [";
    for (size_t i = 0; i < m.edges.size(); ++i)
        os << (i ? ", " : "") << "[" << m.edges[i].from << ", "
           << m.edges[i].to << "]";
    os << "],\n";
    os << "\"strip\": {\"intervalCycles\": " << m.strip.intervalCycles
       << ", \"intervals\": [";
    for (size_t i = 0; i < m.strip.intervals.size(); ++i) {
        const IntervalSample &iv = m.strip.intervals[i];
        os << (i ? ", " : "") << "[" << iv.startCycle << ", "
           << iv.endCycle << ", " << jsonNum(iv.ipc) << ", "
           << jsonNum(iv.mopCoverage) << ", " << jsonNum(iv.replayRate)
           << "]";
    }
    os << "], \"phases\": [";
    for (size_t i = 0; i < m.strip.phases.size(); ++i) {
        const Phase &p = m.strip.phases[i];
        os << (i ? ", " : "") << "[" << p.firstInterval << ", "
           << p.lastInterval << ", " << p.startCycle << ", "
           << p.endCycle << ", " << jsonNum(p.meanIpc) << "]";
    }
    os << "]},\n\"occupancy\": [";
    for (size_t i = 0; i < m.occupancy.size(); ++i) {
        const OccupancySample &o = m.occupancy[i];
        os << (i ? ", " : "") << "[" << o.cycle << ", " << o.iq << ", "
           << o.rob << ", " << o.frontend << ", " << o.mopPending << "]";
    }
    os << "],\n\"critpath\": ";
    if (!m.hasCritPath) {
        os << "null";
    } else {
        const CritPathReport &c = m.critpath;
        os << "{\"cycles\": " << c.cycles << ", \"uops\": " << c.uops
           << ", \"insts\": " << c.insts
           << ", \"depEdges\": " << c.depEdges
           << ", \"tightEdges\": " << c.tightEdges
           << ", \"whatIfTwoCycle\": " << c.whatIfTwoCycleCycles
           << ", \"causeCycles\": [";
        for (size_t i = 0; i < kNumCritCauses; ++i)
            os << (i ? ", " : "") << c.causeCycles[i];
        os << "]}";
    }
    os << "\n}\n";
    return os.str();
}

std::string
renderWaterfallHtml(const RenderModel &m)
{
    return splice(detail::kWaterfallTemplate, "__MOP_RENDER_DATA__",
                  renderModelJson(m));
}

std::string
renderDashJson(const DashModel &m)
{
    std::ostringstream os;
    os << "{\n\"schema\": \"mop-dash-1\",\n";
    os << "\"simVersion\": \"" << jsonEscape(m.simVersion) << "\",\n";
    os << "\"jobs\": " << m.jobs << ",\n";
    os << "\"instsPerRun\": " << m.instsPerRun << ",\n";
    os << "\"uniqueRuns\": " << m.uniqueRuns << ",\n";
    os << "\"cacheHits\": " << m.cacheHits << ",\n";
    os << "\"computedRuns\": " << m.computedRuns << ",\n";
    os << "\"simulatedInsts\": " << m.simulatedInsts << ",\n";
    os << "\"wallSeconds\": " << jsonNum(m.wallSeconds) << ",\n";
    os << "\"figures\": [\n";
    for (size_t i = 0; i < m.figures.size(); ++i) {
        const DashFigure &f = m.figures[i];
        os << "{\"name\": \"" << jsonEscape(f.name) << "\", \"title\": \""
           << jsonEscape(f.title) << "\", \"runs\": " << f.runs
           << ", \"cacheHits\": " << f.cacheHits
           << ", \"computeSeconds\": " << jsonNum(f.computeSeconds)
           << ", \"renderSeconds\": " << jsonNum(f.renderSeconds) << "}"
           << (i + 1 < m.figures.size() ? "," : "") << "\n";
    }
    os << "],\n\"machineIpc\": [";
    for (size_t i = 0; i < m.machineIpc.size(); ++i)
        os << (i ? ", " : "") << "[\"" << jsonEscape(m.machineIpc[i].first)
           << "\", " << jsonNum(m.machineIpc[i].second) << "]";
    os << "],\n\"trajectory\": [\n";
    for (size_t i = 0; i < m.trajectory.size(); ++i) {
        const DashPerfPoint &p = m.trajectory[i];
        os << "{\"label\": \"" << jsonEscape(p.label)
           << "\", \"simVersion\": \"" << jsonEscape(p.simVersion)
           << "\", \"ipsMedian\": " << jsonNum(p.ipsMedian)
           << ", \"ipsMin\": " << jsonNum(p.ipsMin)
           << ", \"ipsMax\": " << jsonNum(p.ipsMax) << "}"
           << (i + 1 < m.trajectory.size() ? "," : "") << "\n";
    }
    os << "],\n\"telemetry\": ";
    if (!m.hasTelemetry) {
        os << "null";
    } else {
        const TelemetrySink::Snapshot &t = m.telemetry;
        os << "{\"totalRuns\": " << t.totalRuns
           << ", \"completedRuns\": " << t.completedRuns
           << ", \"cacheHits\": " << t.cacheHits
           << ", \"queuedRuns\": " << t.queuedRuns
           << ", \"simulatedInsts\": " << t.simulatedInsts
           << ", \"cacheCorrupt\": " << t.cacheCorrupt
           << ", \"cacheEvictions\": " << t.cacheEvictions
           << ", \"workers\": " << t.workers
           << ", \"elapsedSeconds\": " << jsonNum(t.elapsedSeconds)
           << ", \"busySeconds\": " << jsonNum(t.busySeconds)
           << ", \"utilization\": " << jsonNum(t.utilization) << "}";
    }
    os << "\n}\n";
    return os.str();
}

std::string
renderDashHtml(const DashModel &m)
{
    return splice(detail::kDashTemplate, "__MOP_DASH_DATA__",
                  renderDashJson(m));
}

} // namespace mop::obs
