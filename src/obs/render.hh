/**
 * @file
 * Interactive schedule/pipeline visualization (offline pass).
 *
 * Turns a decoded MOPEVTRC trace into a deterministic *render model*
 * -- rows of dynamic µops with per-stage intervals colored by the
 * critical-path cause taxonomy, MOP-group brackets, producer dep
 * edges, a per-interval IPC strip and periodic occupancy samples --
 * and serializes it as a JSON data block embedded into a single
 * self-contained HTML file (pan/zoom canvas waterfall, hover
 * tooltips, cause/opcode/MOP filters). A second surface renders the
 * sweep dashboard: results + telemetry counters + the BENCH_core.json
 * perf trajectory.
 *
 * Everything here is strictly offline (trace in, bytes out) and
 * byte-deterministic: no wall-clock timestamps, fixed JSON key order
 * and fixed float formatting, so small renders can be golden-pinned.
 *
 * v1 traces (no lifecycle extension) render in degraded mode with the
 * reader's documented defaults: fetch == queueReady == insert and
 * ready == issue collapse the frontend/capacity/wakeup segments to
 * zero width, no dep edges or MOP brackets exist, and -- because v1
 * records carry no flags -- every µop counts as an instruction for
 * windowing purposes (DESIGN.md "Render model").
 */

#ifndef MOP_OBS_RENDER_HH
#define MOP_OBS_RENDER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/critpath.hh"
#include "obs/telemetry.hh"
#include "sim/cli_opts.hh"
#include "trace/trace_file.hh"

namespace mop::obs
{

struct RenderOptions
{
    /** Inclusive cycle window; a µop is included when its clamped
     *  [fetch, commit] lifetime intersects it. */
    uint64_t windowLo = 0;
    uint64_t windowHi = ~0ULL;
    /** Stop after this many instructions (first-µop rows; every µop
     *  in degraded mode). 0 = unlimited. */
    uint64_t maxInsts = 0;
    /** Attach the critical-path report + per-row blame. */
    bool critpath = false;
    /** Format version of the source file (EventTraceReader::version());
     *  < 2 renders in degraded mode. */
    uint32_t traceVersion = 2;
};

/** One colored span of a row: cycles [from, to) charged to a cause. */
struct RenderSegment
{
    CritCause cause;
    uint64_t from = 0;
    uint64_t to = 0;
};

/** One waterfall row: a committed µop inside the window, or a
 *  squashed wrong-path µop (kFlagWrongPath, v3 traces) rendered as a
 *  single dimmed CritCause::WrongPath band from fetch to squash.
 *  Wrong-path rows never carry blame and don't count as
 *  instructions. */
struct RenderRow
{
    uint64_t seq = 0;
    uint64_t pc = 0;
    uint8_t op = 0;     ///< isa::OpClass
    uint8_t flags = 0;  ///< trace::CycleEvent::kFlag* bits
    uint64_t mopId = trace::CycleEvent::kNone;
    /** Producer row indices (into RenderModel::rows); -1 when absent
     *  or the producer fell outside the window. */
    std::array<int64_t, 2> dep = {-1, -1};
    /** Clamped monotonic lifecycle: fetch, queueReady, insert, ready,
     *  issue, execStart, complete, commit. */
    std::array<uint64_t, 8> t{};
    std::vector<RenderSegment> segments;  ///< zero-width spans omitted
    /** Critpath blame for the commit window this row closes (cause ->
     *  cycles, nonzero entries in cause order; empty without
     *  --critpath). */
    std::vector<std::pair<int, uint64_t>> blame;
};

/** Rows sharing a MOP-pairing id (>= 2 visible members). */
struct RenderGroup
{
    uint64_t mopId = 0;
    std::vector<size_t> rows;
};

/** Producer -> consumer dependence edge between visible rows. */
struct RenderEdge
{
    size_t from = 0;  ///< producer row index
    size_t to = 0;    ///< consumer row index
};

/** One periodic Counter record (occupancy sample). */
struct OccupancySample
{
    uint64_t cycle = 0;
    uint64_t iq = 0;
    uint64_t rob = 0;
    uint64_t frontend = 0;
    uint64_t mopPending = 0;
};

struct RenderModel
{
    uint32_t traceVersion = 2;
    bool degraded = false;  ///< v1 source: defaults documented above
    TraceSummary summary;   ///< whole trace, not just the window
    uint64_t windowLo = 0;
    uint64_t windowHi = 0;
    uint64_t maxInsts = 0;
    uint64_t windowInsts = 0;  ///< instructions among rows
    bool truncated = false;    ///< maxInsts cut the window short
    std::vector<RenderRow> rows;
    std::vector<RenderGroup> groups;
    std::vector<RenderEdge> edges;
    TimelineReport strip;  ///< whole-trace IPC strip (navigation)
    std::vector<OccupancySample> occupancy;
    bool hasCritPath = false;
    CritPathReport critpath;  ///< whole-trace composition
};

/** Build the model; pure function of (events, opts). */
RenderModel buildRenderModel(const std::vector<trace::CycleEvent> &events,
                             const RenderOptions &opts = {});

/** Serialize the model ("mop-render-1", fixed key order, '<' escaped
 *  so the block embeds safely inside a <script> element). */
std::string renderModelJson(const RenderModel &m);

/** The full self-contained waterfall HTML page. */
std::string renderWaterfallHtml(const RenderModel &m);

// --- sweep dashboard ---------------------------------------------------
//
// Plain structs so obs stays independent of the sweep layer: the
// suite driver fills a DashModel from its own results and hands it
// over for rendering.

struct DashFigure
{
    std::string name;
    std::string title;
    uint64_t runs = 0;
    uint64_t cacheHits = 0;
    double computeSeconds = 0;
    double renderSeconds = 0;
};

/** One BENCH_core.json trajectory entry. */
struct DashPerfPoint
{
    std::string label;
    std::string simVersion;
    double ipsMedian = 0;
    double ipsMin = 0;
    double ipsMax = 0;
};

struct DashModel
{
    std::string simVersion;
    int jobs = 0;
    uint64_t instsPerRun = 0;
    uint64_t uniqueRuns = 0;
    uint64_t cacheHits = 0;
    uint64_t computedRuns = 0;
    uint64_t simulatedInsts = 0;
    double wallSeconds = 0;
    std::vector<DashFigure> figures;
    /** machine name -> mean IPC over the sweep's unique runs. */
    std::vector<std::pair<std::string, double>> machineIpc;
    std::vector<DashPerfPoint> trajectory;
    bool hasTelemetry = false;
    TelemetrySink::Snapshot telemetry;
};

/** Serialize the dashboard data block ("mop-dash-1"). */
std::string renderDashJson(const DashModel &m);

/** The full self-contained dashboard HTML page. */
std::string renderDashHtml(const DashModel &m);

/** Everything moptrace's options set. */
struct MoptraceArgs
{
    uint64_t interval = 0;  ///< timeline (0 = about 64 intervals)
    double failOn = 0;      ///< diff (0 = never fail)
    std::string out;        ///< render -o ("" = from the trace's path)
    RenderOptions render;
    bool help = false;
};

/** The option rows of moptrace @p command (all rows when empty) and
 *  --help; they store into @p a. */
std::vector<sim::Opt> moptraceOptions(MoptraceArgs &a,
                                      std::string_view command = {});

/** The moptrace CLI. Exit codes: 0 success, 1 runtime failure (a bad
 *  trace, or a diff regression), 2 usage error (before any work). */
int moptraceMain(int argc, char **argv);

} // namespace mop::obs

#endif // MOP_OBS_RENDER_HH
