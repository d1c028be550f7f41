/**
 * @file
 * Measurement plumbing of the mopsim benchmark: the metric list it
 * prints, the in-memory span recorder of the traced run, the timing
 * TraceSource decorator, and the isolated per-layer replays that
 * drive one layer's public API with a workload's recorded µop stream.
 */

#ifndef MOPBENCH_LAYERS_HH
#define MOPBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "pipeline/ooo_core.hh"
#include "trace/source.hh"

namespace mopbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
nowSec()
{
    return double(nowNs()) * 1e-9;
}

/** Median of @p v (0 when empty); sorts a copy. */
double median(std::vector<double> v);

/** The tenth-percentile (fast-decile) sample of @p v, the minimum when
 *  it has fewer than ten; 0 when empty. Host-time metrics of the closed
 *  loop use it because contention from other tenants of a shared host
 *  only ever adds time. */
double fastDecile(std::vector<double> v);

/** Host ns/inst at the highest percentile that still has at least ten
 *  samples beyond it; @p pct receives that percentile (0..100). With
 *  fewer than eleven samples the maximum is returned. */
double tailValue(std::vector<double> v, double &pct);

/**
 * Host-speed probe: a fixed register-only loop (xorshift with
 * data-dependent branches) that shares no code or data with the
 * simulator. On a shared host, other tenants slow every core by 20-50%
 * for minutes at a time (clock and shared-resource contention), far
 * beyond what any percentile of one run can hide. Timing the probe next
 * to each measured interval gives that interval's slowdown, and
 * factor() scales host time to a host on which one probe step takes
 * kNominalStepNs. A faster or slower simulator moves the scaled times;
 * a busier host mostly does not.
 */
class HostProbe
{
  public:
    static constexpr double kNominalStepNs = 7.0;

    /** Time one probe (about 0.15 ms); returns kNominalStepNs divided
     *  by the measured ns per step. */
    double factor();

  private:
    static constexpr int kSteps = 20000;
    uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/** Ordered name -> (value, unit) list, printed as the result JSON. */
class Metrics
{
  public:
    /** Append a metric; throws on a non-finite value. */
    void set(const std::string &name, double value, const char *unit);
    /** JSON object body: {"name": {"value": v, "unit": "u"}, ...}. */
    void writeJson(std::ostream &os) const;
    /** Aligned human-readable lines. */
    void print(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Spans of the traced run, kept in memory. Every span has a name, a
 * start, an end, its parent span and a run id. Each name is aggregated
 * (count, total and self time, where self time is the duration minus
 * the time covered by child spans); the spans under every Nth root span
 * are also kept verbatim, and everything is written out once, at the
 * end of the benchmark.
 */
class SpanRecorder
{
  public:
    struct Aggregate
    {
        std::string name;
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
        int64_t minSelfNs = 0;
    };

    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0;  ///< 0 = root
        uint32_t name = 0;
        uint32_t run = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t selfNs = 0;
    };

    /** @p sample_every: keep the spans of every Nth root span. */
    explicit SpanRecorder(uint64_t sample_every = 4096);

    /** Intern @p name; the id is used with begin(). */
    uint32_t name(const std::string &name);
    void setRun(uint32_t run) { run_ = run; }

    void
    begin(uint32_t name_id)
    {
        int64_t t = nowNs();
        bool keep = stack_.empty() ? (roots_++ % sampleEvery_ == 0)
                                   : stack_.back().keep;
        stack_.push_back({++nextId_,
                          stack_.empty() ? 0 : stack_.back().id, name_id,
                          t, 0, keep});
    }

    void
    end()
    {
        int64_t t = nowNs();
        Frame f = stack_.back();
        stack_.pop_back();
        int64_t dur = t - f.start;
        int64_t self = dur - f.childNs;
        Aggregate &a = aggs_[f.name];
        if (a.count == 0 || self < a.minSelfNs)
            a.minSelfNs = self;
        ++a.count;
        a.totalNs += dur;
        a.selfNs += self;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        if (f.keep && kept_.size() < kMaxKept)
            kept_.push_back({f.id, f.parent, f.name, run_, f.start, t, self});
    }

    const Aggregate &aggregate(uint32_t name_id) const
    {
        return aggs_[name_id];
    }
    const std::vector<Aggregate> &aggregates() const { return aggs_; }
    const std::vector<Span> &kept() const { return kept_; }
    bool idle() const { return stack_.empty(); }

    /** One JSON document: per-name aggregates plus the kept spans. */
    void write(const std::string &path) const;

  private:
    struct Frame
    {
        uint64_t id;
        uint64_t parent;
        uint32_t name;
        int64_t start;
        int64_t childNs;
        bool keep;
    };
    static constexpr size_t kMaxKept = 200000;

    uint64_t sampleEvery_;
    uint64_t roots_ = 0;
    uint64_t nextId_ = 0;
    uint32_t run_ = 0;
    std::vector<Frame> stack_;
    std::vector<Aggregate> aggs_;
    std::vector<Span> kept_;
};

/** Times every next() of the wrapped source as a span. */
class TimedSource : public mop::trace::TraceSource
{
  public:
    TimedSource(mop::trace::TraceSource &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec), span_(rec.name("trace.next"))
    {
    }

    bool
    next(mop::isa::MicroOp &out) override
    {
        rec_.begin(span_);
        bool ok = inner_.next(out);
        rec_.end();
        return ok;
    }

    void reset() override { inner_.reset(); }

  private:
    mop::trace::TraceSource &inner_;
    SpanRecorder &rec_;
    uint32_t span_;
};

/** Host cost of one isolated layer replay. */
struct ReplayCost
{
    double nsPerOp = 0;   ///< per µop / access / call (see replay)
    double nsPerOp2 = 0;  ///< second cost where a replay has two
};

/** Memory-hierarchy replay: fetch-line and data address streams of
 *  @p uops through a fresh Table 1 hierarchy; ns per access. Fills
 *  @p load_latency (indexed by position in @p uops) for the scheduler
 *  replay. */
ReplayCost replayMemory(const std::vector<mop::isa::MicroOp> &uops,
                        const mop::pipeline::CoreParams &params,
                        std::vector<int> &load_latency);

/** MopDetector::observe/endGroup/drain over @p uops in rename-width
 *  groups; ns per µop. */
ReplayCost replayDetector(const std::vector<mop::isa::MicroOp> &uops,
                          const mop::pipeline::CoreParams &params);

/** Scheduler insert/tick at the workload's IQ size and loop policy
 *  (single-op entries, renamed register dataflow, load latencies from
 *  replayMemory); nsPerOp = ns per tick, nsPerOp2 = ns per insert. */
ReplayCost replayScheduler(const std::vector<mop::isa::MicroOp> &uops,
                           const mop::pipeline::CoreParams &params,
                           const std::vector<int> &load_latency);

} // namespace mopbench

#endif // MOPBENCH_LAYERS_HH
