#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "core/mop_detector.hh"
#include "core/mop_pointer.hh"
#include "mem/cache.hh"
#include "sched/scheduler.hh"

namespace mopbench
{

using namespace mop;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
fastDecile(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 10];
}

double
tailValue(std::vector<double> v, double &pct)
{
    if (v.empty()) {
        pct = 0;
        return 0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n < 11) {
        pct = 100;
        return v.back();
    }
    // v[n-11] has exactly ten samples above it.
    pct = 100.0 * double(n - 10) / double(n);
    return v[n - 11];
}

double
HostProbe::factor()
{
    int64_t t0 = nowNs();
    uint64_t x = state_;
    uint32_t mix = 0;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 8)
            mix = mix * 2654435761u + uint32_t(x);
        else
            mix ^= uint32_t(x >> 11);
    }
    int64_t dt = nowNs() - t0;
    state_ = x ^ mix;  // keeps the loop's result live
    return kNominalStepNs * kSteps / double(std::max<int64_t>(dt, 1));
}

void
Metrics::set(const std::string &name, double value, const char *unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    entries_.push_back({name, value, unit});
}

void
Metrics::writeJson(std::ostream &os) const
{
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
        os << (i ? ", " : "") << "\"" << entries_[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << entries_[i].unit << "\"}";
    }
    os << "}";
}

void
Metrics::print(std::ostream &os) const
{
    for (const auto &e : entries_) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", e.value);
        os << "  " << std::left << std::setw(30) << e.name << std::right
           << std::setw(16) << buf << " " << e.unit << "\n";
    }
}

SpanRecorder::SpanRecorder(uint64_t sample_every)
    : sampleEvery_(std::max<uint64_t>(sample_every, 1))
{
    stack_.reserve(16);
}

uint32_t
SpanRecorder::name(const std::string &name)
{
    for (size_t i = 0; i < aggs_.size(); ++i)
        if (aggs_[i].name == name)
            return uint32_t(i);
    aggs_.push_back({});
    aggs_.back().name = name;
    return uint32_t(aggs_.size() - 1);
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    f << "{\"schema\": \"mopbench-spans-1\", \"aggregates\": [";
    for (size_t i = 0; i < aggs_.size(); ++i) {
        const Aggregate &a = aggs_[i];
        f << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << a.name
          << "\", \"count\": " << a.count << ", \"total_ns\": " << a.totalNs
          << ", \"self_ns\": " << a.selfNs
          << ", \"min_self_ns\": " << a.minSelfNs << "}";
    }
    f << "],\n\"spans\": [";
    for (size_t i = 0; i < kept_.size(); ++i) {
        const Span &s = kept_[i];
        f << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \""
          << aggs_[s.name].name << "\", \"run\": " << s.run
          << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
          << ", \"self_ns\": " << s.selfNs << "}";
    }
    f << "]}\n";
}

ReplayCost
replayMemory(const std::vector<isa::MicroOp> &uops,
             const pipeline::CoreParams &params,
             std::vector<int> &load_latency)
{
    mem::MemoryHierarchy m(params.mem);
    load_latency.assign(uops.size(), 0);
    uint64_t line_bytes = m.il1().lineBytes();
    uint64_t last_line = ~0ULL, accesses = 0;
    int64_t t0 = nowNs();
    for (size_t i = 0; i < uops.size(); ++i) {
        const isa::MicroOp &u = uops[i];
        uint64_t line = u.pc / line_bytes;
        if (line != last_line) {
            m.instAccess(u.pc);
            last_line = line;
            ++accesses;
        }
        if (u.isLoad()) {
            load_latency[i] = m.dataAccess(u.memAddr, false);
            ++accesses;
        } else if (u.isStoreAddr()) {
            m.dataAccess(u.memAddr, true);
            ++accesses;
        }
    }
    int64_t dt = nowNs() - t0;
    return {accesses ? double(dt) / double(accesses) : 0, 0};
}

ReplayCost
replayDetector(const std::vector<isa::MicroOp> &uops,
               const pipeline::CoreParams &params)
{
    core::MopPointerCache cache;
    core::MopDetector det(params.detector, cache);
    int width = std::max(params.detector.groupWidth, 1);
    sched::Cycle now = 0;
    uint64_t dyn = 0;
    int in_group = 0;
    int64_t t0 = nowNs();
    for (const isa::MicroOp &u : uops) {
        if (u.op == isa::OpClass::Nop)
            continue;
        det.observe(u, dyn++);
        if (++in_group == width) {
            det.endGroup(now);
            det.drain(now);
            ++now;
            in_group = 0;
        }
    }
    det.endGroup(now);
    det.drain(now + sched::Cycle(params.detector.detectLatency) + 1);
    int64_t dt = nowNs() - t0;
    return {dyn ? double(dt) / double(dyn) : 0, 0};
}

ReplayCost
replayScheduler(const std::vector<isa::MicroOp> &uops,
                const pipeline::CoreParams &params,
                const std::vector<int> &load_latency)
{
    sched::SchedParams sp = params.sched;
    sp.mopEnabled = false;
    sched::Scheduler s(sp);

    // Rename: every µop with a destination produces a fresh tag (its
    // position); sources name the last writer of their register.
    std::vector<sched::SchedOp> ops;
    std::vector<int> lat;
    ops.reserve(uops.size());
    std::array<sched::Tag, isa::kNumLogicalRegs> last_writer;
    last_writer.fill(sched::kNoTag);
    for (size_t i = 0; i < uops.size(); ++i) {
        const isa::MicroOp &u = uops[i];
        if (u.op == isa::OpClass::Nop)
            continue;
        sched::SchedOp op;
        op.seq = ops.size();
        op.op = u.op;
        for (int k = 0; k < 2; ++k) {
            int16_t r = u.src[size_t(k)];
            if (r >= 0 && r < isa::kNumLogicalRegs && r != isa::kZeroReg &&
                r != isa::kFpZeroReg)
                op.src[size_t(k)] = last_writer[size_t(r)];
        }
        if (u.hasDst() && u.dst >= 0 && u.dst < isa::kNumLogicalRegs &&
            u.dst != isa::kZeroReg && u.dst != isa::kFpZeroReg) {
            op.dst = sched::Tag(op.seq);
            last_writer[size_t(u.dst)] = op.dst;
        }
        ops.push_back(op);
        lat.push_back(load_latency[i]);
    }
    s.setLoadLatencyFn([&lat, &sp](uint64_t seq) {
        return seq < lat.size() && lat[seq] > 0 ? lat[seq]
                                                : sp.dl1HitLatency;
    });

    std::vector<sched::ExecEvent> completed;
    completed.reserve(64);
    sched::Cycle now = 0;
    size_t next = 0;
    uint64_t done = 0, ticks = 0;
    int64_t insert_ns = 0, tick_ns = 0;
    const sched::Cycle guard = sched::Cycle(ops.size()) * 400 + 100000;
    while (done < ops.size()) {
        int64_t t0 = nowNs();
        for (int w = 0; w < sp.issueWidth && next < ops.size() &&
                        s.canInsert(1);
             ++w)
            s.insert(ops[next++], now);
        int64_t t1 = nowNs();
        completed.clear();
        s.tick(now, completed);
        int64_t t2 = nowNs();
        insert_ns += t1 - t0;
        tick_ns += t2 - t1;
        done += completed.size();
        ++ticks;
        if (++now > guard)
            throw std::runtime_error("scheduler replay did not drain");
    }
    return {ticks ? double(tick_ns) / double(ticks) : 0,
            ops.empty() ? 0 : double(insert_ns) / double(ops.size())};
}

} // namespace mopbench
