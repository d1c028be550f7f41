/**
 * @file
 * google-benchmark microbenchmarks of the simulator's components:
 * trace generation, MOP detection, wakeup-matrix operations, cache
 * accesses, the scheduler loop, and end-to-end simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "analysis/characterize.hh"
#include "core/mop_detector.hh"
#include "core/mop_pointer.hh"
#include "mem/cache.hh"
#include "sched/scheduler.hh"
#include "pipeline/ooo_core.hh"
#include "sched/wired_or.hh"
#include "sim/config.hh"
#include "sweep/fingerprint.hh"
#include "trace/profiles.hh"
#include "verify/oracle.hh"

namespace
{

using namespace mop;

void
BM_SyntheticGeneration(benchmark::State &state)
{
    trace::SyntheticSource src(trace::profileFor("gzip"));
    isa::MicroOp u;
    for (auto _ : state) {
        src.next(u);
        benchmark::DoNotOptimize(u);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SyntheticGeneration);

/** gzip's decoded µop stream, the input of the formation benchmarks. */
std::vector<isa::MicroOp>
gzipUops()
{
    trace::SyntheticSource src(trace::profileFor("gzip"));
    std::vector<isa::MicroOp> uops(4096);
    for (auto &u : uops)
        src.next(u);
    return uops;
}

void
BM_MopDetectionStep(benchmark::State &state)
{
    // Groups of four, each followed by a drain at its cycle, as
    // OooCore runs the detector: pointers land after the detection
    // latency, so heads seen again are covered (the steady state).
    std::vector<isa::MicroOp> uops = gzipUops();
    core::MopPointerCache cache;
    core::DetectorParams params;
    core::MopDetector det(params, cache);
    uint64_t id = 0;
    size_t i = 0;
    for (auto _ : state) {
        det.observe(uops[i % uops.size()], id);
        ++i;
        if (++id % 4 == 0) {
            det.endGroup(id / 4);
            det.drain(id / 4);
        }
    }
    benchmark::DoNotOptimize(cache.writes());
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.counters["pointers"] = double(cache.size());
}
BENCHMARK(BM_MopDetectionStep);

void
BM_PointerCacheProbe(benchmark::State &state)
{
    // Formation probes the pointer table once per inserted µop: probe
    // gzip's PCs against the table its own detection filled.
    std::vector<isa::MicroOp> uops = gzipUops();
    core::MopPointerCache cache;
    core::DetectorParams params;
    params.detectLatency = 0;
    core::MopDetector det(params, cache);
    for (size_t k = 0; k < uops.size(); ++k) {
        det.observe(uops[k], k);
        if (k % 4 == 3) {
            det.endGroup(k / 4);
            det.drain(k / 4);
        }
    }
    size_t i = 0;
    for (auto _ : state) {
        core::PointerProbe p = cache.probe(uops[i % uops.size()].pc);
        benchmark::DoNotOptimize(p);
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    state.counters["pointers"] = double(cache.size());
}
BENCHMARK(BM_PointerCacheProbe);

void
BM_WiredOrWakeup(benchmark::State &state)
{
    sched::WiredOrMatrix m(64);
    for (int i = 0; i < 64; ++i) {
        m.allocate(i);
        if (i > 1) {
            m.setDependence(i, i - 1);
            m.setDependence(i, i - 2);
        }
    }
    int line = 0;
    for (auto _ : state) {
        m.assertLine(line);
        benchmark::DoNotOptimize(m.ready((line + 1) % 64));
        m.deassertLine(line);
        line = (line + 1) % 64;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_WiredOrWakeup);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::MemoryHierarchy hier;
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.dataAccess(addr, false));
        addr = (addr + 4096) % (1 << 22);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_DistanceCharacterization(benchmark::State &state)
{
    for (auto _ : state) {
        trace::SyntheticSource src(trace::profileFor("bzip"));
        auto r = analysis::characterizeDistance(src, 20000);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 20000);
}
BENCHMARK(BM_DistanceCharacterization);

void
BM_SchedulerWakeupSelect(benchmark::State &state)
{
    // The scheduler's per-cycle hot path: wakeup broadcast delivery
    // and select over the ready bitmaps, for the queue size given by
    // the range argument. Each outer iteration pushes a 4-wide
    // dependence pattern (ILP 4) through a fresh scheduler.
    sched::SchedParams p;
    p.policy = sched::LoopPolicy::TwoCycle;
    p.numEntries = int(state.range(0));
    constexpr uint64_t kOps = 4096;
    uint64_t total = 0;
    std::vector<sched::ExecEvent> completed;
    for (auto _ : state) {
        sched::Scheduler s(p);
        sched::Cycle now = 0;
        uint64_t seq = 0, done = 0;
        while (done < kOps) {
            for (int w = 0; w < 4 && seq < kOps && s.canInsert(); ++w) {
                sched::SchedOp op;
                op.seq = seq;
                op.dst = sched::Tag(seq);
                op.src = {seq >= 4 ? sched::Tag(seq - 4) : sched::kNoTag,
                          sched::kNoTag};
                s.insert(op, now);
                ++seq;
            }
            completed.clear();
            s.tick(now, completed);
            done += completed.size();
            ++now;
        }
        total += kOps;
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(int64_t(total));
}
BENCHMARK(BM_SchedulerWakeupSelect)->Arg(32)->Arg(128)->Arg(512);

void
BM_RefSchedulerWakeupSelect(benchmark::State &state)
{
    // The AoS reference oracle on the identical ILP-4 stream: the
    // readability-first counterpart to BM_SchedulerWakeupSelect's SoA
    // planes. The gap between the two is the layout win (mopsuite
    // --perf reports the same pair as ns/op).
    sched::SchedParams p;
    p.policy = sched::LoopPolicy::TwoCycle;
    p.numEntries = int(state.range(0));
    constexpr uint64_t kOps = 512;  // the oracle is deliberately slow
    uint64_t total = 0;
    std::vector<sched::ExecEvent> completed;
    for (auto _ : state) {
        verify::RefScheduler s(p);
        sched::Cycle now = 0;
        uint64_t seq = 0, done = 0;
        while (done < kOps) {
            for (int w = 0; w < 4 && seq < kOps && s.canInsert(); ++w) {
                sched::SchedOp op;
                op.seq = seq;
                op.dst = sched::Tag(seq);
                op.src = {seq >= 4 ? sched::Tag(seq - 4) : sched::kNoTag,
                          sched::kNoTag};
                s.insert(op, now);
                ++seq;
            }
            completed.clear();
            s.tick(now, completed);
            done += completed.size();
            ++now;
        }
        total += kOps;
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(int64_t(total));
}
BENCHMARK(BM_RefSchedulerWakeupSelect)->Arg(32);

void
BM_IdleAdvance(benchmark::State &state)
{
    // Cycles per second through mcf — the memory-bound extreme whose
    // run is dominated by idle gaps — with event-driven cycle
    // skipping off (Arg 0) or on (Arg 1). Items = simulated cycles,
    // so the throughput line shows what skipping buys.
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::Base;
    cfg.iqEntries = 32;
    uint64_t total = 0;
    for (auto _ : state) {
        pipeline::CoreParams params = sim::makeCoreParams(cfg);
        params.cycleSkip = state.range(0) != 0;
        trace::SyntheticSource src(trace::profileFor("mcf"));
        pipeline::OooCore core(params, src);
        pipeline::SimResult r = core.run(20000);
        total += r.cycles;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(total));
}
BENCHMARK(BM_IdleAdvance)->Arg(0)->Arg(1);

void
BM_SchedulerStallProbe(benchmark::State &state)
{
    // Observability overhead on the scheduler hot path: the same
    // wakeup/select workload as BM_SchedulerWakeupSelect (32 entries)
    // with the stall probe enabled and a snapshot collected per cycle
    // — the per-cycle cost the observability layer adds.
    sched::SchedParams p;
    p.policy = sched::LoopPolicy::TwoCycle;
    p.numEntries = 32;
    constexpr uint64_t kOps = 4096;
    uint64_t total = 0;
    std::vector<sched::ExecEvent> completed;
    sched::StallSnapshot snap;
    for (auto _ : state) {
        sched::Scheduler s(p);
        s.setStallProbe(true);
        sched::Cycle now = 0;
        uint64_t seq = 0, done = 0;
        while (done < kOps) {
            for (int w = 0; w < 4 && seq < kOps && s.canInsert(); ++w) {
                sched::SchedOp op;
                op.seq = seq;
                op.dst = sched::Tag(seq);
                op.src = {seq >= 4 ? sched::Tag(seq - 4) : sched::kNoTag,
                          sched::kNoTag};
                s.insert(op, now);
                ++seq;
            }
            completed.clear();
            s.tick(now, completed);
            s.collectStallSnapshot(now, snap);
            benchmark::DoNotOptimize(snap);
            done += completed.size();
            ++now;
        }
        total += kOps;
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(int64_t(total));
}
BENCHMARK(BM_SchedulerStallProbe);

void
BM_RunFingerprint(benchmark::State &state)
{
    // Key derivation for the sweep result cache:
    // hashes the full RunConfig, the workload profile and the budget.
    sim::RunConfig cfg;
    cfg.machine = sim::Machine::MopWiredOr;
    for (auto _ : state) {
        auto fp = sweep::fingerprintSim("gzip", cfg, 200000);
        benchmark::DoNotOptimize(fp);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_RunFingerprint);

void
BM_PipelineSimulation(benchmark::State &state)
{
    // End-to-end simulated instructions per second for the machine
    // configuration selected by the range argument.
    sim::Machine machines[] = {sim::Machine::Base,
                               sim::Machine::MopWiredOr};
    sim::RunConfig cfg;
    cfg.machine = machines[state.range(0)];
    cfg.iqEntries = 32;
    uint64_t total = 0;
    for (auto _ : state) {
        auto r = sim::runBenchmark("gzip", cfg, 20000);
        total += r.insts;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(total));
}
BENCHMARK(BM_PipelineSimulation)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
