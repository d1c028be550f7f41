#include "sweep/fingerprint.hh"

#include "trace/profiles.hh"

namespace mop::sweep
{

std::string
Fingerprint::hex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string s(32, '0');
    uint64_t w[2] = {hi, lo};
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 16; ++j)
            s[size_t(i * 16 + j)] =
                digits[(w[i] >> (60 - 4 * j)) & 0xf];
    return s;
}

void
hashProfile(Hasher &h, const trace::WorkloadProfile &p)
{
    h.str(p.name);
    h.u64(p.seed);
    h.i64(p.numBlocks);
    h.f64(p.avgBlockLen);
    h.f64(p.loadFrac);
    h.f64(p.storeFrac);
    h.f64(p.mulFrac);
    h.f64(p.divFrac);
    h.f64(p.fpFrac);
    h.f64(p.nopFrac);
    for (double d : p.depDistPmf)
        h.f64(d);
    h.f64(p.twoSrcFrac);
    h.f64(p.zeroSrcFrac);
    h.i64(p.inductionChainLen);
    h.i64(p.inductionRegs);
    h.f64(p.accumFrac);
    h.f64(p.deadFrac);
    h.f64(p.condBranchFrac);
    h.f64(p.indirectFrac);
    h.f64(p.randomBranchFrac);
    h.f64(p.takenBias);
    h.f64(p.backEdgeFrac);
    h.i64(p.memFootprintKB);
    h.f64(p.pointerChaseFrac);
    h.f64(p.loadChainFrac);
    h.i64(p.hotRegionKB);
    h.f64(p.hotFrac);
    h.f64(p.valueGenTarget);
}

void
hashRunConfig(Hasher &h, const sim::RunConfig &cfg)
{
    // Every field that can influence a run's numbers.
    h.u64(uint64_t(cfg.machine));
    h.i64(cfg.iqEntries);
    h.i64(cfg.extraStages);
    h.i64(cfg.detectLatency);
    h.u64(cfg.lastArrivalFilter);
    h.u64(cfg.independentMops);
    h.u64(cfg.cycleHeuristic);
    h.i64(cfg.mopSize);
    h.i64(cfg.schedDepth);
    for (double r : cfg.faults.rate)
        h.f64(r);
    h.u64(cfg.faults.seed);
    // The retired dump-on-error flag's slot: a constant keeps every
    // fingerprint, and so every cached result, where it was.
    h.u64(0);
    // Observability never changes timing, but it adds stall vectors to
    // the cached payload, so enabled runs get their own key. Hashing
    // the block only when enabled keeps every pre-existing fingerprint
    // (and its cached result) bit-identical. traceOut is excluded: the
    // file path does not influence any number.
    if (cfg.obs.enabled) {
        h.u64(0x0b5ULL);  // domain tag for the obs block
        h.u64(cfg.obs.enabled);
        h.u64(cfg.obs.tracePeriod);
    }
    // Scheduler behaviour policy, same trick: the Paper policy is the
    // pre-policy simulator bit-for-bit, so hashing the block only for
    // the new policies keeps every existing fingerprint stable.
    if (cfg.policy != sched::PolicyId::Paper) {
        h.u64(0x90cULL);  // domain tag for the policy block
        h.u64(uint64_t(cfg.policy));
    }
    // Wrong-path execution, same trick again: off is the fetch-stall
    // simulator bit-for-bit, so only enabled runs fork their keys.
    if (cfg.wrongPath) {
        h.u64(0x3b9dULL);  // domain tag for the wrong-path block
        h.u64(cfg.wrongPath);
        h.i64(cfg.wrongPathDepth);
    }
}

Fingerprint
fingerprintSim(const std::string &bench, const sim::RunConfig &cfg,
               uint64_t insts, const char *version)
{
    Hasher h;
    h.str(version);
    h.u64(uint64_t(JobKind::Sim));
    h.str(bench);
    hashProfile(h, trace::profileFor(bench));
    hashRunConfig(h, cfg);
    h.u64(insts);
    return h.digest();
}

Fingerprint
fingerprintAnalysis(JobKind kind, const std::string &bench,
                    uint64_t insts, int arg, const char *version)
{
    Hasher h;
    h.str(version);
    h.u64(uint64_t(kind));
    h.str(bench);
    hashProfile(h, trace::profileFor(bench));
    h.i64(arg);
    h.u64(insts);
    return h.digest();
}

} // namespace mop::sweep
