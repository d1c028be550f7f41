#include "sim/selftest.hh"

#include <iomanip>
#include <memory>
#include <sstream>
#include <vector>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sim/config.hh"
#include "verify/fault_injector.hh"
#include "verify/golden.hh"

namespace mop::sim
{

double
selftestRate(verify::FaultKind k)
{
    switch (k) {
      case verify::FaultKind::SpuriousWakeup: return 0.02;
      case verify::FaultKind::DropGrant: return 0.02;
      case verify::FaultKind::DelayBcast: return 0.05;
      case verify::FaultKind::ReplayStorm: return 0.05;
      case verify::FaultKind::MissBurst: return 0.005;
      case verify::FaultKind::CorruptMop: return 0.3;
      case verify::FaultKind::CorruptWakeup: return 0.001;
      case verify::FaultKind::CorruptCommit: return 0.002;
      case verify::FaultKind::kCount: break;
    }
    return 0;
}

namespace
{

struct CellOutcome
{
    enum class Kind { Recovered, Detected, NoFire, Failed } kind;
    std::string detail;
};

RunConfig
cellConfig(Machine m, uint64_t seed)
{
    RunConfig cfg;
    cfg.machine = m;
    cfg.iqEntries = 32;
    cfg.faults.seed = seed;
    return cfg;
}

/** Bounded run: short kernel, tight watchdogs, hard cycle guard. */
constexpr uint64_t kMaxKernelInsns = 6000;
constexpr uint64_t kWatchdogCycles = 20000;
constexpr uint64_t kCommitWatchdog = 60000;
constexpr uint64_t kMaxCycles = 2'000'000;

uint64_t
runCell(const prog::Program &prog, const RunConfig &cfg,
        uint64_t *fires = nullptr)
{
    prog::Interpreter src(prog, kMaxKernelInsns);
    verify::GoldenModel golden(prog, kMaxKernelInsns);

    pipeline::CoreParams p = makeCoreParams(cfg);
    p.sched.watchdogCycles = kWatchdogCycles;
    p.commitWatchdogCycles = kCommitWatchdog;
    p.maxCycles = kMaxCycles;

    pipeline::OooCore core(p, src);
    core.setGoldenModel(&golden);
    pipeline::SimResult r = core.run(~0ULL);
    if (fires && core.injector())
        *fires = core.injector()->totalFires();
    return r.insts;
}

CellOutcome
classify(const prog::Program &prog, Machine m, verify::FaultKind k,
         uint64_t seed, uint64_t ref_insts)
{
    RunConfig cfg = cellConfig(m, seed);
    cfg.faults[k] = selftestRate(k);
    uint64_t fires = 0;
    try {
        uint64_t insts = runCell(prog, cfg, &fires);
        if (fires == 0)
            return {CellOutcome::Kind::NoFire, ""};
        if (insts == ref_insts)
            return {CellOutcome::Kind::Recovered, ""};
        std::ostringstream ss;
        ss << "silent divergence: committed " << insts << " insts, clean "
           << "reference committed " << ref_insts;
        return {CellOutcome::Kind::Failed, ss.str()};
    } catch (const verify::GoldenMismatchError &e) {
        return {CellOutcome::Kind::Detected, e.what()};
    } catch (const verify::IntegrityError &e) {
        return {CellOutcome::Kind::Detected, e.what()};
    } catch (const sched::DeadlockError &e) {
        return {CellOutcome::Kind::Detected, e.what()};
    } catch (const std::exception &e) {
        return {CellOutcome::Kind::Failed,
                std::string("unstructured failure: ") + e.what()};
    }
}

} // namespace

SelftestResult
runSelftest(std::ostream &os, const std::string &kernel, uint64_t seed)
{
    prog::Program prog = prog::assemble(prog::kernelSource(kernel));
    SelftestResult res;

    os << "selftest: kernel '" << kernel << "', seed " << seed << ", "
       << allMachines().size() << " machines x " << verify::kNumFaultKinds
       << " fault kinds\n\n";

    os << std::left << std::setw(24) << "machine";
    for (size_t k = 0; k < verify::kNumFaultKinds; ++k) {
        os << std::setw(17)
           << verify::faultKindName(verify::FaultKind(k));
    }
    os << "\n";

    std::vector<std::string> failures;
    for (Machine m : allMachines()) {
        // Clean per-machine reference: with injection off the golden
        // cross-check must pass and gives the expected commit count.
        uint64_t ref_insts = runCell(prog, cellConfig(m, seed));

        os << std::left << std::setw(24) << machineName(m);
        for (size_t k = 0; k < verify::kNumFaultKinds; ++k) {
            CellOutcome c = classify(prog, m, verify::FaultKind(k), seed,
                                     ref_insts);
            const char *label = "?";
            switch (c.kind) {
              case CellOutcome::Kind::Recovered:
                ++res.recovered;
                label = "recovered";
                break;
              case CellOutcome::Kind::Detected:
                ++res.detected;
                label = "detected";
                break;
              case CellOutcome::Kind::NoFire:
                ++res.noFire;
                label = "no-fire";
                break;
              case CellOutcome::Kind::Failed:
                ++res.failed;
                label = "FAILED";
                failures.push_back(
                    std::string(machineName(m)) + " x " +
                    verify::faultKindName(verify::FaultKind(k)) + ": " +
                    c.detail);
                break;
            }
            os << std::setw(17) << label;
        }
        os << "\n";
    }

    os << "\n" << res.cells() << " cells: " << res.recovered
       << " recovered, " << res.detected << " detected, " << res.noFire
       << " no-fire, " << res.failed << " FAILED\n";
    for (const auto &f : failures)
        os << "  FAILED " << f << "\n";
    return res;
}

} // namespace mop::sim
