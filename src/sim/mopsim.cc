/**
 * @file
 * mopsim: runs one workload or kernel on one machine, or the fault
 * matrix (--selftest) or the differential fuzzer (--difftest).
 */

#include "sim/config.hh"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sim/selftest.hh"
#include "stats/stats.hh"
#include "trace/profiles.hh"
#include "verify/difftest.hh"
#include "verify/golden.hh"

namespace mop::sim
{

namespace
{

/** The rules that link mopsim's options, then the lookup of the
 *  workload a run names; throws std::invalid_argument. */
void
checkOptions(MopsimArgs &a, trace::WorkloadProfile &profile,
             std::string &kernelText)
{
    if (!a.inject.empty())
        a.cfg.faults = verify::FaultSpec::parse(a.inject, a.seed);
    else
        a.cfg.faults.seed = a.seed;
    if (a.selftest || a.difftest > 0)
        return;
    if (a.bench.empty() == a.kernel.empty())
        throw std::invalid_argument("pick exactly one of --bench / --kernel");
    std::string why = pipeline::configError(makeCoreParams(a.cfg));
    if (!why.empty())
        throw std::invalid_argument(why);
    // corrupt-commit alters only the golden model's copy of a committed
    // µop: a run without one would count fires that corrupt nothing.
    if (a.cfg.faults[verify::FaultKind::CorruptCommit] > 0 &&
        (a.kernel.empty() || !a.golden))
        throw std::invalid_argument(
            "--inject corrupt-commit corrupts only what the golden model "
            "checks: it needs a --kernel run without --no-golden");
    if (!a.bench.empty())
        profile = trace::profileFor(a.bench);
    else
        kernelText = prog::kernelSource(a.kernel);
}

} // namespace

std::vector<Opt>
mopsimOptions(MopsimArgs &a)
{
    RunConfig &c = a.cfg;
    std::vector<std::string> machines, policies;
    for (Machine m : allMachines())
        machines.push_back(machineToken(m));
    for (sched::PolicyId p : sched::registeredPolicies())
        policies.push_back(policyIdToken(p));
    return {
        {"--bench", "NAME", "synthetic SPEC CINT2000 workload", into(a.bench)},
        {"--kernel", "NAME", "assembly kernel", into(a.kernel)},
        tokenOpt("--machine", "M", "scheduler configuration", machines,
                 [&c](auto &v) { return parseMachine(v, c.machine); }),
        tokenOpt("--policy", "P", "scheduler policy, also of --difftest",
                 policies,
                 [&c](auto &v) { return parsePolicyId(v, c.policy); }),
        numOpt("--iq", "N", parseIntOption, 0, 65536,
               "issue-queue entries (0 = 512)", into(c.iqEntries)),
        numOpt("--insts", "N", parseUintOption, 1, kMaxInsts,
               "budget: a run ends in the first cycle whose commits reach N "
               "(up to 3 more commit), a kernel run also when it halts",
               into(a.insts)),
        numOpt("--extra-stages", "N", parseIntOption, 0, 2,
               "extra MOP formation stages", into(c.extraStages)),
        numOpt("--detect-delay", "N", parseIntOption, 0, 1'000'000,
               "MOP detection latency in cycles", into(c.detectLatency)),
        switchOpt("--no-filter", "no last-arriving-operand filter",
                  c.lastArrivalFilter, false),
        switchOpt("--no-independent", "no independent MOPs",
                  c.independentMops, false),
        switchOpt("--precise-cycles", "precise cycle detection",
                  c.cycleHeuristic, false),
        numOpt("--mop-size", "N", parseIntOption, 2, 4,
               "max instructions per MOP", into(c.mopSize)),
        numOpt("--sched-depth", "N", parseIntOption, 0, 8,
               "wakeup+select depth override", into(c.schedDepth)),
        numOpt("--wrong-path", "N", parseIntOption, 1, 4096,
               "issue N wrong-path µops per mispredict (default 64)",
               into(c.wrongPathDepth), [&c] { c.wrongPath = true; }),
        switchOpt("--stats", "dump the full statistics report", a.stats),
        {"--trace-out", "FILE", "binary MOPEVTRC lifecycle trace (moptrace)",
         [&c](const std::string &v) {
             if (v.empty())
                 throw std::invalid_argument("--trace-out needs a file name");
             // The file is binary whatever its name: a .json name would
             // promise what only the offline view writes.
             if (v.ends_with(".json"))
                 throw std::invalid_argument(
                     "--trace-out '" + v + "': the trace is binary MOPEVTRC; "
                     "write it to a .evt file and convert it with `moptrace "
                     "json TRACE.evt > " + v + "`");
             c.obs.traceOut = v;
             c.obs.enabled = true;
         }},
        numOpt("--trace-period", "N", parseUintOption, 1, 1u << 30,
               "cycles between occupancy samples", into(c.obs.tracePeriod)),
        tokenOpt("--report", "KIND", "print stall attribution after the run",
                 {"breakdown"}, [&a](auto &v) {
                     return v == "breakdown" &&
                            (a.report = a.cfg.obs.enabled = true);
                 }),
        {"--inject", "SPEC", "fault campaign kind:rate[,...]", into(a.inject)},
        numOpt("--seed", "N", parseUintOption, 0, ~0ULL,
               "fault-injection seed (default 1)", into(a.seed)),
        switchOpt("--no-golden", "no golden-model check of kernel runs",
                  a.golden, false),
        switchOpt("--dump-on-error", "dump pipeline state on an error",
                  a.dumpOnError),
        switchOpt("--selftest", "run the fault matrix over all machines",
                  a.selftest),
        numOpt("--difftest", "N", parseIntOption, 1, 1'000'000,
               "fuzz N schedules against the oracle", into(a.difftest)),
        numOpt("--difftest-seed", "N", parseUintOption, 0, ~0ULL,
               "base seed of --difftest (default 1)", into(a.difftestSeed)),
        {"--difftest-repro", "FILE", "write the first repro to FILE",
         into(a.difftestRepro)},
        switchOpt("--difftest-skip-idle", "skip idle cycles (the oracle ticks)",
                  a.difftestSkipIdle),
        switchOpt("--list", "list workloads, kernels and machines", a.list),
        switchOpt("--help", "print this help (also -h)", a.help),
    };
}

namespace
{

/** mopsimMain, before its check of standard output. */
int
runMopsim(int argc, char **argv)
{
    // Everything is parsed and checked before any work: each failure is
    // a usage error.
    MopsimArgs a;
    int64_t traceTag = -1;
    trace::WorkloadProfile profile;
    std::string kernelText;
    try {
        // MOP_TRACE_TAG=<n> echoes scheduler tag n's events to stderr
        // as they are recorded.
        if (const char *env = std::getenv("MOP_TRACE_TAG"))
            traceTag = parseIntOption("MOP_TRACE_TAG", env, 0,
                                      std::numeric_limits<sched::Tag>::max());
        const std::vector<Opt> table = mopsimOptions(a);
        parseArgs(table, argc, argv);
        if (a.help) {
            std::cout << "usage: mopsim [options]\n";
            printUsage(std::cout, table);
            return 0;
        }
        if (a.list) {
            std::cout << "workloads:";
            for (const auto &b : trace::specCint2000())
                std::cout << " " << b;
            std::cout << "\nkernels:";
            for (const auto &k : prog::kernelNames())
                std::cout << " " << k;
            std::cout << "\nmachines:";
            for (Machine m : allMachines())
                std::cout << " " << machineToken(m);
            std::cout << "\n";
            return 0;
        }
        checkOptions(a, profile, kernelText);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    if (a.selftest) {
        SelftestResult r = runSelftest(std::cout);
        return r.ok() ? 0 : 1;
    }

    const RunConfig &cfg = a.cfg;
    if (a.difftest > 0) {
        std::cout << "difftest: base seed " << a.difftestSeed
                  << " (replay with --difftest-seed " << a.difftestSeed
                  << ")\n";
        int bad = verify::runDifftestCampaign(a.difftest, a.difftestSeed,
                                              a.difftestRepro,
                                              a.difftestSkipIdle,
                                              cfg.policy, cfg.wrongPath);
        return bad == 0 ? 0 : 1;
    }

    std::unique_ptr<pipeline::OooCore> core;
    try {
        std::unique_ptr<trace::TraceSource> src;
        std::unique_ptr<verify::GoldenModel> golden;
        if (!a.bench.empty()) {
            src = std::make_unique<trace::SyntheticSource>(profile);
        } else {
            prog::Program prog = prog::assemble(kernelText);
            src = std::make_unique<prog::Interpreter>(prog);
            if (a.golden)
                golden = std::make_unique<verify::GoldenModel>(prog);
        }
        pipeline::CoreParams params = makeCoreParams(cfg);
        // Same seed derivation as runBenchmark for workloads; kernels
        // fall back to the fault seed (wrong-path µops never commit,
        // so the golden cross-check is unaffected).
        params.wrongPathSeed = trace::wrongPathSeed(
            a.bench.empty() ? a.seed : profile.seed);
        core = std::make_unique<pipeline::OooCore>(params, *src);
        if (a.dumpOnError)
            core->recordEvents();
        if (traceTag >= 0)
            core->echoTag(sched::Tag(traceTag), &std::cerr);
        if (golden)
            core->setGoldenModel(golden.get());
        pipeline::SimResult r = core->run(a.insts);

        std::cout << (a.bench.empty() ? a.kernel : a.bench) << " on "
                  << machineName(cfg.machine) << " (iq="
                  << (cfg.iqEntries ? std::to_string(cfg.iqEntries)
                                    : std::string("unrestricted"));
        if (cfg.policy != sched::PolicyId::Paper)
            std::cout << ", policy=" << sched::policyIdName(cfg.policy);
        if (cfg.wrongPath)
            std::cout << ", wrong-path depth " << cfg.wrongPathDepth;
        std::cout << ")\n"
                  << "  insts   " << r.insts << "\n"
                  << "  cycles  " << r.cycles << "\n"
                  << "  IPC     " << r.ipc << "\n"
                  << "  grouped " << 100.0 * r.groupedFrac() << "%\n"
                  << "  replays " << r.replays << "\n"
                  << "  mispred " << r.mispredicts << "\n";
        if (!a.inject.empty()) {
            std::cout << "  inject  " << cfg.faults.toString() << " seed "
                      << a.seed << " (" << core->injector()->totalFires()
                      << " fires)\n";
        }
        if (golden) {
            std::cout << "  golden  " << golden->compared()
                      << " committed µops cross-checked\n";
        }
        if (core->observer() && !cfg.obs.traceOut.empty()) {
            std::cout << "  trace   "
                      << core->observer()->traceEventsEmitted()
                      << " events -> " << cfg.obs.traceOut << "\n";
        }
        if (a.report)
            core->observer()->printReport(std::cout);
        if (a.stats) {
            stats::StatGroup g("sim");
            core->addStats(g);
            g.print(std::cout);
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        if (a.dumpOnError && core)
            core->dumpState(std::cerr);
        return 1;
    }
    return 0;
}

} // namespace

int
mopsimMain(int argc, char **argv)
{
    return flushStdout("error", runMopsim(argc, argv));
}

} // namespace mop::sim
