/**
 * @file
 * mopsim — command-line driver for the macro-op scheduling simulator.
 *
 * Examples:
 *   mopsim --bench gzip --machine mop-wiredor --insts 500000 --stats
 *   mopsim --kernel hash --machine 2-cycle
 *   mopsim --bench gap --machine base --iq 0      # unrestricted queue
 *   mopsim --kernel sort --machine mop-2src \
 *          --inject spurious-wakeup:0.01,replay-storm:0.05 --seed 42
 *   mopsim --selftest
 *   mopsim --list
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "prog/interpreter.hh"
#include "prog/kernels.hh"
#include "sched/policy.hh"
#include "sim/cli_opts.hh"
#include "sim/config.hh"
#include "sim/selftest.hh"
#include "stats/stats.hh"
#include "trace/profiles.hh"
#include "verify/difftest.hh"
#include "verify/golden.hh"

namespace
{

using namespace mop;

void
usage()
{
    std::cout <<
        "mopsim — macro-op scheduling simulator (Kim & Lipasti, "
        "MICRO-36)\n\n"
        "  --bench <name>     SPEC CINT2000-like synthetic workload\n"
        "  --kernel <name>    assembly kernel (functional execution)\n"
        "  --machine <m>      base | 2-cycle | mop-2src | mop-wiredor |\n"
        "                     sf-squash-dep | sf-scoreboard\n"
        "  --policy <p>       scheduler behaviour policy:\n"
        "                     paper (default) | loaddelay (predict load\n"
        "                     completion from a delay table, no replays;\n"
        "                     incompatible with the select-free machines)\n"
        "                     | staticfuse (decode-time pair fusion from\n"
        "                     a fixed pattern table, detector bypassed);\n"
        "                     also the per-script policy for --difftest\n"
        "  --iq <n>           issue-queue entries (0 = unrestricted:\n"
        "                     512 entries); MOP machines need >= 2\n"
        "  --insts <n>        instructions to simulate\n"
        "  --extra-stages <n> extra MOP formation stages (0-2)\n"
        "  --detect-delay <n> MOP detection latency in cycles\n"
        "  --no-filter        disable the last-arriving-operand filter\n"
        "  --no-independent   disable independent MOPs\n"
        "  --precise-cycles   precise cycle detection (no heuristic)\n"
        "  --mop-size <n>     max instructions per MOP (2-4)\n"
        "  --sched-depth <n>  wakeup+select pipeline depth override\n"
        "  --wrong-path[=<n>] true wrong-path execution: on a\n"
        "                     mispredict, fetch and issue a synthesized\n"
        "                     wrong-path stream (n µops deep, default\n"
        "                     64) that competes for IQ/FU resources\n"
        "                     until the branch resolves and squashes\n"
        "                     it; default is the fetch-stall model\n"
        "  --stats            dump the full statistics report\n"
        "  --trace-out <f>    export a cycle-event trace; .json selects\n"
        "                     Chrome trace-event format, anything else\n"
        "                     the compact binary form\n"
        "  --trace-period <n> cycles between trace occupancy samples\n"
        "  --report breakdown print per-cause stall attribution and\n"
        "                     occupancy summaries after the run\n"
        "  --inject <spec>    fault campaign: kind:rate[,kind:rate...]\n"
        "                     kinds: spurious-wakeup drop-grant\n"
        "                     delay-bcast replay-storm miss-burst\n"
        "                     corrupt-mop corrupt-wakeup corrupt-commit\n"
        "  --seed <n>         fault-injection RNG seed (default 1);\n"
        "                     same seed + same run = identical stats\n"
        "  --no-golden        disable the golden-model cross-check that\n"
        "                     kernel runs perform at commit\n"
        "  --dump-on-error    dump pipeline snapshot + recent scheduler\n"
        "                     events on deadlock/integrity errors\n"
        "  --selftest         run the fault matrix over all machines;\n"
        "                     exits nonzero if any cell FAILED\n"
        "  --difftest <n>     run n random schedules through the\n"
        "                     production scheduler and the reference\n"
        "                     oracle in lockstep (--difftest=<n> works\n"
        "                     too); on divergence the script is shrunk\n"
        "                     to a minimal repro and printed; exits\n"
        "                     nonzero on any divergence\n"
        "  --difftest-seed <n> base seed for --difftest scripts\n"
        "                     (default 1; printed for replay)\n"
        "  --difftest-repro <f> also write the first shrunken repro\n"
        "                     to this file\n"
        "  --difftest-skip-idle  production side skips provably idle\n"
        "                     cycles (nextEventCycle) while the oracle\n"
        "                     ticks every cycle; verifies the cycle-\n"
        "                     skipping invariant differentially\n"
        "                     (--wrong-path also applies to --difftest:\n"
        "                     scripts then weave mispredict episodes\n"
        "                     with wrong-path bursts and squashes)\n"
        "  --list             list workloads, kernels and machines\n";
}

bool
parseMachine(const std::string &s, sim::Machine &m)
{
    if (s == "base") m = sim::Machine::Base;
    else if (s == "2-cycle") m = sim::Machine::TwoCycle;
    else if (s == "mop-2src") m = sim::Machine::MopCam;
    else if (s == "mop-wiredor") m = sim::Machine::MopWiredOr;
    else if (s == "sf-squash-dep") m = sim::Machine::SelectFreeSquashDep;
    else if (s == "sf-scoreboard") m = sim::Machine::SelectFreeScoreboard;
    else return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench, kernel, inject;
    sim::RunConfig cfg;
    // Seed the debug trace tag from the environment exactly once, on
    // the main thread; nothing downstream touches getenv for it.
    if (const char *env = std::getenv("MOP_TRACE_TAG"))
        cfg.traceTag = sched::Tag(std::strtol(env, nullptr, 10));
    uint64_t insts = 300000;
    uint64_t seed = 1;
    bool dump_stats = false;
    bool golden_enabled = true;
    bool selftest = false;
    bool report_breakdown = false;
    int difftest_n = 0;
    uint64_t difftest_seed = 1;
    std::string difftest_repro;
    bool difftest_skip_idle = false;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument("missing value for " + a);
                }
                return argv[++i];
            };
            if (a == "--bench") bench = next();
            else if (a == "--kernel") kernel = next();
            else if (a == "--machine") {
                std::string m = next();
                if (!parseMachine(m, cfg.machine))
                    throw std::invalid_argument("unknown machine '" + m +
                                                "'");
            } else if (a == "--policy") {
                std::string p = next();
                if (!sched::parsePolicyId(p, cfg.policy))
                    throw std::invalid_argument("unknown policy '" + p +
                                                "'");
            } else if (a == "--iq") {
                cfg.iqEntries = int(sim::parseIntOption(a, next(), 0, 65536));
            } else if (a == "--insts") {
                insts = sim::parseUintOption(a, next(), 1,
                                             1'000'000'000'000ULL);
            } else if (a == "--extra-stages") {
                cfg.extraStages = int(sim::parseIntOption(a, next(), 0, 2));
            } else if (a == "--detect-delay") {
                cfg.detectLatency =
                    int(sim::parseIntOption(a, next(), 0, 1'000'000));
            } else if (a == "--no-filter") cfg.lastArrivalFilter = false;
            else if (a == "--no-independent") cfg.independentMops = false;
            else if (a == "--precise-cycles") cfg.cycleHeuristic = false;
            else if (a == "--mop-size") {
                cfg.mopSize = int(sim::parseIntOption(a, next(), 2, 4));
            } else if (a == "--sched-depth") {
                cfg.schedDepth = int(sim::parseIntOption(a, next(), 0, 8));
            } else if (a == "--wrong-path") {
                cfg.wrongPath = true;
            } else if (a.rfind("--wrong-path=", 0) == 0) {
                cfg.wrongPath = true;
                cfg.wrongPathDepth = int(sim::parseIntOption(
                    "--wrong-path", a.substr(13), 1, 4096));
            } else if (a == "--stats") dump_stats = true;
            else if (a == "--trace-out") {
                cfg.obs.traceOut = next();
                cfg.obs.enabled = true;
            } else if (a == "--trace-period") {
                cfg.obs.tracePeriod =
                    uint32_t(sim::parseUintOption(a, next(), 1, 1u << 30));
            } else if (a == "--report") {
                std::string r = next();
                if (r != "breakdown")
                    throw std::invalid_argument("unknown report '" + r +
                                                "'");
                report_breakdown = true;
                cfg.obs.enabled = true;
            } else if (a == "--inject") inject = next();
            else if (a == "--seed") {
                seed = sim::parseUintOption(a, next(), 0, ~0ULL);
            } else if (a == "--no-golden") golden_enabled = false;
            else if (a == "--dump-on-error") cfg.dumpOnError = true;
            else if (a == "--selftest") selftest = true;
            else if (a == "--difftest") {
                difftest_n =
                    int(sim::parseIntOption(a, next(), 1, 1'000'000));
            } else if (a.rfind("--difftest=", 0) == 0) {
                difftest_n = int(sim::parseIntOption(
                    "--difftest", a.substr(11), 1, 1'000'000));
            } else if (a == "--difftest-seed") {
                difftest_seed = sim::parseUintOption(a, next(), 0, ~0ULL);
            } else if (a == "--difftest-repro") difftest_repro = next();
            else if (a == "--difftest-skip-idle") difftest_skip_idle = true;
            else if (a == "--list") {
                std::cout << "workloads:";
                for (const auto &b : trace::specCint2000())
                    std::cout << " " << b;
                std::cout << "\nkernels:";
                for (const auto &k : prog::kernelNames())
                    std::cout << " " << k;
                std::cout << "\nmachines: base 2-cycle mop-2src mop-wiredor"
                             " sf-squash-dep sf-scoreboard\n";
                return 0;
            } else if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else {
                throw std::invalid_argument("unknown option " + a);
            }
        }
        if (!inject.empty())
            cfg.faults = verify::FaultSpec::parse(inject, seed);
        else
            cfg.faults.seed = seed;
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n\n";
        usage();
        return 2;
    }

    if (selftest) {
        sim::SelftestResult r = sim::runSelftest(std::cout);
        return r.ok() ? 0 : 1;
    }

    if (difftest_n > 0) {
        std::cout << "difftest: base seed " << difftest_seed
                  << " (replay with --difftest-seed " << difftest_seed
                  << ")\n";
        int bad = verify::runDifftestCampaign(difftest_n, difftest_seed,
                                              difftest_repro,
                                              difftest_skip_idle,
                                              cfg.policy, cfg.wrongPath);
        return bad == 0 ? 0 : 1;
    }

    if (bench.empty() == kernel.empty()) {
        std::cerr << "pick exactly one of --bench / --kernel\n";
        usage();
        return 2;
    }
    try {
        sim::validateRunConfig(cfg);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    std::unique_ptr<pipeline::OooCore> core;
    try {
        std::unique_ptr<trace::TraceSource> src;
        std::unique_ptr<verify::GoldenModel> golden;
        if (!bench.empty()) {
            src = std::make_unique<trace::SyntheticSource>(
                trace::profileFor(bench));
        } else {
            prog::Program prog = prog::assemble(prog::kernelSource(kernel));
            src = std::make_unique<prog::Interpreter>(prog);
            if (golden_enabled)
                golden = std::make_unique<verify::GoldenModel>(prog);
        }
        pipeline::CoreParams params = sim::makeCoreParams(cfg);
        // Same seed derivation as runBenchmark for workloads; kernels
        // fall back to the fault seed (wrong-path µops never commit,
        // so the golden cross-check is unaffected).
        params.wrongPathSeed = trace::wrongPathSeed(
            bench.empty() ? seed : trace::profileFor(bench).seed);
        core = std::make_unique<pipeline::OooCore>(params, *src);
        if (golden)
            core->setGoldenModel(golden.get());
        pipeline::SimResult r = core->run(insts);

        std::cout << (bench.empty() ? kernel : bench) << " on "
                  << sim::machineName(cfg.machine) << " (iq="
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
        if (!inject.empty()) {
            std::cout << "  inject  " << cfg.faults.toString() << " seed "
                      << seed << " (" << core->injector()->totalFires()
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
        if (report_breakdown)
            core->observer()->printReport(std::cout);
        if (dump_stats) {
            stats::StatGroup g("sim");
            core->addStats(g);
            g.print(std::cout);
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        if (cfg.dumpOnError && core)
            core->dumpState(std::cerr);
        return 1;
    }
    return 0;
}
