/**
 * @file
 * `mopsim --selftest`: a fault-injection matrix over every machine
 * model.
 *
 * Each cell runs a kernel workload on one machine model with one fault
 * kind injected at a meaningful rate (plus the golden-model
 * cross-check) and classifies the outcome:
 *
 *  - recovered  the run completed and committed exactly the same
 *               instruction stream as the clean reference run (the
 *               perturbation cost cycles, never correctness)
 *  - detected   the run ended in a structured diagnostic —
 *               DeadlockError, IntegrityError or GoldenMismatchError
 *  - no-fire    the fault kind has no opportunity site on this machine
 *               (e.g. corrupt-mop without MOP formation)
 *  - FAILED     anything else: a silent wrong commit count, an
 *               unstructured crash, or a cycle-guard timeout
 *
 * The whole matrix must be recovered/detected/no-fire; any FAILED cell
 * makes runSelftest() report failure (and mopsim exit nonzero).
 */

#ifndef MOP_SIM_SELFTEST_HH
#define MOP_SIM_SELFTEST_HH

#include <ostream>
#include <string>

#include "verify/fault_injector.hh"

namespace mop::sim
{

/** Injection rate of fault kind @p k in every cell, tuned so a
 *  few-thousand-cycle run sees multiple fires without drowning the
 *  machine. */
double selftestRate(verify::FaultKind k);

struct SelftestResult
{
    int recovered = 0;
    int detected = 0;
    int noFire = 0;
    int failed = 0;

    bool ok() const { return failed == 0; }
    int cells() const { return recovered + detected + noFire + failed; }
};

/**
 * Run the fault matrix (all machines x all fault kinds) on @p kernel
 * and print a per-cell table plus a summary to @p os.
 */
/** The default kernel mixes loads, stores and branches so every fault
 *  kind has opportunity sites (hash, e.g., has no loads at all). */
SelftestResult runSelftest(std::ostream &os,
                           const std::string &kernel = "sort",
                           uint64_t seed = 42);

} // namespace mop::sim

#endif // MOP_SIM_SELFTEST_HH
