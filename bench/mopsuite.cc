/**
 * @file
 * mopsuite — every table, figure and ablation in one process.
 *
 * Plans the full set of unique simulator runs across all selected
 * figures, resolves them through the persistent result cache and a
 * thread-pool executor (--jobs N), then renders each figure serially,
 * so the output does not depend on --jobs. Every finished run is
 * stored in the cache as it completes: a sweep killed mid-flight, or
 * one that ends in a failed run (exit 1, one line per failed run), and
 * rerun with the same cache computes only the runs that were missing.
 *
 *   mopsuite                          # everything, all cores
 *   mopsuite --only table2 --jobs 2   # one figure, two workers
 *   mopsuite --json results.json      # machine-readable results
 *   mopsuite --list                   # registered figures
 *   mopsuite --cache-verify           # audit + repair the result cache
 */

#include "figures/figures.hh"
#include "sweep/suite.hh"

int
main(int argc, char **argv)
{
    mop::bench::registerAllFigures();
    return mop::sweep::suiteMain(argc, argv);
}
